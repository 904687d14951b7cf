import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import cycloschur
from cycloschur.coeff import LaurentRing
from cycloschur.combinatorics import Shape, enumerate_multipartitions

from api_helpers import memoized_functions

ENGINES = ("coeff", "combinatorics", "symfun", "hecke", "schurops", "liealg")


def _fresh_modules(code):
    """The names in ``sys.modules`` after running ``code`` in a fresh
    interpreter, so that modules other tests imported do not count."""
    code += "import sys\nprint('\\n'.join(sorted(sys.modules)))\n"
    env = dict(os.environ, PYTHONPATH=str(Path(cycloschur.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout.split()


def test_engines_load_no_suite_code():
    out = _fresh_modules("".join(f"import cycloschur.{name}\n" for name in ENGINES))
    assert {f"cycloschur.{name}" for name in ENGINES} <= set(out)
    loaded = [
        m for m in out if m.startswith("cycloschur.suites") or m == "cycloschur.reporting"
    ]
    assert loaded == []


def test_cli_import_loads_no_dataclass_machinery():
    # dataclasses pulls in inspect, ast, dis and tokenize at start-up
    out = set(_fresh_modules("import cycloschur.cli\n"))
    assert "cycloschur.cli" in out
    assert out.isdisjoint({"dataclasses", "inspect"})


# The workers of ``cycloschur verify`` are plain forks fed through a pipe, so
# neither the import nor a run pays for pool or process-spawning machinery.
POOL_MODULES = {"multiprocessing", "concurrent.futures", "pickle", "subprocess"}


def test_cli_and_a_two_suite_run_load_no_pool_machinery(tmp_path):
    imported = set(_fresh_modules("import cycloschur.cli\n"))
    assert "cycloschur.cli" in imported
    assert imported.isdisjoint(POOL_MODULES)
    report = tmp_path / "report.json"
    # two usable CPUs, so that the second suite, or the second part of the
    # one schur suite, runs in the one worker
    for suites in ("lie,symfun", "schur"):
        out = set(_fresh_modules(
            "import os\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "forks, fork = [], os.fork\n"
            "os.fork = lambda: forks.append(None) or fork()\n"
            "from cycloschur.cli import main\n"
            f"argv = ['verify', '--suite', {suites!r}, '-n', '1', '-r', '1', '-m', '2',\n"
            f"        '--deg', '0', '--dmax', '1', '--out', {str(report)!r}]\n"
            "assert main(argv) == 0\n"
            "assert len(forks) == 1\n"
        ))
        assert "cycloschur.cli" in out
        assert out.isdisjoint(POOL_MODULES)
        assert set(json.loads(report.read_text())["suites"]) == set(suites.split(","))


def _src_nodes():
    """(path relative to the package, node) for every AST node of src."""
    src = Path(cycloschur.__file__).parent
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            yield path.relative_to(src).as_posix(), node


def _names(node):
    """The names a node uses: imported, read as an attribute or named."""
    if isinstance(node, ast.ImportFrom):
        return {alias.name for alias in node.names}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.Name):
        return {node.id}
    return set()


def _uses(private, owners):
    """(file, line, name) for each use of a name in ``private`` by a src
    module other than the ``owners``."""
    return [
        (path, node.lineno, name)
        for path, node in _src_nodes() if path not in owners
        for name in sorted(_names(node) & private)
    ]


# The slot layout of a packed exponent key is known to coeff, which defines
# it, and to hecke, which places a ring key above its L slots; every other
# module works with whole keys.
PACKING = {"_W", "_BIAS", "_MASK", "_GUARD", "_pack", "_unpack", "_slots"}


def test_only_coeff_and_hecke_know_the_key_layout():
    assert _uses(PACKING, ("coeff.py", "hecke.py")) == []


# The ring shift of a Hecke key is the engine's own: other modules scale
# through ``HeckeElem.scale`` and ``HeckeElem.accumulate``.
HECKE_PRIVATE = {"_ring_shift"}


def test_only_hecke_shifts_hecke_keys():
    assert _uses(HECKE_PRIVATE, ("hecke.py",)) == []


# Every m_mu verdict is decided inside hecke, behind ``m_mu_kills`` and
# ``m_mu_divides``: the Young-sum sweep, the right-coset collapse, the block
# sizes they run on, the A-form division and the expanded m_mu product are
# not used elsewhere, so no other module divides or expands a whole m_mu
# image for a verdict.
M_MU_PRIVATE = {
    "x_mu_mul", "_x_mu_collapse_kills", "young_parts", "a_form_quotient", "m_mu_mul",
}


def test_only_hecke_decides_m_mu_verdicts():
    assert _uses(M_MU_PRIVATE, ("hecke.py",)) == []


# The engine keeps the V_tau matrices over Z[tau]; only the Lie suite's
# checks read them at a number, through ``at_q``, which coeff defines.
def test_only_coeff_and_the_lie_suite_name_at_q():
    assert _uses({"at_q"}, ("coeff.py", "suites/lie.py")) == []


def test_suites_import_no_private_engine_name():
    private = [
        (path, node.lineno, alias.name) for path, node in _src_nodes()
        if path.startswith("suites/") and isinstance(node, ast.ImportFrom)
        for alias in node.names if alias.name.startswith("_")
    ]
    assert private == []


def test_every_src_definition_is_used_in_src():
    # a function or class counts as used when src names it; a method only
    # when src reads an attribute of its name, since a name that matches a
    # function or a local does not call it; dunder methods are called by
    # the language
    nodes = list(_src_nodes())
    owner = {
        id(item): node.name for _, node in nodes if isinstance(node, ast.ClassDef)
        for item in node.body if isinstance(item, ast.FunctionDef)
    }
    named = set().union(*(_names(node) for _, node in nodes))
    read = {node.attr for _, node in nodes if isinstance(node, ast.Attribute)}
    unused = [
        f"{path}:{owner[id(node)]}.{node.name}" if id(node) in owner else f"{path}:{node.name}"
        for path, node in nodes
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in (read if id(node) in owner else named)
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]
    assert unused == []


# The arithmetic of the flat engine elements (MultiLaurent, HeckeElem,
# LieElem, SymPoly) is written once, in ``coeff.FlatElem`` and, for the
# elements keyed (head, key), ``coeff.HeadTerms``.  The named exceptions:
# ``MultiLaurent`` lists its own terms, whose keys carry no head, and
# ``LaurentRing`` and ``Shape`` hold no terms and compare by value.
SHARED_ARITHMETIC = {
    "is_zero": ["coeff.py:FlatElem"],
    "__eq__": ["coeff.py:FlatElem", "coeff.py:LaurentRing", "combinatorics.py:Shape"],
    "__add__": ["coeff.py:FlatElem"],
    "__neg__": ["coeff.py:FlatElem"],
    "__sub__": ["coeff.py:FlatElem"],
    "sorted_terms": ["coeff.py:HeadTerms", "coeff.py:MultiLaurent"],
}


def test_element_arithmetic_is_defined_once():
    found = {name: [] for name in SHARED_ARITHMETIC}
    for path, node in _src_nodes():
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name in found:
                    found[item.name].append(f"{path}:{node.name}")
    assert {name: sorted(where) for name, where in found.items()} == SHARED_ARITHMETIC


# One memo rule: a pure function of hashable, immutable inputs is memoized
# by ``functools.lru_cache`` on its own definition; only memos keyed by
# engine elements live on a context.  So a ring holds no cache, and a
# memoized value a caller could mutate is a tuple, not a list.
def test_a_ring_holds_no_cache():
    assert set(vars(LaurentRing(2))) == {"r", "q_one", "nvars", "origin", "guard", "zero", "one"}


def test_multipartition_sets_are_tuples():
    assert type(enumerate_multipartitions(2, Shape((1, 2)))) is tuple


def _lru_decorated():
    """"module.qualname" of every src definition decorated with ``lru_cache``."""
    src = Path(cycloschur.__file__).parent
    out = set()
    for path in sorted(src.rglob("*.py")):
        module = "cycloschur." + path.relative_to(src).with_suffix("").as_posix().replace("/", ".")
        for node in ast.parse(path.read_text()).body:
            defs = [node] + (node.body if isinstance(node, ast.ClassDef) else [])
            for item in defs:
                if isinstance(item, ast.FunctionDef) and any(
                    "lru_cache" in ast.unparse(d) for d in item.decorator_list
                ):
                    owner = f"{node.name}." if item is not node else ""
                    out.add(f"{module}.{owner}{item.name}")
    return out


def test_the_memo_walker_finds_every_memo():
    # tests/conftest.py clears these before each test
    assert set(memoized_functions()) == _lru_decorated()
