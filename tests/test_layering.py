import ast
import os
import subprocess
import sys
from pathlib import Path

import cycloschur

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


# Whether m_mu kills an element is decided behind ``hecke.m_mu_kills``: the
# Young-sum sweep, the right-coset collapse and the block sizes they run on
# are not used elsewhere.
KILLS_PRIVATE = {"x_mu_mul", "_x_mu_collapse_kills", "young_parts"}


def test_only_hecke_decides_m_mu_kills():
    assert _uses(KILLS_PRIVATE, ("hecke.py",)) == []


# Functions and classes that only the tests use: the oracle evaluates
# coefficients with ``coeff.specialize``, and the hypothesis strategies build
# ring elements with ``LaurentRing.monomial``.
TEST_ONLY = {"specialize", "monomial"}


def test_every_src_definition_is_used_in_src():
    # by name, so a method counts as used when any object's attribute of
    # that name is read; dunder methods are called by the language
    defined, used = {}, set()
    for path, node in _src_nodes():
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.setdefault(node.name, []).append((path, node.lineno))
        used |= _names(node)
    unused = {
        name: where for name, where in defined.items()
        if name not in used and not (name.startswith("__") and name.endswith("__"))
    }
    assert set(unused) == TEST_ONLY, unused
