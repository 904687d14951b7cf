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


def _uses(private, owners):
    """(file, line, name) for each use of a name in ``private`` by a src
    module other than the ``owners``: imported, read as an attribute or
    named."""
    src = Path(cycloschur.__file__).parent
    found = []
    for path in sorted(src.rglob("*.py")):
        if path.relative_to(src).as_posix() in owners:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.Name):
                names = {node.id}
            else:
                continue
            found += [(path.name, node.lineno, n) for n in sorted(names & private)]
    return found


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
