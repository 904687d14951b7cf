import os
import subprocess
import sys
from pathlib import Path

import cycloschur

ENGINES = ("coeff", "combinatorics", "symfun", "hecke", "schurops", "liealg")


def test_engines_load_no_suite_code():
    # a fresh interpreter, so modules that other tests imported do not count
    code = "".join(f"import cycloschur.{name}\n" for name in ENGINES)
    code += "import sys\nprint('\\n'.join(sorted(sys.modules)))\n"
    env = dict(os.environ, PYTHONPATH=str(Path(cycloschur.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout.split()
    assert {f"cycloschur.{name}" for name in ENGINES} <= set(out)
    loaded = [
        m for m in out if m.startswith("cycloschur.suites") or m == "cycloschur.reporting"
    ]
    assert loaded == []
