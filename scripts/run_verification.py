#!/usr/bin/env python3
"""Run the full desk-scale verification campaign and write one JSON report
per configuration.

Each configuration, one the acceptance gate pins, is a `cycloschur verify`
run through `cli.main`, so a usage error (exit 2) or an engine error
(exit 3) shows in its row of the summary table and the campaign goes on.
The script exits with the largest code.  Reports land in ./reports/ by
default.

    python3 scripts/run_verification.py [--outdir reports] [--seed 0]
"""

import argparse
import collections
import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from cycloschur.cli import main as cli_main  # noqa: E402

CAMPAIGN = [
    # (suites, n, m, deg); the component count r is len(m)
    (("symfun",), 4, (2, 2), 2),
    (("hecke",), 3, (2, 2), 2),
    (("hecke",), 3, (2, 2, 2), 2),
    (("hecke",), 4, (2, 2), 2),
    (("hecke",), 5, (2, 2), 2),
    (("schur",), 2, (2, 2), 2),
    (("schur",), 3, (2, 2), 2),
    (("schur",), 2, (1, 1, 1), 2),
    (("schur",), 4, (2, 2), 0),
    (("q1",), 3, (2, 2), 2),
    (("q1",), 4, (2, 2), 2),
    (("lie",), 2, (2, 2), 2),
    (("lie",), 4, (4,), 2),
    (("lie",), 3, (2, 2, 2), 2),
]

# the exit codes of ``cycloschur verify``
STATUS = {0: "pass", 1: "FAIL", 2: "usage", 3: "error"}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--outdir", default="reports")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    overall = 0
    rows = []
    for suites, n, m, deg in CAMPAIGN:
        tag = f"{'-'.join(suites)}_n{n}_r{len(m)}_m{'x'.join(map(str, m))}"
        out = outdir / f"{tag}.json"
        argv = ["verify", "--suite", ",".join(suites), "-n", str(n),
                "-m", ",".join(map(str, m)), "--deg", str(deg),
                "--seed", str(args.seed), "--out", str(out)]
        t0 = time.time()
        code = cli_main(argv)
        elapsed = time.time() - t0
        overall = max(overall, code)
        # a usage or engine error (exit 2 or 3) ends the run before the
        # report is written
        total = "-"
        if code in (0, 1):
            data = json.loads(out.read_text())
            total = sum(s["total"] for s in data["suites"].values())
        rows.append((tag, STATUS[code], total, elapsed))
    width = max(len(r[0]) for r in rows)
    print(f"\n{'configuration'.ljust(width)}  status  checks  seconds")
    for tag, status, total, elapsed in rows:
        print(f"{tag.ljust(width)}  {status:6}  {total:>6}  {elapsed:7.1f}")
    tally = collections.Counter(status for _, status, _, _ in rows)
    print(", ".join(f"{tally[status]} {status}" for status in STATUS.values()))
    return overall


if __name__ == "__main__":
    sys.exit(main())
