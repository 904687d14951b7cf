#!/usr/bin/env python3
"""Run the full desk-scale verification campaign and write one JSON report
per configuration.

This drives the same suites as `cycloschur verify`, at the configurations the
acceptance gate pins, and prints a summary table.  Reports land in
./reports/ by default.

    python3 scripts/run_verification.py [--outdir reports] [--seed 0]
"""

import argparse
import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from cycloschur.cli import RunConfig, cmd_verify  # noqa: E402

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
        config = RunConfig(
            n=n, m=m, suites=suites, deg=deg, seed=args.seed, out=str(out),
        )
        t0 = time.time()
        code = cmd_verify(config)
        elapsed = time.time() - t0
        overall = max(overall, code)
        data = json.loads(out.read_text())
        total = sum(s["total"] for s in data["suites"].values())
        rows.append((tag, "pass" if code == 0 else "FAIL", total, elapsed))
    width = max(len(r[0]) for r in rows)
    print(f"\n{'configuration'.ljust(width)}  status  checks  seconds")
    for tag, status, total, elapsed in rows:
        print(f"{tag.ljust(width)}  {status:6}  {total:6d}  {elapsed:7.1f}")
    return overall


if __name__ == "__main__":
    sys.exit(main())
