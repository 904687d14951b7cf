"""Self-test of the benchmark on a tiny argv; takes well under a minute.

    python3 bench/selftest.py

It checks that
  * BENCHMARK.json lists the workloads of run.py, with their reasons;
  * an untraced run reports every end-to-end metric of BENCHMARK.json, and a
    traced run every per-layer metric, each with the unit given there;
  * the correctness gate can fail: a wrong expected digest at the default
    seed, or wrong check counts at another seed, gives failed_share 1;
  * two traced runs at one seed agree exactly on every count metric;
  * in a directory holding only BENCHMARK.json and bench/, run.py exits
    non-zero without printing a result.
Exit code 0 when every check passes, 1 otherwise.
"""

import json
import shutil
import subprocess
import sys
import time

import run
from tracer import COUNT_STATS, METRICS

TINY = run.Workload(
    "tiny", ("verify", "--suite", "hecke", "-n", "2", "-r", "1", "-m", "2"), "self-test"
)
SECONDS = 0.1


def measure(seed, trace, expected):
    detail, metrics = run.run(TINY, seed, SECONDS, trace, expected)
    units = run.PER_LAYER if trace else run.END_TO_END
    return detail, run.result_line([detail], metrics, units)


def main():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    problems = []

    def expect(ok, what):
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            problems.append(what)

    expect({w["name"]: w["why"] for w in spec["workloads"]}
           == {w.name: w.why for w in run.WORKLOADS.values()},
           "BENCHMARK.json lists the workloads of run.py")

    first = run.sample(TINY, run.DEFAULT_SEED, False, time.monotonic() + 60)
    good = {"totals": first["totals"], "suites_sha256": first["suites_sha256"]}

    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        detail, line = measure(run.DEFAULT_SEED, trace, good)
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {name: m["unit"] for name, m in line["metrics"].items()}
        expect(got == want, f"--trace {trace} prints every {key} metric with its unit")
        expect(line["correct"] and detail["failed_share"] == 0,
               f"--trace {trace} passes with the right digest")

    detail, line = measure(run.DEFAULT_SEED, 0, dict(good, suites_sha256="0" * 64))
    expect(detail["failed_share"] == 1 and not line["correct"],
           "a wrong digest gives failed_share 1")
    detail, line = measure(1, 0, dict(good, totals={"hecke": 1}))
    expect(detail["failed_share"] == 1 and not line["correct"],
           "wrong check counts give failed_share 1 at another seed")

    counts = [
        {name: value for name, value in measure(2, 1, good)[1]["metrics"].items()
         if name in METRICS and METRICS[name][1] in COUNT_STATS}
        for _ in range(2)
    ]
    expect(counts[0] == counts[1] and any(m["value"] for m in counts[0].values()),
           "two traced runs at one seed agree on every count")

    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "hecke", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "without sources run.py exits non-zero and prints no result")

    print("selftest:", "ok" if not problems else f"{len(problems)} failed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
