"""Record a baseline of the benchmark in bench/baseline.json.

    python3 bench/baseline.py

For each workload of run.py it makes ten untraced runs of bench/run.py, with
seeds 0 .. 9 and run.py's default ``--seconds``, and two traced runs at seed
0, as separate processes the way the benchmark is meant to be driven.  For
every end-to-end metric it records the median, the quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of the
median, and the same for the unscaled ``verify_wall_s`` and ``cpu_wall_s``
of the runs' details; for the traced runs, whether every count metric
(``*.calls``, ``*.term_pairs``, ``*.terms_in``) repeats exactly, and the
per-layer values of the first traced run.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
from datetime import datetime, timezone

import run
from tracer import COUNT_STATS, METRICS

RUNS = 10
OUT = run.BENCH / "baseline.json"


def bench(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(run.SECONDS), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, check=True,
    )
    *_, detail, result = proc.stdout.splitlines()
    return json.loads(detail), json.loads(result)


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main():
    out = {
        "recorded": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "git_sha": run.git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "runs": RUNS,
        "seconds": run.SECONDS,
        "workloads": {},
    }
    for name in run.WORKLOADS:
        runs = [bench(name, seed, 0) for seed in range(RUNS)]
        results = [result for _, result in runs]
        traced = [bench(name, 0, 1) for _ in range(2)]
        counts = [
            {k: m["value"] for k, m in result["metrics"].items()
             if k in METRICS and METRICS[k][1] in COUNT_STATS}
            for _, result in traced
        ]
        entry = {
            "correct": all(r["correct"] for r in results + [t for _, t in traced]),
            "end_to_end": {
                metric: summary([r["metrics"][metric]["value"] for r in results])
                for metric in run.END_TO_END
            },
            # verify_s and cpu_s before scaling by the speed probe
            "unscaled": {
                metric: summary([detail[metric] for detail, _ in runs])
                for metric in ("verify_wall_s", "cpu_wall_s")
            },
            "traced_counts_repeat": counts[0] == counts[1],
            "per_layer_seed0": {k: m["value"] for k, m in traced[0][1]["metrics"].items()},
            "missing_seed0": traced[0][0]["missing"],
        }
        out["workloads"][name] = entry
        print(name, json.dumps({m: round(s["spread"], 4)
                                for m, s in entry["end_to_end"].items()}),
              "counts repeat:", entry["traced_counts_repeat"], flush=True)
    with open(OUT, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
