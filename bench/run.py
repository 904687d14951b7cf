"""Benchmark of ``cycloschur verify``, end to end and layer by layer.

    python3 bench/run.py --workload hecke --seed 0 --seconds 28 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 28 --trace 0

Each sample calls the real entry point, ``cycloschur.cli.main(["verify",
...])``, in a fresh interpreter (bench/child.py), one sample at a time, with
``src/`` of this checkout on the path; nothing is installed or built.
``--points`` is never passed, so samples use the CLI default.

With ``--trace 0`` a run repeats verify samples while another one still
fits in ``--seconds``, and reports medians: ``verify_s`` (wall time of the
``main()`` call), ``cpu_s`` (user + system time of the child),
``peak_rss_mb`` (the child's peak RSS from ``os.wait4``) and ``setup_s``
(interpreter start-up plus ``import cycloschur.cli``, timed a few times
before each verify sample, so that its samples spread over the whole run).

``verify_s`` and ``cpu_s`` are given in reference seconds: the time measured,
less the probe's own, times PROBE_REF_S over the mean time of the speed probe
(probe.py) that ran during that sample.  On a shared host a vCPU's speed
swings by up to half within seconds, so the raw times of one sample spread
by 10% and more; the probe runs on the same CPU at the same moments, and the
scaled times spread by a few percent.  They equal wall and CPU seconds on a
machine on which the probe takes PROBE_REF_S.  The raw times are kept in the
run's details (``verify_wall_s``, ``cpu_wall_s``, ``probe_mean_s``).
``setup_s`` is scaled the same way by the mean of a few probes run right
after the import: that leaves the spread of single spawns as it is (much of
start-up is kernel work), but keeps the median from following the host's
slow phases, which moved it by a third between runs.
The first sample gets the benchmark's ``--seed`` as the CLI's ``--seed``; the
following ones get seeds drawn from it, because the work of the ``lie``
workload depends on the seed (its Jacobi sample) and a median over several
seeds varies less from run to run than one seed's time.

With ``--trace 1`` a run repeats pairs of one untraced and one traced sample
(see tracer.py), all with the benchmark's ``--seed``, at least two pairs even
when they take longer than ``--seconds``, and reports the per-layer metrics
and ``trace.overhead`` (traced over untraced ``verify_s``).  The count
metrics of all traced samples of a run must agree exactly.

Every sample is checked: exit code 0, no failed check, the per-suite check
counts recorded in bench/expected.json, and, at the default seed 0, the
sha256 of the canonical ``suites`` section of the report recorded there.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run's details (provenance, samples, failure reasons, layers found
missing).  A per-layer metric whose function is missing or never called on
the workload reads 0 in the last line and is listed under ``missing``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "bench"
CHILD = BENCH / "child.py"
DEFAULT_SEED = 0
SECONDS = 28
# setup spawns before each verify sample of an untraced run
SETUP_SPAWNS = 3
# probe time (probe.py) at which reference seconds equal seconds
PROBE_REF_S = 0.002
# every child is killed at this many seconds after the run started, so that
# the run ends within its 180 s limit
DEADLINE_S = 170

sys.path.insert(0, str(BENCH))
from tracer import COUNT_STATS, METRICS as LAYER_METRICS  # noqa: E402


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "hecke",
            ("verify", "--suite", "hecke", "-n", "3", "-r", "3", "-m", "2,2,2"),
            "coeff multiply under the Hecke engine on 4-variable coefficients; "
            "never touches schurops or the specialization oracle",
        ),
        Workload(
            "schur",
            ("verify", "--suite", "schur", "-n", "2", "-r", "2", "-m", "2,2", "--deg", "2"),
            "README configuration: schurops caches over hecke.mul, half the time "
            "in hecke_equal's specialization cross-check",
        ),
        Workload(
            "q1",
            ("verify", "--suite", "q1", "-n", "3", "-r", "2", "-m", "2,2"),
            "q = 1 ring: no (q - q^-1) branches, more weights, 2.3x the peak RSS "
            "of schur; shows costs of changes tuned for generic q",
        ),
        Workload(
            "lie",
            ("verify", "--suite", "lie,symfun", "-n", "3", "-r", "3", "-m", "2,2,2",
             "--deg", "2"),
            "no Hecke: liealg brackets and matrices drive coeff add/neg/sub, plus "
            "seeded Jacobi sampling, symfun and combinatorics",
        ),
    )
}

END_TO_END = {"verify_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {name: spec[2] for name, spec in LAYER_METRICS.items()}
PER_LAYER["trace.overhead"] = "ratio"


# -- children ------------------------------------------------------------------


def spawn(args, deadline):
    """Run bench/child.py ARGS to completion; return (exit code, stdout, rusage)."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    with subprocess.Popen(
        [sys.executable, str(CHILD), *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
    ) as proc:
        timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
    return proc.returncode, out, usage


def setup_times(count, deadline):
    """Reference seconds from spawning an interpreter until cycloschur.cli is
    imported."""
    times = []
    for _ in range(count):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        rc, out, _ = spawn(["setup"], deadline)
        if rc != 0:
            raise RuntimeError(f"importing cycloschur.cli failed with exit code {rc}")
        done, probe_s = map(float, out.split()[-2:])
        times.append((done - start) * PROBE_REF_S / probe_s)
    return times


def suites_digest(suites):
    canonical = json.dumps(suites, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def read_suites(report):
    """The ``suites`` section of a report file, or None if there is none."""
    try:
        return json.loads(report.read_text())["suites"]
    except (OSError, ValueError, KeyError):
        return None


def sample(workload, seed, trace, deadline):
    """One verify sample in a fresh interpreter, with CLI seed ``seed``."""
    WORK.mkdir(parents=True, exist_ok=True)
    report = WORK / f"report-{workload.name}-{os.getpid()}.json"
    mode = ["trace", report, spans_path(workload, seed)] if trace else ["verify", report]
    argv = [*workload.argv, "--seed", str(seed)]
    try:
        rc, out, usage = spawn([*map(str, mode), "--", *argv], deadline)
        suites = read_suites(report) if rc == 0 else None
    finally:
        report.unlink(missing_ok=True)
    lines = out.splitlines()
    result = json.loads(lines[-1]) if rc == 0 and lines else {"rc": rc}
    if suites is not None:
        result["totals"] = {name: s["total"] for name, s in suites.items()}
        result["failed_checks"] = sum(
            not check["ok"] for s in suites.values() for check in s["checks"]
        )
        result["suites_sha256"] = suites_digest(suites)
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    result["peak_rss_mb"] = usage.ru_maxrss / 1024
    return result


def spans_path(workload, seed):
    return WORK / f"spans-{workload.name}-seed{seed}.json"


def failure(result, expected, seed):
    """Why a sample is wrong, or None when it is correct."""
    if result["rc"] != 0:
        return f"exit code {result['rc']}"
    if "totals" not in result:
        return "no report"
    if result["failed_checks"]:
        return f"{result['failed_checks']} failed checks"
    if result["totals"] != expected["totals"]:
        return f"check counts {result['totals']} != expected {expected['totals']}"
    if seed == DEFAULT_SEED and result["suites_sha256"] != expected["suites_sha256"]:
        return "suites digest differs from the recorded one"
    return None


# -- runs ----------------------------------------------------------------------


def git_sha():
    """The checked-out commit, or None outside a git work tree."""
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def provenance(workload, seed):
    return {
        "workload": workload.name,
        "why": workload.why,
        "argv": list(workload.argv),
        "seed": seed,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }


def run(workload, seed, seconds, trace, expected):
    """Measure one workload; return the run's details and its metrics."""
    deadline = time.monotonic() + DEADLINE_S
    detail = provenance(workload, seed)
    samples, traced, reasons = [], [], []

    def take(trace_flag, cli_seed=seed):
        result = sample(workload, cli_seed, trace_flag, deadline)
        why = failure(result, expected, cli_seed)
        if why:
            reasons.append(why)
        (traced if trace_flag else samples).append(result)

    if not trace:
        setup_times(1, deadline)  # the first spawn also writes the bytecode cache
        setup = []
        draw = random.Random(seed)
        cli_seeds = [seed]
        begin = time.monotonic()
        while True:
            setup += setup_times(SETUP_SPAWNS, deadline)
            take(False, cli_seeds[-1])
            spent = time.monotonic() - begin
            if spent + spent / len(samples) > seconds:
                break
            cli_seeds.append(draw.randrange(2**31))
        detail["cli_seeds"] = cli_seeds
        scaled = [s for s in samples if "probe_mean_s" in s]
        for s in scaled:
            s["scale"] = PROBE_REF_S / s["probe_mean_s"]
        metrics = {
            "verify_s": median_of(s["verify_s"] * s["scale"] for s in scaled),
            "cpu_s": median_of((s["cpu_s"] - s["probe_spent_s"]) * s["scale"]
                               for s in scaled),
            "peak_rss_mb": median_of(s["peak_rss_mb"] for s in samples),
            "setup_s": median_of(setup),
        }
        detail["verify_wall_s"] = median_of(s.get("verify_s") for s in samples)
        detail["cpu_wall_s"] = median_of(s["cpu_s"] for s in samples)
        detail["probe_mean_s_samples"] = [s["probe_mean_s"] for s in scaled]
        detail["setup_s_samples"] = setup
    else:
        begin = time.monotonic()
        while True:
            take(False)
            take(True)
            spent = time.monotonic() - begin
            if len(traced) >= 2 and spent + spent / len(traced) > seconds:
                break
        metrics, missing = layer_metrics(samples, traced, reasons)
        detail["missing"] = missing
        detail["absent_layers"] = sorted({n for t in traced for n in t.get("absent", ())})
        detail["spans_file"] = str(spans_path(workload, seed).relative_to(ROOT))

    detail["verify_s_samples"] = [s.get("verify_s") for s in samples]
    detail["traced_verify_s_samples"] = [s.get("verify_s") for s in traced]
    detail["cpu_s_samples"] = [s["cpu_s"] for s in samples + traced]
    detail["peak_rss_mb_samples"] = [s["peak_rss_mb"] for s in samples + traced]
    attempted = len(samples) + len(traced)
    detail["attempted"] = attempted
    detail["failed"] = len(reasons)
    detail["failed_share"] = len(reasons) / attempted
    detail["failures"] = reasons
    detail["loadavg_end"] = os.getloadavg()
    return detail, metrics


def median_of(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def layer_metrics(samples, traced, reasons):
    """Per-layer metrics over a run's traced samples: counts must repeat
    exactly, times and ratios are medians.  Missing ones read None."""
    ok = [t["layers"] for t in traced if "layers" in t]
    metrics = {}
    for name, (_layer, stat, _unit) in LAYER_METRICS.items():
        values = [layers[name] for layers in ok]
        if not values or values[0] is None:
            metrics[name] = None
        elif stat in COUNT_STATS:
            if len(set(values)) > 1:
                reasons.append(f"{name} differs between traced samples: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    metrics["trace.overhead"] = median_of(
        t["verify_s"] / u["verify_s"]
        for u, t in zip(samples, traced)
        if "verify_s" in u and "verify_s" in t
    )
    missing = sorted(name for name, value in metrics.items() if value is None)
    return metrics, missing


def result_line(details, metrics, units):
    """The last output line: missing metrics read 0 (listed in the details)."""
    attempted = sum(d["attempted"] for d in details)
    failed = sum(d["failed"] for d in details)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": 0 if value is None else value, "unit": units[name.split(":")[-1]]}
            for name, value in metrics.items()
        },
    }


def table(workload, detail, metrics, units):
    rows = [f"{workload}: {detail['attempted']} samples, "
            f"failed_share {detail['failed_share']} (share)"]
    for name, value in metrics.items():
        shown = "missing" if value is None else f"{value:.6g}"
        rows.append(f"  {name:38} {shown:>14} {units[name]}")
    for name in ("verify_wall_s", "cpu_wall_s"):
        if detail.get(name) is not None:
            rows.append(f"  {name:38} {detail[name]:>14.6g} s (not scaled)")
    return "\n".join(rows)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help=f"one of {', '.join(WORKLOADS)}, or all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        ap.error(f"unknown workload {args.workload!r}")
    if not (SRC / "cycloschur" / "cli.py").is_file():
        print(f"error: no cycloschur sources under {SRC}", file=sys.stderr)
        return 2
    expected = json.loads((BENCH / "expected.json").read_text())
    units = PER_LAYER if args.trace else END_TO_END
    details, metrics = [], {}
    for name in names:
        detail, found = run(WORKLOADS[name], args.seed, args.seconds, args.trace,
                            expected[name])
        print(table(name, detail, found, units), flush=True)
        details.append(detail)
        prefix = "" if len(names) == 1 else f"{name}:"
        metrics.update((prefix + k, v) for k, v in found.items())
    print(json.dumps(details if len(details) > 1 else details[0]))
    print(json.dumps(result_line(details, metrics, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
