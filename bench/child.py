"""One benchmark sample, run in a fresh interpreter by ``run.py``.

    python3 bench/child.py setup
        import cycloschur.cli, then print the CLOCK_MONOTONIC time at which
        the import finished, so the parent can time spawn-to-import, and the
        mean time of a few speed probes run after it (see probe.py).

    python3 bench/child.py verify REPORT -- ARGV...
        call ``cycloschur.cli.main(ARGV + ["--out", REPORT])`` while a speed
        probe (see probe.py) runs every tenth of a second, and print, as
        the last line, a JSON object with the exit code, the wall time of the
        call less the probes' own time, and the probes' count, total and mean
        time.  The parent reads and checks REPORT itself.

    python3 bench/child.py trace REPORT SPANS -- ARGV...
        the same with the layers wrapped first (see tracer.py) and no probe;
        the object also carries the per-layer metrics, and the kept spans are
        written to SPANS as a JSON list of ``[name, start, end, parent index]``.
"""

import json
import sys
import time

# speed probes run after the import of a setup sample
SETUP_PROBES = 10


def verify(report, argv, spans=None):
    from cycloschur.cli import main

    if spans is None:
        from probe import Probe

        probe = Probe()
        with probe:
            t0 = time.perf_counter()
            rc = main(argv + ["--out", report])
            wall = time.perf_counter() - t0
        return {"rc": rc, "verify_s": wall - probe.result["probe_spent_s"], **probe.result}

    from tracer import Tracer

    tracer = Tracer()
    absent = tracer.install()
    t0 = time.perf_counter()
    rc = main(argv + ["--out", report])
    result = {"rc": rc, "verify_s": time.perf_counter() - t0}
    result["layers"] = tracer.metrics()
    result["absent"] = absent
    with open(spans, "w") as fh:
        json.dump(tracer.spans(), fh)
    return result


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        import cycloschur.cli  # noqa: F401

        done = time.clock_gettime(time.CLOCK_MONOTONIC)
        from probe import probe_mean

        print(repr(done), repr(probe_mean(SETUP_PROBES)))
    else:
        sep = sys.argv.index("--")
        mode, report, *spans = sys.argv[1:sep]
        result = verify(report, sys.argv[sep + 1:], spans[0] if mode == "trace" else None)
        print(json.dumps(result))
