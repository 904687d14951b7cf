"""Command-line front end.

``cycloschur verify``, the one command, runs the machine-verification
suites and emits a JSON report (schema 2).

Exit codes: 0 all selected checks pass, 1 verification failure, 2 usage or
parse error (a ``ParseError`` raised at this edge, or an argparse failure),
3 an engine self-check failed or any other exception (a fault in the program).

When the selected suites have more than one part (``suites.RUNNERS``) and
more than one CPU is usable, the parts run concurrently, in this process and
in forked workers (see ``run_suites``); a one-suite ``--suite schur`` run has
two parts and a ``--suite q1`` run three.  The report is byte-identical to a
one-process run, a part that raises in a worker ends the run with the same
exit code and stderr line, and a worker that dies without sending its result
is exit 3.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .coeff import EngineError
from .combinatorics import Shape
from .suites import RUNNERS

SUITES = tuple(RUNNERS)


class ParseError(ValueError):
    def __init__(self, message, text, position):
        super().__init__(f"{message} at position {position}: {text!r}")
        self.position = position


class RunConfig:
    """The settings of one ``cycloschur verify`` run.  The block sizes m fix
    the component count r = len(m).  ``shared`` holds what the parts of one
    suite that run in one process share, such as the ``SchurContext`` of the
    ``schur`` or the ``q1`` suite; it starts empty with each run."""

    def __init__(self, n=2, m=(2, 2), suites=SUITES, deg=2, dmax=3, seed=0, out=None,
                 q1=False):
        self.n, self.shape, self.suites = n, Shape(m), suites
        self.deg, self.dmax, self.seed, self.out, self.q1 = deg, dmax, seed, out, q1
        self.shared = {}

    def as_json(self):
        return {
            "n": self.n,
            "r": self.shape.r,
            "m": list(self.shape.m),
            "suites": list(self.suites),
            "deg": self.deg,
            "dmax": self.dmax,
            "seed": self.seed,
            "q1": self.q1,
        }


def at_least(what, value, least):
    if value < least:
        raise ParseError(f"{what} must be at least {least}", str(value), 0)
    return value


def parse_int(text, what, least):
    """``int(text)`` when it is an integer of at least ``least``, else a
    ParseError naming ``what``."""
    try:
        value = int(text)
    except ValueError:
        raise ParseError(f"{what} must be an integer", text, 0) from None
    return at_least(what, value, least)


def parse_blocks(text):
    """The comma-separated block sizes of ``-m``, each a positive integer."""
    return tuple(parse_int(x, "block size", 1) for x in text.split(","))


def check_out(path):
    """Reject an ``--out`` that cannot name a file to write, before any work
    runs: an existing directory, or a path in a directory that does not
    exist.  No ``--out`` (None or empty) writes to stdout."""
    if not path:
        return
    target = Path(path)
    if target.is_dir():
        raise ParseError("--out names a directory", path, 0)
    if not target.parent.is_dir():
        raise ParseError("the directory of --out does not exist", path, 0)


def _write_json(obj, path):
    """Write obj as compact JSON with sorted keys to path, or to stdout when
    path is None.  The compact form keeps to the C encoder, which an
    ``indent`` would turn off; the report is a fresh tree, so the encoder's
    cycle check is skipped."""
    payload = json.dumps(obj, sort_keys=True, separators=(",", ":"), check_circular=False) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


class WorkerFailure(Exception):
    """A part that raised in a worker process, or a worker that ended
    without sending its result: ``main`` reports it with ``code`` and the
    message as its stderr line."""

    def __init__(self, code, line):
        super().__init__(line)
        self.code = code


def error_exit(exc):
    """The exit code and stderr line of an exception that ends a run."""
    if isinstance(exc, WorkerFailure):
        return exc.code, str(exc)
    if isinstance(exc, ParseError):
        return 2, f"error: {exc}"
    if isinstance(exc, EngineError):
        return 3, f"engine error: {exc}"
    return 3, f"internal error: {type(exc).__name__}: {exc}"


def run_group(config, group):
    """Run the parts of ``group``, (position, part) pairs, in order until one
    raises.  Returns their ``{position: checks}`` and None, or (the raising
    part's position, its exception)."""
    done = {}
    for pos, part in group:
        try:
            done[pos] = part(config)
        except Exception as exc:
            return done, (pos, exc)
    return done, None


def _worker(config, group, write, inherited):
    """The body of a forked worker: run ``group`` and send ``run_group``'s
    result through the pipe end ``write``, an exception as the position and
    ``error_exit`` pair.  The worker first closes the pipe ends it
    ``inherited`` and points its standard streams at the null device, so
    that it holds no pipe that another process waits on: a reader of this
    run's output sees its end when the run ends, and a worker left without
    a reader fails its write instead of blocking.  ``os._exit`` leaves
    without running the parent's cleanup or flushing its buffered output."""
    import marshal
    import os

    status = 1
    try:
        for fd in inherited:
            os.close(fd)
        null = os.open(os.devnull, os.O_RDWR)
        for fd in (0, 1, 2):
            os.dup2(null, fd)
        if null > 2:
            os.close(null)
        done, failed = run_group(config, group)
        if failed:
            failed = (failed[0], *error_exit(failed[1]))
        with open(write, "wb") as fh:
            fh.write(marshal.dumps((done, failed)))
        status = 0
    finally:
        os._exit(status)


def run_suites(config):
    """``{suite: checks}`` for the suites of ``config.suites``.

    The parts of the suites (``RUNNERS``), in suite order and each suite's
    part order, are dealt round-robin into k groups, k the smaller of the
    part count and the usable CPUs, and 1 without ``os.fork``.  Different
    suites share no state, and parts of one suite share it only within one
    process (``RunConfig.shared``), so any dealing gives the same checks.
    This process runs group 0; each other group runs in a forked worker that
    sends its result back through a pipe as ``marshal`` bytes, which keep
    tuples and int keys as they are.  With k = 1 no worker starts.  Each
    group stops at its first part that raises, and the run raises for the
    first such part in part order, as one process running them in turn
    would.  A worker that ends without a result is exit 3.  A worker whose
    first part comes after a failure already found cannot report an earlier
    one, so it is killed unread.  Every worker is reaped before this returns
    or raises.  A fork copies only the calling thread, so call this from a
    process that runs no other."""
    import marshal
    import os

    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    names = [name for name in config.suites for _ in RUNNERS[name]]
    parts = list(enumerate(part for name in config.suites for part in RUNNERS[name]))
    k = max(1, min(len(parts), cpus)) if hasattr(os, "fork") else 1
    groups = [parts[i::k] for i in range(k)]
    workers = []  # (pid, read end, group) of each worker not yet reaped
    try:
        for group in groups[1:]:
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if not pid:
                _worker(config, group, write,
                        (read, *(reader.fileno() for _, reader, _ in workers)))
            os.close(write)
            workers.append((pid, open(read, "rb"), group))
        results = [run_group(config, groups[0])]
        while workers:
            pid, reader, group = workers[0]
            if any(failed and failed[0] < group[0][0] for _, failed in results):
                break
            with reader:
                data = reader.read()
            status = os.waitpid(pid, 0)[1]
            del workers[0]
            if status == 0 and data:
                done, failed = marshal.loads(data)
                results.append((done, failed and (failed[0], WorkerFailure(*failed[1:]))))
            else:
                running = ", ".join(names[pos] for pos, _ in group)
                line = (f"internal error: the worker running {running} ended "
                        f"with status {os.waitstatus_to_exitcode(status)} and no result")
                results.append(({}, (group[0][0], WorkerFailure(3, line))))
    finally:
        if workers:  # this process raised, or a failure came before them
            import signal

            for pid, reader, _ in workers:
                reader.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    failures = [failed for _, failed in results if failed]
    if failures:
        raise min(failures, key=lambda failed: failed[0])[1]
    found = {pos: checks for done, _ in results for pos, checks in done.items()}
    checks = {name: [] for name in config.suites}
    for pos, name in enumerate(names):
        checks[name] += found[pos]
    return checks


def cmd_verify(config):
    found = run_suites(config)
    suites = {}
    for name in config.suites:
        checks = found[name]
        failed = [c for c in checks if not c["ok"]]
        suites[name] = {
            "passed": not failed,
            "total": len(checks),
            "failed": failed,
            "checks": checks,
        }
    passed = all(info["passed"] for info in suites.values())
    report = {
        "schema": 2,
        "config": config.as_json(),
        "suites": suites,
        "passed": passed,
    }
    _write_json(report, config.out)
    if config.out:
        for name in config.suites:
            info = suites[name]
            print(f"{name}: {'pass' if info['passed'] else 'FAIL'} ({info['total']} checks)")
        print(f"report written to {config.out}")
    return 0 if passed else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cycloschur",
        description="Exact verification of cyclotomic q-Schur generators, "
        "deformed current Lie algebras, and Weyl characters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run verification suites, emit a JSON report")
    pv.add_argument("--suite", default="all", help="hecke, schur, lie, symfun, q1, or all")
    pv.add_argument("-n", type=int, default=2)
    pv.add_argument("-r", type=int,
                    help="component count, len(-m) when unset; another value is a usage error")
    pv.add_argument("-m", default="2,2", help="comma-separated block sizes")
    pv.add_argument("--deg", type=int, default=2, help="degree cap for s, t, u")
    pv.add_argument("--dmax", type=int, default=3, help="divided-power cap")
    pv.add_argument("--seed", type=int, default=0,
                    help="seed of the Jacobi sample in the lie suite")
    pv.add_argument("--out", default=None)
    pv.add_argument("--q1", action="store_true", help="run at q = 1")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.suite == "all":
            suites = SUITES
        else:
            suites = ()
            pos = 0
            for raw in args.suite.split(","):
                s = raw.strip()
                if s not in SUITES:
                    raise ParseError(f"unknown suite {s!r}", args.suite, pos)
                if s in suites:
                    raise ParseError(f"suite {s!r} listed twice", args.suite, pos)
                suites += (s,)
                pos += len(raw) + 1
        m = parse_blocks(args.m)
        if args.r not in (None, len(m)):
            raise ParseError(f"-r must be {len(m)}, the input's component count",
                             str(args.r), 0)
        for flag, value, least in (("-n", args.n, 0), ("--deg", args.deg, 0),
                                   ("--dmax", args.dmax, 1)):
            at_least(flag, value, least)
        check_out(args.out)
        config = RunConfig(
            n=args.n,
            m=m,
            suites=suites,
            deg=args.deg,
            dmax=args.dmax,
            seed=args.seed,
            out=args.out,
            q1=args.q1,
        )
        return cmd_verify(config)
    except Exception as exc:
        code, line = error_exit(exc)
        print(line, file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
