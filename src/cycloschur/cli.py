"""Command-line front end.

``cycloschur verify`` runs the machine-verification suites and emits a JSON
report (schema 2); ``cycloschur compute`` evaluates characters, LR data,
symmetric polynomials, tableaux, and Lie structure constants as JSON.

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
import itertools
import json
import sys
from pathlib import Path

from . import combinatorics as comb
from . import liealg, symfun
from .coeff import EXP_MAX, EngineError, LaurentRing
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


def parse_int(text, what, least=None):
    """``int(text)``, or a ParseError naming ``what``; with ``least``, the
    value must also be at least that."""
    try:
        value = int(text)
    except ValueError:
        raise ParseError(f"{what} must be an integer", text, 0) from None
    return value if least is None else at_least(what, value, least)


def parse_blocks(text):
    """The comma-separated block sizes of ``-m``, each a positive integer."""
    return tuple(parse_int(x, "block size", least=1) for x in text.split(","))


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


def parse_multipartition(text):
    """Parse a parenthesized multipartition literal.

    Grammar (whitespace-insensitive):
        multipartition := '(' partition (',' partition)* ')'
        partition      := '(' [ int (',' int)* ] ')'
    Example: ``((2,1),())`` is the 2-component multipartition with first
    component (2,1) and empty second component.
    """
    pos = 0

    def skip_ws():
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def expect(ch):
        nonlocal pos
        skip_ws()
        if pos >= len(text) or text[pos] != ch:
            found = text[pos] if pos < len(text) else "end of input"
            raise ParseError(f"expected {ch!r}, found {found!r}", text, pos)
        pos += 1

    def parse_int():
        nonlocal pos
        skip_ws()
        start = pos
        while pos < len(text) and text[pos].isdigit():
            pos += 1
        if start == pos:
            found = text[pos] if pos < len(text) else "end of input"
            raise ParseError(f"expected integer, found {found!r}", text, pos)
        return int(text[start:pos])

    def parse_partition():
        nonlocal pos
        expect("(")
        skip_ws()
        parts = []
        if pos < len(text) and text[pos] == ")":
            pos += 1
            return ()
        while True:
            parts.append(parse_int())
            skip_ws()
            if pos < len(text) and text[pos] == ",":
                pos += 1
                continue
            expect(")")
            break
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ParseError("partition parts must be weakly decreasing", text, pos)
        return comb.strip(tuple(parts))

    expect("(")
    components = [parse_partition()]
    skip_ws()
    while pos < len(text) and text[pos] == ",":
        pos += 1
        components.append(parse_partition())
        skip_ws()
    expect(")")
    skip_ws()
    if pos != len(text):
        raise ParseError("trailing input", text, pos)
    return tuple(components)


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


def _check_r(args, count):
    """Reject an explicit ``-r`` that is not the component count of the input."""
    if args.r not in (None, count):
        raise ParseError(f"-r must be {count}, the input's component count", str(args.r), 0)


def cmd_compute(args):
    shape = Shape(tuple(args.m))
    if "-m" in _QUERIES[args.query][1]:
        _check_r(args, shape.r)
    if args.query == "character":
        lam = parse_multipartition(args.args[0])
        if len(lam) != shape.r:
            raise ParseError("component count does not match r", args.args[0], 0)
        ring = LaurentRing(shape.r)
        poly = symfun.weyl_character(lam, shape, ring)
        out = {
            "query": "character",
            "lambda": [list(p) for p in lam],
            "m": list(shape.m),
            "terms": symfun.sympoly_to_json(poly),
        }
    elif args.query == "lr":
        lam = parse_multipartition(args.args[0])
        mu = parse_multipartition(args.args[1])
        if len(lam) != len(mu):
            raise ParseError("component count mismatch", args.args[1], 0)
        _check_r(args, len(lam))
        sizes = [sum(lk) + sum(mk) for lk, mk in zip(lam, mu)]
        terms = []
        pools = [comb.partitions_of(nk) for nk in sizes]
        for nu in itertools.product(*pools):
            c = comb.lr_coefficient(lam, mu, nu)
            if c:
                terms.append({"nu": [list(p) for p in nu], "coeff": c})
        out = {
            "query": "lr",
            "lambda": [list(p) for p in lam],
            "mu": [list(p) for p in mu],
            "terms": sorted(terms, key=lambda item: item["nu"]),
        }
    elif args.query == "phi":
        t = parse_int(args.args[0], "t", least=0)
        k = parse_int(args.args[1], "k", least=1)
        # the q exponents of Phi_t in k variables reach 2k - 2 in absolute value
        if 2 * k - 2 > EXP_MAX:
            raise ParseError(f"k must be at most {EXP_MAX // 2 + 1}", args.args[1], 0)
        sign_txt = args.args[2]
        if sign_txt not in ("+", "-"):
            raise ParseError("sign must be + or -", sign_txt, 0)
        ring = LaurentRing(args.r or 1)
        poly = symfun.phi(t, k, +1 if sign_txt == "+" else -1, ring)
        out = {"query": "phi", "t": t, "k": k, "sign": sign_txt,
               "terms": symfun.sympoly_to_json(poly)}
    elif args.query == "tableaux":
        lam = parse_multipartition(args.args[0])
        mu_part = parse_multipartition(args.args[1])
        for text, parts in zip(args.args, (lam, mu_part)):
            if len(parts) != shape.r:
                raise ParseError("component count does not match m", text, 0)
        for k, p in enumerate(mu_part):
            if len(p) > shape.m[k]:
                raise ParseError(
                    f"weight component {k + 1} longer than m_{k + 1}", args.args[1], 0
                )
        mu = tuple(
            tuple(list(p) + [0] * (shape.m[k] - len(p)))
            for k, p in enumerate(mu_part)
        )
        tabs = comb.semistandard_tableaux(lam, shape, weight=mu)
        out = {
            "query": "tableaux",
            "lambda": [list(p) for p in lam],
            "mu": [list(p) for p in mu],
            "count": len(tabs),
            "tableaux": [comb.tableau_to_json(lam, tab) for tab in tabs],
        }
    else:  # structure-constants; argparse admits no other query
        lctx = liealg.LieContext(shape)
        deg = args.deg
        table = []
        for a in liealg.all_basis_labels(lctx, deg):
            for b in liealg.all_basis_labels(lctx, deg):
                br = lctx.bracket_basis(a, b)
                if not br.is_zero:
                    table.append(
                        {
                            "a": list(a),
                            "b": list(b),
                            "bracket": liealg.elem_to_json(br),
                        }
                    )
        out = {"query": "structure-constants", "m": list(shape.m), "deg": deg,
               "table": table}
    _write_json(out, args.out)
    return 0


# each query's argument count and the options it reads besides -r and --out;
# -r must match -m where a query reads -m, and lr's literals (see _check_r)
_QUERIES = {"character": (1, ("-m",)), "lr": (2, ()), "phi": (3, ()),
            "tableaux": (2, ("-m",)), "structure-constants": (0, ("-m", "--deg"))}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cycloschur",
        description="Exact verification and computation for cyclotomic q-Schur "
        "generators, deformed current Lie algebras, and Weyl characters.",
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

    pc = sub.add_parser("compute", help="compute one object as JSON")
    pc.add_argument("query", choices=list(_QUERIES))
    pc.add_argument("args", nargs="*",
                    help="query arguments, e.g. multipartition literals '((2,1),())'")
    pc.add_argument("-r", type=int,
                    help="phi's component count (1 when unset); else that of -m or lr's literals")
    pc.add_argument("-m", help="block sizes of character, tableaux and structure-constants "
                    "(2,2 when unset)")
    pc.add_argument("--deg", type=int, help="degree cap of structure-constants (1 when unset)")
    pc.add_argument("--out", default=None)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "verify":
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
            _check_r(args, len(m))
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
        # the subcommand is required, so it is compute
        expected, options = _QUERIES[args.query]
        if len(args.args) != expected:
            raise ParseError(
                f"{args.query} needs {expected} argument(s)",
                " ".join(args.args),
                0,
            )
        for flag, value in (("-m", args.m), ("--deg", args.deg)):
            if value is not None and flag not in options:
                raise ParseError(f"{args.query} does not read {flag}", str(value), 0)
        args.m = parse_blocks("2,2" if args.m is None else args.m)
        if args.r is not None:
            at_least("-r", args.r, 1)
        args.deg = at_least("--deg", 1 if args.deg is None else args.deg, 0)
        check_out(args.out)
        return cmd_compute(args)
    except Exception as exc:
        code, line = error_exit(exc)
        print(line, file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
