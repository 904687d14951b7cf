"""Layer tracing for the benchmark's traced run.

The tracer wraps public functions of the ``cycloschur`` modules from the
outside: it replaces each target in every loaded ``cycloschur`` module
namespace and class that binds it, because modules import some functions by
name (``schurops`` binds ``hecke_equal``, ``m_mu``, ``t_bracket`` and
``phi_jm``; ``hecke`` binds ``specialize``).  Nothing inside the package is
edited.

Every wrapped call adds to its layer's call count and self time (its
duration minus the time spent in wrapped calls it made).  Calls into the
``hecke``, ``schurops``, ``liealg`` and ``cli`` layers are also kept as
spans ``(name, start, end, parent)``; the hot ``coeff``, ``symfun`` and
``combinatorics`` calls (over a million ``MultiLaurent.__add__`` calls on
the ``lie`` workload) are only counted.

A target that does not exist, or exists but is never called, is reported as
missing (``None``) instead of as zero.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from array import array


def _term_pairs(args):
    # a scalar operand (int or Fraction) counts as one term
    a, b = args[0], args[1]
    return len(a.terms) * len(getattr(b, "terms", (b,)))


def _terms_in(args):
    return len(args[2].terms)


# (layer name, module, attribute path, keep spans, track argument keys,
#  operation count or None).  Several attributes may feed one layer name.
TARGETS = (
    ("coeff.mul", "cycloschur.coeff", "MultiLaurent.__mul__", False, False, _term_pairs),
    ("coeff.mul", "cycloschur.coeff", "MultiLaurent.__rmul__", False, False, _term_pairs),
    ("coeff.add", "cycloschur.coeff", "MultiLaurent.__add__", False, False, None),
    ("coeff.add", "cycloschur.coeff", "MultiLaurent.__sub__", False, False, None),
    ("coeff.add", "cycloschur.coeff", "MultiLaurent.__neg__", False, False, None),
    ("coeff.specialize", "cycloschur.coeff", "specialize", False, False, None),
    ("coeff.divexact", "cycloschur.coeff", "divexact", False, False, None),
    ("hecke.lmul_gen", "cycloschur.hecke", "HeckeContext.lmul_gen", True, False, _terms_in),
    ("hecke.mul", "cycloschur.hecke", "HeckeContext.mul", True, False, None),
    ("hecke.m_mu", "cycloschur.hecke", "m_mu", True, True, None),
    ("hecke.equal", "cycloschur.hecke", "hecke_equal", True, False, None),
    ("schurops.apply_gen", "cycloschur.schurops", "SchurContext.apply_gen", True, True, None),
    ("schurops.apply_seq", "cycloschur.schurops", "SchurContext.apply_seq", True, True, None),
    ("schurops.op_equal", "cycloschur.schurops", "SchurContext.op_equal", True, False, None),
    ("liealg.bracket_basis", "cycloschur.liealg", "LieContext.bracket_basis", True, True, None),
    ("liealg.mat_mul", "cycloschur.liealg", "mat_mul", True, False, None),
    ("liealg.jacobi_defect", "cycloschur.liealg", "jacobi_defect", True, False, None),
    ("symfun.mul", "cycloschur.symfun", "SymPoly.__mul__", False, False, None),
    ("symfun.weyl_character", "cycloschur.symfun", "weyl_character", False, False, None),
    ("combinatorics.lr_coefficient", "cycloschur.combinatorics", "lr_coefficient",
     False, False, None),
    ("cli.cmd_verify", "cycloschur.cli", "cmd_verify", True, False, None),
)

# Per-layer metrics: name -> (layer, statistic, unit).  The names are
# the ``per_layer`` list of BENCHMARK.json, minus ``trace.overhead``, which
# the runner adds because it needs an untraced run as well.
METRICS = {}
for _layer, _stats in (
    ("coeff.mul", ("calls", "term_pairs", "self_s")),
    ("coeff.add", ("calls", "self_s")),
    ("coeff.specialize", ("calls", "self_s")),
    ("coeff.divexact", ("calls",)),
    ("hecke.lmul_gen", ("calls", "terms_in", "self_s")),
    ("hecke.mul", ("calls", "self_s")),
    ("hecke.m_mu", ("calls", "hit_ratio")),
    ("hecke.equal", ("calls", "self_s")),
    ("schurops.apply_gen", ("calls", "hit_ratio", "self_s")),
    ("schurops.apply_seq", ("calls", "hit_ratio")),
    ("schurops.op_equal", ("calls", "self_s", "p50_ms", "p99_ms")),
    ("liealg.bracket_basis", ("calls", "hit_ratio", "self_s")),
    ("liealg.mat_mul", ("calls", "self_s")),
    ("liealg.jacobi_defect", ("calls",)),
    ("symfun.mul", ("calls", "self_s")),
    ("symfun.weyl_character", ("self_s",)),
    ("combinatorics.lr_coefficient", ("calls", "self_s")),
    ("cli.cmd_verify", ("self_s",)),
):
    for _stat in _stats:
        _unit = {
            "calls": "count",
            "term_pairs": "count",
            "terms_in": "count",
            "self_s": "s",
            "hit_ratio": "ratio",
            "p50_ms": "ms",
            "p99_ms": "ms",
        }[_stat]
        METRICS[f"{_layer}.{_stat}"] = (_layer, _stat, _unit)

# Statistics that are exact counts: two traced runs of one argv and seed
# must agree on them.
COUNT_STATS = ("calls", "term_pairs", "terms_in")


class _Layer:
    __slots__ = ("found", "calls", "self_s", "ops", "keys")

    def __init__(self):
        self.found = False
        self.calls = 0
        self.self_s = 0.0
        self.ops = 0
        self.keys = None


def _key(args, kwargs):
    # contexts hash by identity and stay referenced through the key set, so
    # an id is never reused while its keys are held
    return (args, tuple(sorted(kwargs.items()))) if kwargs else args


class Tracer:
    def __init__(self):
        self.layers = {}
        # time spent in wrapped callees of each open wrapped call; the
        # bottom slot belongs to untraced code
        self._callee_s = [0.0]
        self._open_spans = [-1]
        self.span_names = []
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")

    # -- installing --------------------------------------------------------

    def install(self):
        """Wrap every target; return the layer names found missing."""
        for name, modname, path, span, keys, ops in TARGETS:
            layer = self.layers.setdefault(name, _Layer())
            try:
                owner = importlib.import_module(modname)
                *owner_path, attr = path.split(".")
                for part in owner_path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                continue
            layer.found = True
            if keys:
                layer.keys = set()
            wrapper = self._wrap(name, original, layer, span, ops)
            if owner_path:
                setattr(owner, attr, wrapper)
            else:
                self._rebind(original, wrapper)
        return sorted(n for n, layer in self.layers.items() if not layer.found)

    @staticmethod
    def _rebind(original, wrapper):
        for modname, module in list(sys.modules.items()):
            if modname == "cycloschur" or modname.startswith("cycloschur."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def _wrap(self, name, fn, layer, span, ops):
        clock = time.perf_counter
        callee_s = self._callee_s
        if not span:
            def wrapper(*args, **kwargs):
                callee_s.append(0.0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    layer.self_s += dt - callee_s.pop()
                    callee_s[-1] += dt
                    layer.calls += 1
                    if ops is not None:
                        layer.ops += ops(args)
            return wrapper

        if name not in self.span_names:
            self.span_names.append(name)
        name_id = self.span_names.index(name)
        open_spans = self._open_spans
        span_name = self.span_name
        span_start = self.span_start
        span_end = self.span_end
        span_parent = self.span_parent
        keys = layer.keys

        def wrapper(*args, **kwargs):
            index = len(span_start)
            span_name.append(name_id)
            span_parent.append(open_spans[-1])
            span_end.append(0.0)
            open_spans.append(index)
            callee_s.append(0.0)
            t0 = clock()
            span_start.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                span_end[index] = t1
                open_spans.pop()
                layer.self_s += dt - callee_s.pop()
                callee_s[-1] += dt
                layer.calls += 1
                if ops is not None:
                    layer.ops += ops(args)
                if keys is not None:
                    keys.add(_key(args, kwargs))
        return wrapper

    # -- reading -----------------------------------------------------------

    def metrics(self):
        """Per-layer metrics; ``None`` marks a missing or never-called layer."""
        out = {}
        for metric, (name, stat, _unit) in METRICS.items():
            layer = self.layers.get(name)
            if layer is None or not layer.calls:
                out[metric] = None
            elif stat == "calls":
                out[metric] = layer.calls
            elif stat in ("term_pairs", "terms_in"):
                out[metric] = layer.ops
            elif stat == "self_s":
                out[metric] = layer.self_s
            elif stat == "hit_ratio":
                out[metric] = 1.0 - len(layer.keys) / layer.calls
            else:
                q = 50 if stat == "p50_ms" else 99
                out[metric] = 1000.0 * _percentile(self.durations(name), q)
        return out

    def durations(self, name):
        name_id = self.span_names.index(name)
        return [
            e - s
            for n, s, e in zip(self.span_name, self.span_start, self.span_end)
            if n == name_id
        ]

    def spans(self):
        """All kept spans as ``(name, start, end, parent index)``."""
        return [
            (self.span_names[n], s, e, p)
            for n, s, e, p in zip(
                self.span_name, self.span_start, self.span_end, self.span_parent
            )
        ]


def _percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
