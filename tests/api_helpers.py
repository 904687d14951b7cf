"""Conveniences that only the tests use, built on the public names of src:
the Lie generators X and I and the bracket of whole elements, the plain
multipartition set Lambda^+_{n,r}(m), the Schur relations (R1)-(R8) and
the q = 1 relations (L1)-(L6) each as one family, the memoized functions
of src, the JSON forms of Lie elements and symmetric polynomials that
the pinned structure constants, Phi values and characters hash, and the
evaluation-map checks walked over Z[tau], the reference for the walk on
V_0.  The suites reach none of them: they bracket basis labels, enumerate
the extended multipartitions, run each family in two parts and decide the
evaluation map on V_0."""

import importlib
import pkgutil
from itertools import chain, product

import cycloschur
from cycloschur.coeff import ml_to_json
from cycloschur.combinatorics import compositions_of, partitions_of
from cycloschur.liealg import all_basis_labels, mat_unit
from cycloschur.suites.lie import (
    _differ_at,
    _first_pair_violations,
    _first_violations,
    _homomorphism_sides,
    generator_labels,
)
from cycloschur.suites.schur import (
    ki_relation_words,
    q1_l13_relation_words,
    q1_l46_relation_words,
    run_relations,
    x_relation_words,
)


def lie_X(lctx, sign, pos, t):
    """The raising (sign +1) or lowering (sign -1) generator at position
    pos of Gamma' and degree t."""
    if not 1 <= pos <= lctx.m - 1:
        raise ValueError(f"position {pos} not in Gamma'")
    return lctx.basis(pos, pos + 1, t) if sign > 0 else lctx.basis(pos + 1, pos, t)


def lie_I(lctx, pos, t):
    """The diagonal generator at position pos and degree t."""
    return lctx.basis(pos, pos, t)


def lie_bracket(x, y):
    """[x, y], extended bilinearly from ``LieContext.bracket_basis``."""
    lctx = x.ctx
    out = lctx.zero()
    for (a, ca), (b, cb) in product(x.grouped().items(), y.grouped().items()):
        out = out + lctx.bracket_basis(a, b).scale(ca * cb)
    return out


def small_multipartitions(n, shape):
    """Lambda^+_{n,r}(m), the multipartitions of n whose component k has at
    most m_k rows, in the order of ``enumerate_multipartitions``."""
    return [
        combo
        for sizes in compositions_of(n, shape.r)
        for combo in product(*(partitions_of(nk, max_len=mk) for nk, mk in zip(sizes, shape.m)))
    ]


def relation_words(sctx, deg):
    """(R1)-(R8), the expansions of [I_s, X_t] and two corollaries of (R1),
    in report order: the two parts of the ``schur`` suite in turn."""
    return chain(ki_relation_words(sctx, deg), x_relation_words(sctx, deg))


def verify_relations(sctx, deg=2):
    """The checks of ``relation_words`` as operator identities on every
    weight."""
    return run_relations(sctx, relation_words(sctx, deg))


def q1_relation_words(sctx, deg):
    """The q = 1 identities and the images of (L1)-(L6) in report order:
    the two relation parts of the ``q1`` suite in turn."""
    return chain(q1_l13_relation_words(sctx, deg), q1_l46_relation_words(sctx, deg))


def verify_q1(sctx, deg=2):
    """The checks of ``q1_relation_words`` as operator identities on every
    weight of a q = 1 context."""
    if not sctx.ring.q_one:
        raise ValueError("needs a q = 1 context")
    return run_relations(sctx, q1_relation_words(sctx, deg))


def memoized_functions():
    """{"module.name": function} for every function and method defined in a
    ``cycloschur`` module that has a ``cache_clear``, found by walking the
    package's modules and their classes."""
    found = {}
    for info in pkgutil.walk_packages(cycloschur.__path__, "cycloschur."):
        module = importlib.import_module(info.name)
        for value in vars(module).values():
            members = vars(value).values() if isinstance(value, type) else (value,)
            for f in members:
                if hasattr(f, "cache_clear") and f.__module__ == module.__name__:
                    found[f"{module.__name__}.{f.__qualname__}"] = f
    return found


def lie_elem_to_json(x):
    """The terms of a Lie element as JSON, in label order."""
    return [
        {"src": p, "tgt": q, "t": t, "coeff": ml_to_json(c)}
        for (p, q, t), c in x.sorted_terms()
    ]


def sympoly_to_json(poly):
    """The terms of a symmetric polynomial as JSON, in exponent order."""
    return [
        {"exponents": list(e), "coeff": ml_to_json(c)} for e, c in poly.sorted_terms()
    ]


def eval_map_over_ztau(lctx, deg_cap=2):
    """The records of ``suites.lie.verify_eval_map`` as the walk over Z[tau]
    decides them: every side is a matrix over Z[tau], read at tau = 0 only
    where the two sides differ over Z[tau], and a pair with an empty bracket
    is skipped when its Z[tau] matrices meet in no index."""
    labels = all_basis_labels(lctx, deg_cap)
    sides = _homomorphism_sides(lctx, {a: lctx.vtau_basis_matrix(a) for a in labels},
                                lctx.vtau_rep)
    positive = [g for g in generator_labels(lctx, max(deg_cap, 1)) if g[2] >= 1]
    levi = []
    for k in range(1, lctx.shape.r + 1):
        block = [pos + 1 for pos in lctx.shape.block(k)]
        levi += [(pos, pos, 0) for pos in block]
        for pos in block[:-1]:
            levi += [(pos, pos + 1, 0), (pos + 1, pos, 0)]
    shape = {"shape": lctx.shape.m}
    return [
        *_first_pair_violations([("eval-homomorphism", {**shape, "deg_cap": deg_cap})],
                                lctx, labels, lambda pairs: _differ_at([0], pairs, sides)),
        *_first_violations([("eval-kills-positive-degree", shape)], positive, _differ_at(
            [0], positive, lambda g: (lctx.vtau_basis_matrix(g), {}))),
        *_first_violations([("eval-levi-embedding", shape)], levi, _differ_at(
            [0], levi, lambda g: (lctx.vtau_basis_matrix(g),
                                  mat_unit(lctx, g[0] - 1, g[1] - 1, 1)))),
    ]
