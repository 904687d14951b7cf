"""The Lie suite: antisymmetry and the Jacobi identity of the deformed
current Lie algebra, the V_tau representations, the graded comparison with
the current algebra of gl_m, and the evaluation and Levi maps.

Most pairs of labels have an empty bracket and share no index.  The pairwise
checks decide such a pair without building either side where both sides
provably vanish, and compute every other pair in full:

- ``gr-*``: with [a, b] = 0 there is no term to misplace, and with q != u
  and v != p the gl_m[x] bracket of E[p,q;s] and E[u,v;t] is zero too.
- ``*-homomorphism``: with [a, b] = 0 the image of the bracket is the zero
  matrix, and A B is zero when no column index of A is a row index of B, as
  each entry of A B pairs an entry (i, k) of A with one (k, j) of B.  The
  row and column sets are read off each label's matrix, never off the
  label, so a matrix with a wrong entry is still compared in full.

One walker, ``_first_violations``, decides the ``vtau-*``, ``eval-*`` and
``gr-*`` checks.  The vtau checks walk once over Z[tau] for all their
values of tau: where two sides agree over Z[tau] they agree at every tau.
The eval checks are decided on the V_0 images, each V_tau matrix read at
tau = 0 once per label: the bracket side is the V_0 image of the bracket,
the other the commutator of V_0 images, and the index sets are read off
the V_0 images, so a label whose V_0 image is zero, as most labels of
positive degree have, meets no index.  Evaluation at tau = 0 is a ring
map, as no tau exponent is negative, so every verdict and every named pair
is that of the walk over Z[tau] read at 0.

The walks stay in product order, so a failed check names the same first
pair as a walk that builds every pair."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product

from ..coeff import at_q
from ..liealg import (
    LieContext,
    LieElem,
    all_basis_labels,
    jacobi_defect,
    mat_commutator,
    mat_image,
    mat_unit,
    upper_pairs,
)
from ..reporting import check


def generator_labels(lctx, deg_cap):
    """The labels of the diagonal, raising and lowering generators up to
    degree deg_cap."""
    labels = []
    for t in range(deg_cap + 1):
        for pos in range(1, lctx.m + 1):
            labels.append((pos, pos, t))
        for pos in range(1, lctx.m):
            labels.append((pos, pos + 1, t))
            labels.append((pos + 1, pos, t))
    return labels


def _verdict(name, params, examined, detail=None):
    """The record of a check over some instances: failed with ``detail`` when
    one is given, else failed with ``"no instances"`` when ``examined`` is
    false, since a check over nothing shows nothing, else passed."""
    if detail is None and not examined:
        detail = "no instances"
    return check(name, params, detail is None, detail)


_violation_at = "violation at {}".format


def _antisymmetry_detail(pair):
    return f"antisymmetry violation at {pair}"


def _first_violations(checks, examined, violations, detail=_violation_at):
    """The records of ``checks``, (name, params) pairs, decided in one walk
    over their instances: ``violations`` yields (i, x) in walk order for each
    instance x at which the i-th check fails, and each check fails at its
    first x, named by ``detail(x)`` (see ``_verdict``).  The walk stops once
    every check has failed."""
    first = {}
    for i, x in violations:
        if i not in first:
            first[i] = x
            if len(first) == len(checks):
                break
    return [
        _verdict(name, params, examined, detail(first[i]) if i in first else None)
        for i, (name, params) in enumerate(checks)
    ]


def _differ_at(taus, instances, sides):
    """(i, x) for each instance x whose two matrices ``sides(x)`` over
    Z[tau] differ at ``taus[i]``, read at a tau (``at_q``) only where they
    differ over Z[tau]."""
    for x in instances:
        a, b = sides(x)
        if a != b:
            for i, tau in enumerate(taus):
                if at_q(a, tau) != at_q(b, tau):
                    yield i, x


def _first_pair_violations(checks, lctx, labels, violations, detail=_violation_at):
    """``_first_violations`` for checks of a condition on pairs of labels
    that is symmetric in the pair wherever the bracket is antisymmetric.  It
    proves antisymmetry on ``labels`` first and fails naming the first pair
    where that breaks; otherwise it walks ``violations(pairs)`` over the
    pairs (a, b) with a at or before b, whose first violation is the first
    of the whole product, as the condition holds or fails for (a, b) and
    (b, a) alike."""
    pair = lctx.antisymmetry_violation(labels)
    if pair is not None:
        return [check(name, p, False, _antisymmetry_detail(pair)) for name, p in checks]
    return _first_violations(checks, labels, violations(upper_pairs(labels)), detail)


def _homomorphism_sides(lctx, images, rep):
    """The two sides of a homomorphism check on a pair of labels (a, b):
    ``rep`` of [a, b] and the commutator of ``images[a]`` and ``images[b]``.
    A pair with an empty bracket whose matrices meet in no index,
    cols(a) & rows(b) = cols(b) & rows(a) = {}, gives two zero matrices and
    builds neither side (see the module docstring)."""
    rows, cols = {}, {}
    for a, M in images.items():
        r = c = 0
        for (i, j), _ in M:
            r |= 1 << i
            c |= 1 << j
        rows[a], cols[a] = r, c
    bracket = lctx.bracket_basis

    def sides(ab):
        a, b = ab
        br = bracket(a, b)
        if not br.terms and not (cols[a] & rows[b] or cols[b] & rows[a]):
            return {}, {}
        return rep(br), mat_commutator(lctx, images[a], images[b])

    return sides


def _jacobi_check(lctx, deg_cap, triples):
    """The ``jacobi`` check over ordered triples, naming up to three
    violations; ``triples`` counts those examined."""
    bad = []
    count = 0
    for a, b, c in triples:
        count += 1
        if not jacobi_defect(lctx, a, b, c).is_zero:
            bad.append((a, b, c))
            if len(bad) >= 3:
                break
    params = {"shape": lctx.shape.m, "deg_cap": deg_cap, "triples": count}
    return _verdict("jacobi", params, count, f"violations at {bad}" if bad else None)


def verify_jacobi(lctx, deg_cap=2, sample=None, seed=0):
    """Jacobi identity on basis triples: exhaustive when sample is None, else
    a seeded random sample of that size, drawn as ordered triples.

    The exhaustive check relies on antisymmetry of the bracket on its labels,
    which it proves first and fails naming the pair where it breaks.  The
    Jacobiator J(a, b, c) is cyclic by definition and linear in each bracket
    it takes, so with [b, a] = -[a, b] on the labels it is alternating and
    J(a, a, b) = 0: the strict triples a < b < c decide the identity.  The
    report counts the ordered triples covered, and a violation is named by
    the ordered walk, as the first ones in product order."""
    labels = all_basis_labels(lctx, deg_cap)
    if sample is not None:
        rng = random.Random(seed)
        triples = [
            (rng.choice(labels), rng.choice(labels), rng.choice(labels))
            for _ in range(sample)
        ]
        return [_jacobi_check(lctx, deg_cap, triples)]
    params = {"shape": lctx.shape.m, "deg_cap": deg_cap, "triples": len(labels) ** 3}
    pair = lctx.antisymmetry_violation(labels)
    if pair is not None:
        return [check("jacobi", params, False, _antisymmetry_detail(pair))]
    if not all(jacobi_defect(lctx, *abc).is_zero for abc in combinations(labels, 3)):
        return [_jacobi_check(lctx, deg_cap, product(labels, repeat=3))]
    return [_verdict("jacobi", params, labels)]


def verify_antisymmetry(lctx, deg_cap=2):
    labels = all_basis_labels(lctx, deg_cap)
    pair = lctx.antisymmetry_violation(labels)
    params = {"shape": lctx.shape.m, "deg_cap": deg_cap}
    detail = None if pair is None else _violation_at(pair)
    return [_verdict("bracket-antisymmetry", params, labels, detail)]


def verify_vtau(lctx, deg_cap=3, taus=(Fraction(2), Fraction(-1, 3), Fraction(5, 7))):
    """V_tau is a representation: the matrix of a bracket of generators equals
    the matrix commutator; the basis action has the expected closed form.
    Both are decided once over Z[tau] and read at each tau in ``taus`` only
    where they differ there (``_differ_at``).  The homomorphism check
    relies on antisymmetry of the bracket on the generators, which it proves
    first, to walk each unordered pair once."""
    gens = generator_labels(lctx, deg_cap)
    positions = range(1, lctx.m + 1)
    params = [{"shape": lctx.shape.m, "tau": str(tau), "deg_cap": deg_cap} for tau in taus]
    sides = _homomorphism_sides(lctx, {g: lctx.vtau_basis_matrix(g) for g in gens},
                                lctx.vtau_rep)
    homs = _first_pair_violations([("vtau-homomorphism", p) for p in params], lctx, gens,
                                  lambda pairs: _differ_at(taus, pairs, sides))
    psi = {(p, q): lctx.psi_vtau(p, q) for p in positions for q in positions}

    def closed_form(pqt):
        p, q, t = pqt
        unit = mat_unit(lctx, p - 1, q - 1, psi[p, q] * lctx.ring.q_pow(t))
        return lctx.vtau_basis_matrix(pqt), unit

    cells = list(product(positions, positions, range(deg_cap + 1)))
    closed = _first_violations([("vtau-basis-closed-form", p) for p in params], cells,
                               _differ_at(taus, cells, closed_form))
    return [c for pair in zip(homs, closed) for c in pair]


def verify_gr(lctx, deg_cap=2):
    """Filtration and the graded comparison with the current algebra: the
    lowest-degree part of [E^s_{pq}, E^t_{uv}] sits in degree exactly s + t and
    matches the gl_m[x] structure constants after the psi rescaling; all other
    terms live strictly higher.  In the one-component case there is no excess
    at all.  Each failed check names the first pair at which it failed.

    The checks rely on antisymmetry of the bracket on their labels, which
    they prove first (each fails naming the pair where it breaks): then each
    condition holds or fails for (a, b) and (b, a) alike, and the pairs with
    a at or before b are walked once.  A pair whose bracket is empty and
    whose labels share no index (q != u and v != p) passes all three, as
    both its sides are zero."""
    m = lctx.m
    psi = {
        (p, q): lctx.psi_gr(p, q) for p in range(1, m + 1) for q in range(1, m + 1)
    }
    factor = {}  # psi[p, q] * psi[u, v], built on first use
    # psi[p, q] E[p, q; d], the terms of the gl_m[x] bracket
    psi_basis = {
        (p, q, d): lctx.basis(p, q, d, psi[p, q])
        for p, q in psi
        for d in range(2 * deg_cap + 1)
    }
    one_component = lctx.shape.r == 1
    names = ["gr-filtration", "gr-leading-term"]
    if one_component:
        names.append("gr-exact-current")

    def violations(pairs):
        # (i, pair) where names[i] fails
        for pair in pairs:
            (p, q, s), (u, v, t) = pair
            br = lctx.bracket_basis(*pair)
            if not br.terms and q != u and v != p:
                continue
            lead = {}
            for term, coeff in br.terms.items():
                d = term[0][2]
                if d < s + t:
                    yield 0, pair
                elif d == s + t:
                    lead[term] = coeff
            expected = lctx.zero()
            if q == u:
                expected = expected + psi_basis[p, v, s + t]
            if v == p:
                expected = expected - psi_basis[u, q, s + t]
            f = factor.get((p, q, u, v))
            if f is None:
                f = factor[p, q, u, v] = psi[p, q] * psi[u, v]
            if LieElem(lctx, lead).scale(f) != expected:
                yield 1, pair
            if one_component and lead != br.terms:
                yield 2, pair

    params = {"shape": lctx.shape.m, "deg_cap": deg_cap}
    return _first_pair_violations([(name, params) for name in names], lctx,
                                  all_basis_labels(lctx, deg_cap), violations, str)


def verify_eval_map(lctx, deg_cap=2):
    """The evaluation onto gl_m is a Lie homomorphism, and composing with the
    Levi embedding recovers the block-diagonal inclusion.  The evaluation is
    V_0, so each check is decided on the V_0 images, each built once per
    label (see the module docstring).  The homomorphism check relies on
    antisymmetry of the bracket on its labels, which it proves first, to
    walk each unordered pair once."""
    labels = all_basis_labels(lctx, deg_cap)
    # g(X_{t>=1}) = g(I_{t>=1}) = 0, checked at degree 1 even when deg_cap is 0
    positive = [g for g in generator_labels(lctx, max(deg_cap, 1)) if g[2] >= 1]
    v0 = {}  # label -> V_0 image

    def image(label):
        M = v0.get(label)
        if M is None:
            M = v0[label] = at_q(lctx.vtau_basis_matrix(label), 0)
        return M

    sides = _homomorphism_sides(lctx, {a: image(a) for a in labels},
                                lambda x: mat_image(lctx, x, image))
    # g o iota = block-diagonal embedding on the Levi generators
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
        *_first_violations([("eval-kills-positive-degree", shape)], positive,
                           _differ_at([0], positive, lambda g: (image(g), {}))),
        *_first_violations([("eval-levi-embedding", shape)], levi, _differ_at(
            [0], levi, lambda g: (image(g), mat_unit(lctx, g[0] - 1, g[1] - 1, 1)))),
    ]


def run(config):
    """The ``lie`` suite of ``cycloschur verify``: Jacobi is exhaustive up to
    four positions and a seeded sample of 500 triples beyond."""
    lctx = LieContext(config.shape)
    checks = verify_antisymmetry(lctx, deg_cap=config.deg)
    exhaustive = config.shape.total <= 4
    checks += verify_jacobi(
        lctx,
        deg_cap=config.deg,
        sample=None if exhaustive else 500,
        seed=config.seed,
    )
    checks += verify_vtau(lctx, deg_cap=min(config.deg + 1, 3))
    checks += verify_gr(lctx, deg_cap=config.deg)
    checks += verify_eval_map(lctx, deg_cap=config.deg)
    return checks
