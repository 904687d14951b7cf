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

The V_tau checks walk once for all their values of tau, over Z[tau]:
where the two sides agree there they agree at every tau, and a pair whose
V_tau matrices meet in no index over Z[tau] meets in none at a tau.

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


def _first_violation(name, params, instances, violated):
    """One check over ``instances``: it fails at the first instance at which
    ``violated`` holds, naming it in its detail (see ``_verdict``)."""
    examined = False
    for x in instances:
        if violated(x):
            return check(name, params, False, f"violation at {x}")
        examined = True
    return _verdict(name, params, examined)


def _antisymmetry_detail(pair):
    return f"antisymmetry violation at {pair}"


def _first_violations(name, params, taus, instances, sides):
    """The checks at each value of ``taus``, with ``params[i]`` for the i-th,
    of a condition that two matrices over Z[tau] agree, decided in one walk
    over ``instances``: ``sides(x)`` gives the two matrices at x, or None
    where both are zero.  Only sides that differ over Z[tau] are read at a
    tau (``at_q``), at each tau still undecided, so each check fails at its
    first instance whose sides differ at its tau, as a walk at that tau alone
    would (see ``_verdict``)."""
    first = {}
    examined = False
    for x in instances:
        examined = True
        pair = sides(x)
        if pair is None or pair[0] == pair[1]:
            continue
        for i, tau in enumerate(taus):
            if i not in first and at_q(pair[0], tau) != at_q(pair[1], tau):
                first[i] = x
        if len(first) == len(taus):
            break
    return [
        _verdict(name, p, examined, f"violation at {first[i]}" if i in first else None)
        for i, p in enumerate(params)
    ]


def _first_pair_violations(name, params, taus, lctx, labels, sides):
    """The checks of ``_first_violations`` for a condition on pairs of labels
    that is symmetric in the pair wherever the bracket is antisymmetric.  It
    proves antisymmetry on ``labels`` first and fails naming the first pair
    where that breaks; otherwise it walks the pairs (a, b) with a at or
    before b, whose first violation is the first of the whole product, as
    the condition holds or fails for (a, b) and (b, a) alike."""
    pair = lctx.antisymmetry_violation(labels)
    if pair is not None:
        return [check(name, p, False, _antisymmetry_detail(pair)) for p in params]
    return _first_violations(name, params, taus, upper_pairs(labels), sides)


def _homomorphism_sides(lctx, rep, images):
    """The two sides of a homomorphism check on a pair of labels (a, b):
    ``rep([a, b])`` and the commutator of ``images[a]`` and ``images[b]``.
    A pair with an empty bracket whose matrices meet in no index,
    cols(a) & rows(b) = cols(b) & rows(a) = {}, gives None: both sides are
    zero, and neither is built (see the module docstring)."""
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
            return None
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
    detail = None if pair is None else f"violation at {pair}"
    return [_verdict("bracket-antisymmetry", params, labels, detail)]


def verify_vtau(lctx, deg_cap=3, taus=(Fraction(2), Fraction(-1, 3), Fraction(5, 7))):
    """V_tau is a representation: the matrix of a bracket of generators equals
    the matrix commutator; the basis action has the expected closed form.
    Both are decided once over Z[tau] and read at each tau in ``taus`` only
    where they differ there (``_first_violations``).  The homomorphism check
    relies on antisymmetry of the bracket on the generators, which it proves
    first, to walk each unordered pair once."""
    gens = generator_labels(lctx, deg_cap)
    positions = range(1, lctx.m + 1)
    params = [{"shape": lctx.shape.m, "tau": str(tau), "deg_cap": deg_cap} for tau in taus]
    rep = {g: lctx.vtau_basis_matrix(g) for g in gens}
    homs = _first_pair_violations(
        "vtau-homomorphism", params, taus, lctx, gens,
        _homomorphism_sides(lctx, lctx.vtau_rep, rep),
    )
    psi = {(p, q): lctx.psi_vtau(p, q) for p in positions for q in positions}
    closed = _first_violations(
        "vtau-basis-closed-form",
        params,
        taus,
        product(positions, positions, range(deg_cap + 1)),
        lambda pqt: (
            lctx.vtau_basis_matrix(pqt),
            mat_unit(
                lctx, pqt[0] - 1, pqt[1] - 1, psi[pqt[0], pqt[1]] * lctx.ring.q_pow(pqt[2])
            ),
        ),
    )
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
    params = {"shape": lctx.shape.m, "deg_cap": deg_cap}
    labels = all_basis_labels(lctx, deg_cap)
    broken = lctx.antisymmetry_violation(labels)
    if broken is not None:
        return [check(name, params, False, _antisymmetry_detail(broken)) for name in names]
    first = {}
    for pair in upper_pairs(labels):
        (p, q, s), (u, v, t) = pair
        br = lctx.bracket_basis(*pair)
        if not br.terms and q != u and v != p:
            continue
        lead = {}
        for term, coeff in br.terms.items():
            d = term[0][2]
            if d < s + t:
                first.setdefault("gr-filtration", pair)
            elif d == s + t:
                lead[term] = coeff
        if one_component and lead != br.terms:
            first.setdefault("gr-exact-current", pair)
        expected = lctx.zero()
        if q == u:
            expected = expected + psi_basis[p, v, s + t]
        if v == p:
            expected = expected - psi_basis[u, q, s + t]
        f = factor.get((p, q, u, v))
        if f is None:
            f = factor[p, q, u, v] = psi[p, q] * psi[u, v]
        if LieElem(lctx, lead).scale(f) != expected:
            first.setdefault("gr-leading-term", pair)
    return [
        _verdict(name, params, labels, str(first[name]) if name in first else None)
        for name in names
    ]


def verify_eval_map(lctx, deg_cap=2):
    """The evaluation onto gl_m is a Lie homomorphism, and composing with the
    Levi embedding recovers the block-diagonal inclusion.  The homomorphism
    check relies on antisymmetry of the bracket on its labels, which it
    proves first, to walk each unordered pair once.  Its matrices are V_0
    already, which reading at tau = 0 leaves as they are."""
    labels = all_basis_labels(lctx, deg_cap)
    image = {a: lctx.eval_basis_matrix(a) for a in labels}
    # g o iota = block-diagonal embedding on the Levi generators
    levi = []
    for k in range(1, lctx.shape.r + 1):
        block = [pos + 1 for pos in lctx.shape.block(k)]
        levi += [(pos, pos, 0) for pos in block]
        for pos in block[:-1]:
            levi += [(pos, pos + 1, 0), (pos + 1, pos, 0)]
    return [
        *_first_pair_violations(
            "eval-homomorphism",
            [{"shape": lctx.shape.m, "deg_cap": deg_cap}],
            [0],
            lctx,
            labels,
            _homomorphism_sides(lctx, lctx.eval_map, image),
        ),
        # g(X_{t>=1}) = g(I_{t>=1}) = 0, checked at degree 1 even when deg_cap is 0
        _first_violation(
            "eval-kills-positive-degree",
            {"shape": lctx.shape.m},
            [g for g in generator_labels(lctx, max(deg_cap, 1)) if g[2] >= 1],
            lambda g: lctx.eval_basis_matrix(g) != {},
        ),
        _first_violation(
            "eval-levi-embedding",
            {"shape": lctx.shape.m},
            levi,
            lambda g: lctx.eval_map(lctx.basis(*g))
            != mat_unit(lctx, g[0] - 1, g[1] - 1, 1),
        ),
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
