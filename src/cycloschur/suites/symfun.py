"""The symmetric-function suite: both recursions of Phi_t, its q = 1 limit,
the Weyl-module character formulas and the Littlewood-Richardson product
formula, with an independent Schur-expansion oracle for the LR data."""

from __future__ import annotations

from .. import combinatorics as comb
from ..coeff import LaurentRing
from ..reporting import check
from ..symfun import (SymPoly, char_product_check, embed, expand_in_schur_basis, phi, power_sum,
                      schur_poly, single_component_multipartition, weyl_character)


def verify_phi_recursions(tmax, kmax, ring):
    """Both recursive relations for Phi, all degrees t <= tmax, k <= kmax, both signs."""
    checks = []
    for sign in (1, -1):
        step = ring.q_pow(-2 * sign)
        for k in range(1, kmax + 1):
            prefix = [phi(0, s, sign, ring) for s in range(1, k + 1)]
            for t in range(0, tmax + 1):
                nxt = [phi(t + 1, s, sign, ring) for s in range(1, k + 1)]
                rhs = SymPoly.zero(ring, k)
                for s in range(1, k + 1):
                    rhs = rhs + embed(prefix[s - 1], k, range(s)).times_var(s - 1)
                for s in range(1, k):
                    rhs = rhs - embed(prefix[s - 1], k, range(s)).times_var(s).scale(step)
                ok = embed(nxt[k - 1], k, range(k)) == rhs
                checks.append(check("phi-recursion-1", {"sign": sign, "t": t, "k": k}, ok))
                if k >= 2:
                    tail_t = embed(phi(t, k - 1, sign, ring), k, range(1, k))
                    tail_t1 = embed(phi(t + 1, k - 1, sign, ring), k, range(1, k))
                    lhs2 = nxt[k - 1] - tail_t1
                    rhs2 = (prefix[k - 1] - tail_t.scale(step)).times_var(0)
                    params = {"sign": sign, "t": t, "k": k}
                    checks.append(check("phi-recursion-2", params, lhs2 == rhs2))
                prefix = nxt
    return checks


def verify_phi_q1(tmax, kmax, ring_q1):
    """At q = 1 both Phi_t^{+/-} collapse to the power sum p_t."""
    checks = []
    for sign in (1, -1):
        for k in range(1, kmax + 1):
            for t in range(1, tmax + 1):
                ok = phi(t, k, sign, ring_q1) == power_sum(t, k, ring_q1)
                checks.append(check("phi-q1-power-sum", {"sign": sign, "t": t, "k": k}, ok))
    return checks


def verify_characters(shape, nmax, ring):
    """Parts (i) and (ii) of the character proposition plus block symmetry."""
    checks = []
    nvars = shape.total
    for n in range(0, nmax + 1):
        for lam in comb.enumerate_multipartitions(n, shape):
            ch = weyl_character(lam, shape, ring)
            sym_ok = True
            for k in range(1, shape.r + 1):
                block = list(shape.block(k))
                for a, b in zip(block, block[1:]):
                    if ch.swap_vars(a, b) != ch:
                        sym_ok = False
            checks.append(check("character-block-symmetry", {"lambda": lam}, sym_ok))

            prod = SymPoly.constant(ring, nvars, ring.one)
            for k in range(1, shape.r + 1):
                single = single_component_multipartition(lam[k - 1], k, shape.r)
                ch_single = weyl_character(single, shape, ring)
                prod = prod * ch_single
                positions = [
                    slot for l in range(k, shape.r + 1) for slot in shape.block(l)
                ]
                schur = schur_poly(lam[k - 1], nvars, ring, positions=positions)
                params = {"lambda": lam, "component": k}
                checks.append(check("character-vs-schur", params, ch_single == schur))
            checks.append(check("character-factorization", {"lambda": lam}, ch == prod))
    return checks


def verify_char_products(shape, total_max, ring):
    """Part (iii): the LR product formula for all multipartition pairs with
    |lam| + |mu| <= total_max, plus the classical LR cross-check against the
    Schur-expansion oracle on every component pair encountered."""
    checks = []
    seen_partition_pairs = set()
    pairs = [
        (lam, mu)
        for n1 in range(0, total_max + 1)
        for n2 in range(0, total_max - n1 + 1)
        for lam in comb.enumerate_multipartitions(n1, shape)
        for mu in comb.enumerate_multipartitions(n2, shape)
    ]
    for lam, mu in pairs:
        report = char_product_check(lam, mu, shape, ring)
        checks.append(check("char-product-lr", {"lambda": lam, "mu": mu}, report["verified"]))
        for lk, mk in zip(lam, mu):
            seen_partition_pairs.add((comb.strip(lk), comb.strip(mk)))
    for lk, mk in sorted(seen_partition_pairs):
        ok = lr_matches_schur_oracle(lk, mk, ring)
        checks.append(check("lr-vs-schur-expansion-oracle", {"lambda": lk, "mu": mk}, ok))
    return checks


def lr_matches_schur_oracle(lam, mu, ring):
    """Independent check of classical LR coefficients: expand s_lam * s_mu in
    the Schur basis (enough variables that nothing truncates) and compare each
    coefficient with the lattice-word rule."""
    lam, mu = comb.strip(lam), comb.strip(mu)
    n = sum(lam) + sum(mu)
    k = max(n, 1)
    product = schur_poly(lam, k, ring) * schur_poly(mu, k, ring)
    expansion = expand_in_schur_basis(product, ring)
    for nu in comb.partitions_of(n):
        expected = comb.lr_coefficient((lam,), (mu,), (nu,))
        got = expansion.get(comb.strip(nu), ring.zero)
        if got != ring.from_fraction(expected):
            return False
    extras = set(expansion) - {comb.strip(nu) for nu in comb.partitions_of(n)}
    return not extras


def run(config):
    """The ``symfun`` suite of ``cycloschur verify``."""
    ring = LaurentRing(config.shape.r, q_one=config.q1)
    checks = verify_phi_recursions(4, 4, ring)
    checks += verify_phi_q1(4, 4, LaurentRing(config.shape.r, q_one=True))
    checks += verify_characters(config.shape, min(config.n, 3), ring)
    checks += verify_char_products(config.shape, min(config.n, 3), ring)
    return checks
