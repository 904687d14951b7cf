"""The Schur suites: relations (R1)-(R8) with the derived commutation
expansions, the q = 1 identities with the images of (L1)-(L6), divided
powers and the highest-weight eigenvalues.  Each relation family yields
(name, params, lhs word, rhs word), and ``run_relations`` decides every
pair as an operator identity on all weights.  The ``schur`` suite has two
parts, ``run_ki`` and ``run_x``, which ``cli.run_suites`` may run in two
processes."""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import product

from .. import combinatorics as comb
from ..coeff import qfactorial, qint
from ..hecke import a_form_quotient, m_mu_witness
from ..reporting import PM, check
from ..schurops import I, K, SchurContext, X, ow, ow_commutator, ow_mul, ow_neg, ow_scale
from ..symfun import phi


def word_ktilde(ring, sign, pos):
    """tilde-K^{sign}_{(i,k)} = K^{sign}_{(i,k)} K^{-sign}_{(i+1,k)}."""
    return ow(ring, K(sign, pos), K(-sign, pos + 1))


def word_J(ring, pos, t):
    """The derived diagonal element J_{(i,k),t}, expanded into I's."""
    qq = ring.qq_comm()
    if t == 0:
        return (
            ow(ring, I(+1, pos, 0))
            + ow_neg(ow(ring, I(-1, pos + 1, 0)))
            + ow_scale(ow(ring, I(+1, pos, 0), I(-1, pos + 1, 0)), qq)
        )
    word = ow_scale(ow(ring, I(+1, pos, t)), ring.q_pow(-t))
    word += ow_neg(ow_scale(ow(ring, I(-1, pos + 1, t)), ring.q_pow(t)))
    for b in range(1, t):
        labels = I(+1, pos, t - b), I(-1, pos + 1, b)
        word += ow_neg(ow_scale(ow(ring, *labels), qq * ring.q_pow(-t + 2 * b)))
    return word


def ow_reverse(word):
    """Every label sequence of the word read backwards."""
    return tuple((c, labels[::-1]) for c, labels in word)


@lru_cache(maxsize=None)
def _qterms(ring, e, c):
    """The flat terms of c q^e (empty for c = 0), built once per ring."""
    return ring.q_pow(e).scale(c).terms


@lru_cache(maxsize=None)
def _qqterms(ring, e, c):
    """The flat terms of c (q - q^-1) q^e (empty at q = 1), built once per ring."""
    return (ring.qq_comm() * ring.q_pow(e)).scale(c).terms


def _term(c, *labels):
    """The one-term word c * labels, or the zero word when c is zero."""
    return ((c, labels),) if c else ()


def ow_twist(ring, a, b, e):
    """a b - q^e b a for single labels a, b; the commutator at e = 0."""
    return ((ring.one.terms, (a, b)), (_qterms(ring, e, -1), (b, a)))


def ow_qcomm(ring, a, b, e):
    """The q-commutator q^e a b - q^{-e} b a of single labels a, b."""
    return ((_qterms(ring, e, 1), (a, b)), (_qterms(ring, -e, -1), (b, a)))


def at_junction(ring, jk, J, d):
    """J(d) away from a junction, -Q_k J(d) + J(d + 1) at the junction k."""
    if jk is None:
        return J(d)
    return ow_scale(J(d), -ring.Q(jk)) + J(d + 1)


def run_relations(sctx, relations):
    """Decide each (name, params, lhs, rhs) on every weight, one check each.
    A relation whose (lhs, rhs) equals the previous relation's takes its
    verdict and detail instead of being decided again."""
    checks = []
    last = None
    for name, params, lhs, rhs in relations:
        if (lhs, rhs) != last:
            last = lhs, rhs
            detail = sctx.op_equal(lhs, rhs)
        checks.append(check(name, params, detail is None, detail))
    return checks


def ki_relation_words(sctx, deg):
    """(R1)-(R5) and the expansions of [I_s, X_t], the relations with a K or
    an I, in report order."""
    ring = sctx.ring
    qq = ring.qq_comm()
    gamma, gamma_prime = range(1, sctx.shape.total + 1), range(1, sctx.shape.total)
    S = T = range(deg + 1)
    w = partial(ow, ring)
    zero, one = (), w()
    comm = partial(ow_twist, ring, e=0)
    qc, qqc = partial(_qterms, ring), partial(_qqterms, ring)

    # R1
    for pos in gamma:
        yield "R1-K-inverse", {"pos": pos}, w(K(+1, pos), K(-1, pos)), one
        yield "R1-K-inverse-rev", {"pos": pos}, w(K(-1, pos), K(+1, pos)), one
        for sign in (+1, -1):
            rhs = one + ow_scale(w(I(-sign, pos, 0)), qq.scale(sign))
            params = {"pos": pos, "sign": sign}
            yield "R1-K-square", params, w(K(sign, pos), K(sign, pos)), rhs

    # R2
    for p1, p2 in product(gamma, gamma):
        if p2 >= p1:
            yield "R2-KK", {"pos": [p1, p2]}, comm(K(+1, p1), K(+1, p2)), zero
        for s1 in (+1, -1):
            for t in T:
                params = {"pos": [p1, p2], "sign": s1, "t": t}
                yield "R2-KI", params, comm(K(+1, p1), I(s1, p2, t)), zero
            if p2 < p1:
                continue
            for s2, s, t in product((+1, -1), S, T):
                params = {"pos": [p1, p2], "signs": [s1, s2], "s": s, "t": t}
                yield "R2-II", params, comm(I(s1, p1, s), I(s2, p2, t)), zero

    # R3, R4, R5 and the derived expansions; X^- is X^+ with e = a negated
    for px, pj in product(gamma_prime, gamma):
        a = sctx.cartan(px, pj)
        for xsign, t in product((+1, -1), T):
            x = X(xsign, px, t)
            params = {"x": px, "jl": pj, "xsign": xsign, "t": t}
            rhs = _term(qc(xsign * a, 1), x)
            yield "R3-KXK", params, w(K(+1, pj), x, K(-1, pj)), rhs
        for sign in (+1, -1):
            for t in T:
                for xsign in (+1, -1):
                    x, e = X(xsign, px, t), xsign * sign * a
                    yield (
                        f"R4-{PM[xsign]}",
                        {"x": px, "jl": pj, "sign": sign, "t": t},
                        ow_qcomm(ring, I(sign, pj, 0), x, e),
                        _term(qc(0, xsign * a), x),
                    )
                for s, xsign in product(S, (+1, -1)):
                    x, e = X(xsign, px, t), xsign * sign * a
                    yield (
                        f"R5-{PM[xsign]}",
                        {"x": px, "jl": pj, "sign": sign, "s": s, "t": t},
                        comm(I(sign, pj, s + 1), x),
                        ow_qcomm(ring, I(sign, pj, s), X(xsign, px, t + 1), e),
                    )
            # [I_s, X_t], s >= 1: form 1 puts each X left of its I, form 2
            # right of it and runs the q-powers the other way
            for s, t, xsign in product(range(1, deg + 2), T, (+1, -1)):
                e = xsign * sign * a
                lhs = comm(I(sign, pj, s), X(xsign, px, t))
                for form in (1, 2):
                    f = e if form == 1 else -e
                    rhs = _term(qc(f * (s - 1), xsign * a), X(xsign, px, t + s))
                    for p in range(1, s):
                        pair = (X(xsign, px, t + p), I(sign, pj, s - p))
                        pair = pair if form == 1 else pair[::-1]
                        rhs += _term(qqc(f * (p - 1), e), *pair)
                    yield (
                        f"CI-CX-{PM[xsign]}-form{form}",
                        {"x": px, "jl": pj, "sign": sign, "s": s, "t": t},
                        lhs,
                        rhs,
                    )


def x_relation_words(sctx, deg):
    """(R6)-(R8), the relations among the X, and two corollaries of (R1),
    in report order."""
    ring = sctx.ring
    qq = ring.qq_comm()
    gamma_prime = range(1, sctx.shape.total)
    S = T = U = range(deg + 1)
    w = partial(ow, ring)
    zero = ()
    comm = partial(ow_twist, ring, e=0)

    # R6
    for p1, p2, t, s in product(gamma_prime, gamma_prime, T, S):
        lhs = comm(X(+1, p1, t), X(-1, p2, s))
        if p1 != p2:
            yield "R6-offdiagonal", {"pos": [p1, p2], "t": t, "s": s}, lhs, zero
            continue
        J = partial(word_J, ring, p1)
        rhs = at_junction(ring, sctx.shape.junction(p1), J, s + t)
        rhs = ow_mul(ring, word_ktilde(ring, +1, p1), rhs)
        yield "R6-diagonal", {"pos": p1, "t": t, "s": s}, lhs, rhs

    # R7; R7-adjacent-minus is R7-adjacent-plus read backwards
    for p1 in gamma_prime:
        for sign in (+1, -1):
            for p2, t, s in product(gamma_prime, T, S):
                if p2 > p1 + 1:
                    params = {"pos": [p1, p2], "sign": sign, "t": t, "s": s}
                    lhs = comm(X(sign, p1, t), X(sign, p2, s))
                    yield "R7-far-commute", params, lhs, zero
            x = partial(X, sign, p1)
            for t, s in product(T, S):
                lhs = ow_twist(ring, x(t + 1), x(s), 2 * sign)
                rhs = ow_neg(ow_twist(ring, x(s + 1), x(t), 2 * sign))
                params = {"pos": p1, "sign": sign, "t": t, "s": s}
                yield "R7-same-index", params, lhs, rhs
        if p1 + 1 not in gamma_prime:
            continue
        for t, s, sign in product(T, S, (+1, -1)):
            x, y = partial(X, sign, p1), partial(X, sign, p1 + 1)
            lhs = ow_twist(ring, x(t + 1), y(s), -1)
            rhs = ow_twist(ring, x(t), y(s + 1), 1)
            if sign < 0:
                lhs, rhs = ow_reverse(lhs), ow_reverse(rhs)
            params = {"pos": p1, "t": t, "s": s}
            yield f"R7-adjacent-{PM[sign]}", params, lhs, rhs

    # R8 (q-Serre)
    qplus = ring.q + ring.qinv
    for p1, p2 in product(gamma_prime, gamma_prime):
        if abs(p1 - p2) != 1:
            continue
        for sign, u, s in product((+1, -1), U, S):
            for t in range(s, deg + 1):
                xs, xt, xu = X(sign, p1, s), X(sign, p1, t), X(sign, p2, u)
                anti = w(xs, xt) + w(xt, xs)
                lhs = ow_mul(ring, w(xu), anti) + ow_mul(ring, anti, w(xu))
                rhs = ow_scale(w(xs, xu, xt) + w(xt, xu, xs), qplus)
                params = {"pos": [p1, p2], "sign": sign, "s": s, "t": t, "u": u}
                yield "R8-serre", params, lhs, rhs

    # consequences of R1: the tilde-K identity and the J_0 corollary
    for pos in gamma_prime:
        ktilde, J0 = word_ktilde(ring, +1, pos), word_J(ring, pos, 0)
        lhs = ow_scale(ow_mul(ring, ktilde, J0), qq)
        rhs = ktilde + ow_neg(word_ktilde(ring, -1, pos))
        yield "wtKJ0-cleared", {"pos": pos}, lhs, rhs
        rhs = ow_neg(w(K(-1, pos), K(-1, pos), I(-1, pos + 1, 0)))
        rhs = w(I(+1, pos, 0)) + rhs
        yield "CJ0", {"pos": pos}, J0, rhs


def relation_words(sctx, deg):
    """(R1)-(R8), the expansions of [I_s, X_t] and two corollaries of (R1),
    as (name, params, lhs word, rhs word) in report order."""
    yield from ki_relation_words(sctx, deg)
    yield from x_relation_words(sctx, deg)


def verify_relations(sctx, deg=2, words=relation_words):
    """The relations of ``words``, by default (R1)-(R8) plus the derived
    commutation expansions, as operator identities on every weight."""
    return run_relations(sctx, words(sctx, deg))


def verify_q1(sctx, deg=2):
    """The q = 1 identities: trivial K, matching I^+ = I^-, and the images of
    the current-algebra relations (L1)-(L6)."""
    if not sctx.ring.q_one:
        raise ValueError("needs a q = 1 context")
    return run_relations(sctx, q1_relation_words(sctx, deg))


def q1_relation_words(sctx, deg):
    """The q = 1 identities and (L1)-(L6) as (name, params, lhs, rhs)."""
    ring = sctx.ring
    gamma, gamma_prime = range(1, sctx.shape.total + 1), range(1, sctx.shape.total)
    S = T = U = range(deg + 1)
    w = partial(ow, ring)
    zero, one = (), w()
    comm = partial(ow_twist, ring, e=0)

    def lieJ(pos, t):
        return w(I(+1, pos, t)) + ow_neg(w(I(+1, pos + 1, t)))

    for pos in gamma:
        for sign in (+1, -1):
            yield "q1-K-trivial", {"pos": pos, "sign": sign}, w(K(sign, pos)), one
        for t in range(deg + 2):
            lhs, rhs = w(I(+1, pos, t)), w(I(-1, pos, t))
            yield "q1-I-plus-minus", {"pos": pos, "t": t}, lhs, rhs
    for pos in gamma_prime:
        lhs = ow_mul(ring, word_ktilde(ring, +1, pos), word_J(ring, pos, 0))
        yield "q1-wtKJ0", {"pos": pos}, lhs, lieJ(pos, 0)
    # (L1)
    for p1, p2, s, t in product(gamma, gamma, S, T):
        if p2 >= p1:
            params = {"pos": [p1, p2], "s": s, "t": t}
            yield "q1-L1", params, comm(I(+1, p1, s), I(+1, p2, t)), zero
    # (L2)
    for px, pj, sign, s, t in product(gamma_prime, gamma, (+1, -1), S, T):
        a = sctx.cartan(px, pj)
        rhs = _term(_qterms(ring, 0, sign * a), X(sign, px, s + t))
        params = {"x": px, "jl": pj, "sign": sign, "s": s, "t": t}
        yield "q1-L2", params, comm(I(+1, pj, s), X(sign, px, t)), rhs
    # (L3)
    for p1, p2, t, s in product(gamma_prime, gamma_prime, T, S):
        lhs = comm(X(+1, p1, t), X(-1, p2, s))
        if p1 != p2:
            yield "q1-L3-offdiag", {"pos": [p1, p2], "t": t, "s": s}, lhs, zero
            continue
        rhs = at_junction(ring, sctx.shape.junction(p1), partial(lieJ, p1), s + t)
        yield "q1-L3-diag", {"pos": p1, "t": t, "s": s}, lhs, rhs
    # (L4), (L5), (L6)
    for p1, sign in product(gamma_prime, (+1, -1)):
        for p2, t, s in product(gamma_prime, T, S):
            if p2 >= p1 and p2 != p1 + 1:
                params = {"pos": [p1, p2], "sign": sign, "t": t, "s": s}
                lhs = comm(X(sign, p1, t), X(sign, p2, s))
                yield "q1-L4", params, lhs, zero
        for p2 in gamma_prime:
            if abs(p1 - p2) != 1:
                continue
            for t, s in product(T, S):
                params = {"pos": [p1, p2], "sign": sign, "t": t, "s": s}
                lhs = comm(X(sign, p1, t + 1), X(sign, p2, s))
                rhs = comm(X(sign, p1, t), X(sign, p2, s + 1))
                yield "q1-L5", params, lhs, rhs
            for s, t, u in product(S, T, U):
                params = {"pos": [p1, p2], "sign": sign, "s": s, "t": t, "u": u}
                inner = comm(X(sign, p1, t), X(sign, p2, u))
                yield "q1-L6", params, ow_commutator(ring, w(X(sign, p1, s)), inner), zero


# ---------------------------------------------------------------------------
# divided powers and highest-weight eigenvalues


def divided_power_image(sctx, pos, sign, t, d, mu):
    """(X^{sign}_t)^d(m_mu) divided by [d]! when the quotient lies in the
    A-form (integer coefficients, Laurent in q, polynomial in Q), else None."""
    if d < 1:
        raise ValueError("need d >= 1")
    value = sctx.apply_seq(tuple([X(sign, pos, t)] * d), mu)
    return a_form_quotient(value, qfactorial(d, sctx.ring))


def verify_divided_powers(sctx, dmax=3):
    """(X^{sign}_t)^d(m_mu) / [d]! lies in the A-form for t = 0, 1 and
    d <= dmax, and vanishes when d exceeds the entry that X^{sign} moves
    nodes out of.  A failed check
    carries the target weight and the first terms of the undivided image."""
    checks = []
    gamma_prime, T, D = range(1, sctx.shape.total), range(2), range(1, dmax + 1)
    for pos, sign, t, d, mu in product(gamma_prime, (+1, -1), T, D, sctx.weights):
        quotient = divided_power_image(sctx, pos, sign, t, d, mu)
        flat = comb.flatten(mu)
        cap = flat[pos] if sign > 0 else flat[pos - 1]
        params = {"pos": pos, "sign": sign, "t": t, "d": d, "mu": mu}
        ok = quotient is not None and (d <= cap or quotient.is_zero)
        detail = None
        if not ok:
            hit = sctx.table(tuple([X(sign, pos, t)] * d))[mu]
            detail = {"target_weight": [list(c) for c in hit[0]],
                      "image": m_mu_witness(sctx.hctx, *hit)}
        checks.append(check("divided-power-integral", params, ok, detail))
    return checks


def hw_eigenvalue_pair(lam_j, j, l, t, sign, ring):
    """(residue form, closed form) of the highest-weight eigenvalue of
    I^{sign}_{(j,l),t} on the Weyl module: the Phi value at the row residues
    versus the explicit q-power times a Gauss integer."""
    if lam_j == 0:
        return ring.zero, ring.zero
    args = [comb.residue((j, c, l), ring) for c in range(1, lam_j + 1)]
    poly = phi(t, lam_j, sign, ring)
    via_phi = poly.evaluate(args) * ring.q_pow(sign * (t - 1))
    # the q-power runs (2t - 1) lam_j for sign +1 and lam_j for sign -1
    e = (t - 1) * (1 + sign) * lam_j + lam_j - t * (2 * j - 1)
    closed = ring.Q(l - 1, t) * ring.q_pow(e) * qint(lam_j, ring)
    return via_phi, closed


def verify_hw_eigenvalues(ring, lam_max=5, j_max=3, t_max=4, l_values=(1, 2)):
    """The two closed forms of the highest-weight eigenvalues agree, for both
    signs (and at q = 1 when the ring pins q), at every l <= r of l_values."""
    checks = []
    L = [l for l in l_values if l <= ring.r]
    J, LAM, T = range(1, j_max + 1), range(lam_max + 1), range(t_max + 1)
    for l, j, lam_j, t, sign in product(L, J, LAM, T, (+1, -1)):
        via_phi, closed = hw_eigenvalue_pair(lam_j, j, l, t, sign, ring)
        params = {"lam_j": lam_j, "j": j, "l": l, "t": t, "sign": sign, "q_one": ring.q_one}
        checks.append(check("hw-eigenvalue", params, via_phi == closed))
    return checks


def _context(config):
    """The ``schur`` suite's SchurContext in this run: its parts that run in
    one process build it once, in ``config.shared``, which dies with the run."""
    sctx = config.shared.get("schur")
    if sctx is None:
        sctx = config.shared["schur"] = SchurContext(config.n, config.shape,
                                                     q_one=config.q1)
    return sctx


def run_ki(config):
    """Part 0 of the ``schur`` suite of ``cycloschur verify``: the relations
    with a K or an I."""
    return verify_relations(_context(config), config.deg, ki_relation_words)


def run_x(config):
    """Part 1 of the ``schur`` suite: the relations among the X, the
    divided powers and the highest-weight eigenvalues."""
    sctx = _context(config)
    checks = verify_relations(sctx, config.deg, x_relation_words)
    checks += verify_divided_powers(sctx, dmax=config.dmax)
    return checks + verify_hw_eigenvalues(sctx.ring, lam_max=4, j_max=2, t_max=3)


def run_q1(config):
    """The ``q1`` suite of ``cycloschur verify``."""
    sctx = SchurContext(config.n, config.shape, q_one=True)
    checks = verify_q1(sctx, deg=config.deg)
    return checks + verify_hw_eigenvalues(sctx.ring, lam_max=4, j_max=2, t_max=3)
