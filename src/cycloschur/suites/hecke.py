"""The Hecke-engine suite: the Jucys-Murphy normal form, the commutation
lemma for T_i against L_j, the m_mu and bracket identities and the divided
brackets with their cofactors.  The identities m_mu X = m_mu Y, m_mu T_i =
q m_mu among them, are decided and reported by ``hecke.m_mu_witness`` on
X - Y, which is built from the small factors once per distinct input of a
``verify_*`` call."""

from __future__ import annotations

from itertools import product

from .. import combinatorics as comb
from ..hecke import (HeckeContext, bracket_cofactor, in_window, m_mu_witness, phi_jm,
                     stacked_bracket, t_bracket, t_chain, t_paren, t_paren_factorial)
from ..reporting import PM, check


def word_built_jm(ctx):
    """L_1, ..., L_n multiplied out from their defining words in the T
    generators, L_j = T_{j-1} ... T_1 T_0 T_1 ... T_{j-1}."""
    return {j: ctx.Tword(range(j - 1, 0, -1)) * ctx.T(0) * ctx.Tword(range(1, j))
            for j in range(1, ctx.n + 1)}


def verify_jm_normal_form(ctx):
    checks = []
    built = word_built_jm(ctx)
    for j in range(1, ctx.n + 1):
        checks.append(check("jm-normal-form", {"j": j}, built[j] == ctx.L(j)))
    if ctx.n >= 2:
        T0, T1 = ctx.T(0), ctx.T(1)
        ok = T0 * T1 * T0 * T1 == T1 * T0 * T1 * T0
        checks.append(check("affine-braid-T0T1T0T1", {}, ok))
    return checks


def verify_commute_LT(ctx, tmax=4):
    """Lemma parts (i)-(v) about T_i versus Jucys-Murphy elements, with the
    L's built from their defining words."""
    checks = []
    built = word_built_jm(ctx)
    qq = ctx.ring.qq_comm()

    def lpow(j, t):
        out = ctx.one()
        for _ in range(t):
            out = out * built[j]
        return out

    for j in range(1, ctx.n + 1):
        for jj in range(j, ctx.n + 1):
            ok = built[j] * built[jj] == built[jj] * built[j]
            checks.append(check("commute-LT-i", {"i": j, "j": jj}, ok))
    for i in range(1, ctx.n):
        Ti = ctx.T(i)
        for j in range(1, ctx.n + 1):
            if j not in (i, i + 1):
                ok = Ti * built[j] == built[j] * Ti
                checks.append(check("commute-LT-ii", {"i": i, "j": j}, ok))
        prod = built[i] * built[i + 1]
        tot = built[i] + built[i + 1]
        checks.append(check("commute-LT-iii-product", {"i": i}, Ti * prod == prod * Ti))
        checks.append(check("commute-LT-iii-sum", {"i": i}, Ti * tot == tot * Ti))
        for t in range(1, tmax + 1):
            # L_a^t T_i = T_i L_b^t + sign (q - q^-1) sum_{s=1}^t L_{i+1}^s L_i^{t-s}
            cross = ctx.zero()
            for s in range(1, t + 1):
                cross = cross + lpow(i + 1, s) * lpow(i, t - s)
            for name, a, b, sign in (("commute-LT-iv", i + 1, i, 1),
                                     ("commute-LT-v", i, i + 1, -1)):
                ok = lpow(a, t) * Ti == Ti * lpow(b, t) + cross.scale(qq.scale(sign))
                checks.append(check(name, {"i": i, "t": t}, ok))
    return checks


def young_generators(mu):
    """1-based indices i with s_i in the Young subgroup S_mu."""
    flat = comb.flatten(mu)
    gens = []
    off = 0
    for part in flat:
        for i in range(off + 1, off + part):
            gens.append(i)
        off += part
    return gens


def verify_m_mu_T(ctx, shape):
    """m_mu T_i = q m_mu for each s_i in S_mu, decided on T_i - q."""
    q = ctx.scalar(ctx.ring.q)
    diffs = {i: ctx.T(i) - q for i in range(1, ctx.n)}
    return [_mm_check("m-mu-T", {"mu": mu, "i": i}, ctx, mu, diffs[i])
            for mu in comb.enumerate_compositions(ctx.n, shape)
            for i in young_generators(mu)]


def verify_L_commutes_bracket(ctx):
    checks = []
    for N in range(0, ctx.n + 1):
        for mu in range(0, ctx.n + 1):
            brackets = {sign: t_bracket(ctx, N, mu, sign) for sign in (+1, -1)}
            for i in range(1, ctx.n + 1):
                Li = ctx.L(i)
                for sign, br in brackets.items():
                    # L_i commutes with the bracket for i outside (lo, hi]
                    lo, hi = sorted((N, N + sign * mu))
                    if not lo < i <= hi:
                        name = f"L-commutes-bracket-{PM[sign]}"
                        ok = Li * br == br * Li
                        checks.append(check(name, {"i": i, "N": N, "mu": mu}, ok))
    return checks


def verify_bracket_com_rel(ctx):
    checks = []
    ring = ctx.ring
    n = ctx.n
    for N in range(0, n + 1):
        for mu in range(3, n + 1):
            for sign, name in ((+1, "bracket-com-rel-i"), (-1, "bracket-com-rel-ii")):
                if in_window(n, N, mu, sign):
                    a = t_chain(ctx, N + 2 * sign, mu - 2, sign).scale(ring.q_pow(mu - 2))
                    b = t_chain(ctx, N + sign, mu - 1, sign).scale(ring.q_pow(mu - 1))
                    c = t_chain(ctx, N + sign, mu - 2, sign).scale(ring.q_pow(mu - 2))
                    checks.append(check(name, {"N": N, "mu": mu}, a * b == b * c))
    for sign in (+1, -1):
        for N in range(0, n + 1):
            for mu in range(1, n + 1):
                if not in_window(n, N, mu + 1, sign):
                    continue
                word = t_chain(ctx, N + sign, mu, sign).scale(ring.q_pow(mu))
                for c in range(1, mu + 1):
                    lhs = t_bracket(ctx, N + sign, c, sign) * word
                    rhs = word * t_bracket(ctx, N, c, sign)
                    name = f"bracket-com-rel-iii-{PM[sign]}"
                    checks.append(check(name, {"N": N, "mu": mu, "c": c}, lhs == rhs))
    return checks


def verify_divided_brackets(ctx, dmax=3):
    """Each stacked bracket equals (T;N,d)^{sign}! times its cofactor, the
    zero cofactor when mu < d or the bracket is zero; it vanishes when
    mu < d or its window leaves 0..n, and else matches its expansion."""
    checks = []
    ring = ctx.ring
    n = ctx.n
    for sign, N, mu, d in product((+1, -1), range(n + 1), range(n + 1), range(1, dmax + 1)):
        params = {"sign": sign, "N": N, "mu": mu, "d": d}
        direct = stacked_bracket(ctx, N, mu, d, sign)
        h = ctx.zero() if mu < d or direct.is_zero else bracket_cofactor(ctx, N, mu, d, sign)
        recon = t_paren_factorial(ctx, N, d, sign) * h
        checks.append(check("divided-bracket-cofactor", params, recon == direct))
        if mu < d:
            checks.append(check("divided-bracket-vanishing", params, direct.is_zero))
            continue
        if not in_window(n, N, mu, sign):
            checks.append(check("divided-bracket-out-of-range", params, direct.is_zero))
            continue
        rhs = stacked_bracket(ctx, N, d - 1, d - 1, sign)
        for hh in range(1, mu - d + 1):
            word = t_chain(ctx, N + sign * d, hh, sign)
            rhs = rhs + (
                word * stacked_bracket(ctx, N, d + hh - 1, d - 1, sign)
            ).scale(ring.q_pow(hh))
        rhs = t_paren(ctx, N, d, sign) * rhs
        checks.append(check("divided-bracket-expansion", params, direct == rhs))
    return checks


def _mm_check(name, params, ctx, mu, diff):
    """Record m_mu X == m_mu Y from diff = X - Y; a failure's detail is
    ``m_mu_witness``, the first three terms of m_mu (X - Y)."""
    witness = m_mu_witness(ctx, mu, diff)
    detail = None if witness is None else {"lhs_minus_rhs": witness}
    return check(name, params, witness is None, detail)


def _lt_difference(ctx, sign, N, p, t):
    """The m-mu-L-T difference L_j^t [T; N, p]^sign - c Phi_t^{-sign} at the
    p Jucys-Murphy elements L_j, L_{j+sign}, ...: j = N and c = q^{2p-2} for
    sign -1 (m-mu-L-T-i), j = N + 1 and c = 1 for sign +1 (m-mu-L-T-ii)."""
    j = N if sign < 0 else N + 1
    lnt = ctx.one() if t == 0 else ctx.L(j, t)
    head = ctx.ring.q_pow(2 * p - 2) if sign < 0 else ctx.ring.one
    return lnt * t_bracket(ctx, N, p, sign) - phi_jm(
        ctx, t, -sign, list(range(j, j + sign * p, sign))
    ).scale(head)


def verify_m_mu_L_T(ctx, shape, tmax=3):
    """m_mu L^t times a one-sided bracket equals a q-power times m_mu Phi.
    The difference depends on mu only through (sign, N, p, t), so each is
    built once per call."""
    checks = []
    diffs = {}
    for mu in comb.enumerate_compositions(ctx.n, shape):
        flat = comb.flatten(mu)
        for pos in shape.positions():
            N = comb.jm_position(mu, shape.node(pos), shape)
            succ = flat[pos] if pos < shape.total else 0
            for sign, name, size in ((-1, "m-mu-L-T-i", flat[pos - 1]),
                                     (+1, "m-mu-L-T-ii", succ)):
                for t in range(0, tmax + 1):
                    for p in range(1, size + 1):
                        key = (sign, N, p, t)
                        diff = diffs.get(key)
                        if diff is None:
                            diff = diffs[key] = _lt_difference(ctx, *key)
                        params = {"mu": mu, "pos": pos, "t": t, "p": p}
                        checks.append(_mm_check(name, params, ctx, mu, diff))
    return checks


ETC_FAMILIES = ("m-mu-L-T-etc-i", "m-mu-L-T-etc-ii", "m-mu-L-T-etc-iii", "m-mu-L-T-etc-iv")


def _etc_differences(ctx, N, mi, mi1, t):
    """The four differences X - Y of the m-mu-L-T-etc families at the
    Jucys-Murphy position N with entries mi, mi1 and power t, in the order
    of ``ETC_FAMILIES``; None where a relation does not apply (i and ii need
    mi != 0, iii and iv need mi1 != 0)."""
    ring = ctx.ring
    qq = ring.qq_comm()
    one = ctx.one()
    dec = list(range(N, N - mi, -1))
    inc = list(range(N + 1, N + mi1 + 1))
    cross_q = qq * ring.q_pow(2 * mi - 1)
    # L_N^t only exists for N >= 1; every use below is guarded by mi != 0 or
    # by a vanishing bracket difference when N = 0
    lnt = one if (t == 0 or N == 0) else ctx.L(N, t)
    diff1 = diff2 = diff3 = diff4 = None
    if mi1 != 0:
        b_minus1 = t_bracket(ctx, N + 1, mi + 1, -1)
        b_plus0 = t_bracket(ctx, N, mi1, +1)
        tail = lnt * (b_minus1 - one) * b_plus0
    if mi != 0:
        b_plus = t_bracket(ctx, N - 1, mi1 + 1, +1)
        b_minus = t_bracket(ctx, N, mi, -1)
        diff1 = lnt * b_plus * b_minus - phi_jm(ctx, t, +1, dec).scale(ring.q_pow(2 * mi - 2))
        if mi1 != 0:
            diff1 = diff1 - tail

        diff2 = lnt * b_plus * ctx.L(N) * b_minus - phi_jm(
            ctx, t + 1, +1, dec
        ).scale(ring.q_pow(2 * mi - 2))
        if mi1 != 0:
            diff2 = diff2 + (
                phi_jm(ctx, t, +1, dec) * phi_jm(ctx, 1, -1, inc)
            ).scale(cross_q)
        b_plus_tail = b_plus - one
        if not b_plus_tail.is_zero:  # only when mi1 >= 1, so N+1 <= n
            diff2 = diff2 - lnt * ctx.L(N + 1) * b_plus_tail * b_minus
    if mi1 != 0:
        l_next = ctx.L(N + 1)
        middle = b_minus1 * (ctx.L(N + 1, t) if t else one) * b_plus0
        head = ring.q_pow(2 * mi) if t else ring.one
        diff3 = middle - phi_jm(ctx, t, -1, inc).scale(head) - tail
        diff4 = l_next * middle - phi_jm(ctx, t + 1, -1, inc).scale(head) - l_next * tail
        for b in range(1, t):
            low = phi_jm(ctx, t - b, +1, dec)
            diff3 = diff3 - (low * phi_jm(ctx, b, -1, inc)).scale(cross_q)
            diff4 = diff4 - (low * phi_jm(ctx, b + 1, -1, inc)).scale(cross_q)
    return diff1, diff2, diff3, diff4


def verify_m_mu_L_T_etc(ctx, shape, tmax=2):
    """The four mixed-bracket expansions feeding the commutator of raising and
    lowering Schur generators.  The differences depend on mu only through
    (N, m_i, m_{i+1}, t), so each set is built once per call."""
    checks = []
    diffs = {}
    for mu in comb.enumerate_compositions(ctx.n, shape):
        flat = comb.flatten(mu)
        for pos in range(1, shape.total):
            N = comb.jm_position(mu, shape.node(pos), shape)
            for t in range(0, tmax + 1):
                key = (N, flat[pos - 1], flat[pos], t)
                found = diffs.get(key)
                if found is None:
                    found = diffs[key] = _etc_differences(ctx, *key)
                params = {"mu": mu, "pos": pos, "t": t}
                for name, diff in zip(ETC_FAMILIES, found):
                    if diff is not None:
                        checks.append(_mm_check(name, params, ctx, mu, diff))
    return checks


def verify_hecke(ctx, shape, t_comm=4, t_mmult=3, t_etc=2, dmax=3):
    """The full Hecke-engine suite for one (n, r, m) configuration."""
    checks = []
    checks += verify_jm_normal_form(ctx)
    checks += verify_commute_LT(ctx, tmax=t_comm)
    checks += verify_m_mu_T(ctx, shape)
    checks += verify_L_commutes_bracket(ctx)
    checks += verify_bracket_com_rel(ctx)
    checks += verify_divided_brackets(ctx, dmax=dmax)
    checks += verify_m_mu_L_T(ctx, shape, tmax=t_mmult)
    checks += verify_m_mu_L_T_etc(ctx, shape, tmax=t_etc)
    return checks


def run(config):
    """The ``hecke`` suite of ``cycloschur verify``."""
    ctx = HeckeContext(config.n, config.shape.r, q_one=config.q1)
    return verify_hecke(ctx, config.shape, dmax=config.dmax)
