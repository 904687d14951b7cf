"""Ariki-Koike algebra engine.

Elements are kept in the Bernstein-type normal form of the affine model:
finite sums of L_1^{c_1} ... L_n^{c_n} T_w with c_j >= 0 unbounded and w a
permutation, and NO cyclotomic reduction.  Every product comes down to
left multiplications by T_i (``lmul_gen``), which push T_i rightward past
the L monomial with the Jucys-Murphy commutation rules and reduce the T
suffix by standard Iwahori-Hecke multiplication; T_0 is L_1.  Equality of
normal forms implies equality in the cyclotomic quotient, and every
identity the verification suites check is expected to hold already in this
model (the suites would expose it if one did not).

An element is one flat dict {(w, key): coefficient}, the (head, key)
layout of ``liealg`` and ``symfun`` terms with the permutation w as head:
the coefficient is an ``int``, or a ``Fraction`` when it is not integral,
never zero, and ``key`` is one ``int`` packing the exponents of the monomial
L_1^{c_1} ... L_n^{c_n} q^{e} Q_0^{f_0} ... Q_{r-1}^{f_{r-1}}.  The L
exponents have the n lowest slots of the ``coeff`` packing (L_1 lowest),
and the ring part above them is a ``MultiLaurent`` key as it is, shifted by
16n bits.  Every exponent lies in [-8192, 8191], and a key formed out of
that range raises ``EngineError``.  Products therefore add keys and
multiply integers and allocate no ``MultiLaurent``.  A shifted, scaled
copy of an element's terms (by a central scalar, a power of L_j, a power of
q in the coset sweep) is added by ``coeff._acc_scaled``, as for the other
flat elements; the products by T_i and T_w keep their own loops.  At the
boundary, where ``HeckeContext.from_grouped`` (behind ``term``),
``HeckeElem.scale`` and ``HeckeElem.grouped`` (behind ``sorted_terms``,
``m_mu_witness`` and ``repr``) meet a ``MultiLaurent``, a ring key moves in
with ``key << 16n`` and out with ``key >> 16n``; ``phi_jm`` moves the keys
of a flat ``SymPoly`` in the same way.  ``a_form_quotient`` divides by a
polynomial in q on the flat keys, rewriting their q slot, and builds no
``MultiLaurent`` either.

A product a * b pushes b through T_w for each w in the support of a, and
``HeckeContext._pushes`` keeps each push T_w * b by content (w, b) for the
life of the context, so the right factors that the Schur tables multiply
again and again are pushed once.  The bracket builders (``t_chain``,
``t_bracket``, ``t_paren``, ``t_paren_factorial``, ``bracket_cofactor`` and
``phi_jm``) keep what they build in ``HeckeContext._built``, one dict keyed
by (builder, integer arguments) (``_built_once``), so the Hecke suite and
``schurops.apply_gen`` build each bracket once per context and share it.

The cyclic generators m_mu are never multiplied in as elements:
``m_mu_mul`` applies their factors to the right operand, the coset sweep of
``x_mu_mul`` per Young-subgroup level and a key shift per (L_i - Q_k), and
m_mu itself is never built.  Every m_mu verdict is decided in one place, on
x_mu * D: whether m_mu kills D in ``m_mu_kills``, for every m_mu identity of
the Hecke suite (m_mu T_i = q m_mu among them) and the Schur block verdicts
alike, and whether m_mu * D / [d]! lies in the A-form in ``m_mu_divides``,
for the divided powers.  Both read x_mu * D on one route, ``_x_mu_route``:
the coset sweep when that takes fewer than three ``lmul_gen`` passes, and
otherwise the right-coset collapse sums of ``iota(D)``, ``iota`` the
anti-involution with iota(T_w) = T_{w^-1} that fixes every L_j.  What a
failed m_mu identity reports is written once too, in ``m_mu_witness``: the
first three terms of m_mu * D.
"""

from __future__ import annotations

import heapq
from functools import lru_cache, wraps

from . import combinatorics as comb
from . import symfun
from .coeff import (
    _BIAS,
    _GUARD,
    _MASK,
    _W,
    EngineError,
    HeadTerms,
    LaurentRing,
    MultiLaurent,
    _acc_scaled,
    _clean,
    _divexact_univariate,
    _overflow,
    _pack,
    _slots,
    _unpack,
    ml_to_json,
)


def perm_id(n):
    return tuple(range(n))


def reduced_word(w):
    """A reduced word w = s_{i_1} ... s_{i_p} with 1-based generator indices."""
    w = list(w)
    rev = []
    done = False
    while not done:
        done = True
        for i in range(len(w) - 1):
            if w[i] > w[i + 1]:
                w[i], w[i + 1] = w[i + 1], w[i]
                rev.append(i + 1)
                done = False
                break
    return tuple(reversed(rev))


class HeckeContext:
    """Fixes n, the parameter count r, and the coefficient ring."""

    def __init__(self, n, r, q_one=False):
        self.n = n
        self.r = r
        self.ring = LaurentRing(r, q_one=q_one)
        self._id = perm_id(n)
        self._zero_c = (0,) * n
        self._kills = {}  # (young_parts(mu), D) -> m_mu * D == 0
        self._pushes = {}  # (w, b) -> T_w * b for w != id, see ``_push``
        self._built = {}  # (builder, *int arguments) -> element, see ``_built_once``
        # a ring key sits above the n L slots
        sh = self._ring_shift = _W * n
        self._origin = _slots(_BIAS, n) + (self.ring.origin << sh)  # key of 1
        self._guard = _slots(_GUARD, n) + (self.ring.guard << sh)
        # key step of q^1; 0 at q = 1, where no (q - q^{-1}) term is emitted
        self._qstep = 0 if q_one else 1 << sh

    def from_grouped(self, terms):
        """The element with terms {(c, w): MultiLaurent}, each coefficient in
        the ring's variables."""
        flat = {}
        for (c, w), coeff in terms.items():
            if coeff.nvars != self.ring.nvars:
                raise ValueError("mixed variable arities")
            base = _slots(_BIAS, self.n) + _pack(c)
            for key, x in coeff.terms.items():
                flat[(tuple(w), base + (key << self._ring_shift))] = x
        return HeckeElem(self, flat)

    # -- constructors -------------------------------------------------------

    def from_terms(self, out):
        """The element of a term dict summed by ``HeckeElem.accumulate``,
        which leaves it zero-free."""
        return HeckeElem(self, out)

    def zero(self):
        return HeckeElem(self, {})

    def one(self):
        return HeckeElem(self, {(self._id, self._origin): 1})

    def term(self, c, w, coeff):
        return self.from_grouped({(tuple(c), tuple(w)): coeff})

    def L(self, j, e=1):
        """The Jucys-Murphy monomial L_j^e (1 <= j <= n)."""
        if not 1 <= j <= self.n:
            raise ValueError(f"L_{j} out of range")
        c = list(self._zero_c)
        c[j - 1] = e
        return self.term(c, self._id, self.ring.one)

    def T(self, i):
        """Generator T_i; T_0 is the same element as L_1."""
        if i == 0:
            return self.L(1)
        if not 1 <= i <= self.n - 1:
            raise ValueError(f"T_{i} out of range")
        w = list(self._id)
        w[i - 1], w[i] = w[i], w[i - 1]
        return self.term(self._zero_c, w, self.ring.one)

    def Tword(self, gens):
        """Product T_{i_1} ... T_{i_p} of braid generators (each 1 <= i <= n-1),
        its letters applied right to left by ``lmul_gen``."""
        out = self.one()
        for i in reversed(tuple(gens)):
            if not 1 <= i <= self.n - 1:
                raise ValueError(f"T_{i} out of range")
            out = self.lmul_gen(i, out)
        return out

    def scalar(self, coeff):
        return self.term(self._zero_c, self._id, coeff)

    # -- core multiplication ------------------------------------------------

    def lmul_gen(self, i, elem):
        """Left multiplication by T_i (1 <= i <= n-1)."""
        out = {}
        get = out.get
        qstep = self._qstep
        guard = self._guard
        sh = _W * (i - 1)
        # adding swap moves one unit of exponent from L_i to L_{i+1}
        swap = (1 << (sh + _W)) - (1 << sh)
        for (w, key), coeff in elem.terms.items():
            # d = c_i - c_{i+1}; T_i commutes with (L_i L_{i+1})^min and
            # T_i L^c = L^{s_i c} T_i + (q - q^{-1}) terms between the two
            d = ((key >> sh) & _MASK) - ((key >> (sh + _W)) & _MASK)
            e1 = key + d * swap
            self._acc_T_left(out, i, e1, w, coeff)
            if d and qstep:
                if (key + qstep) & guard or (key - qstep) & guard:
                    raise _overflow()
                if d > 0:
                    # T_i L_i^d = L_{i+1}^d T_i - (q - q^{-1}) sum_{s<d} L_{i+1}^{d-s} L_i^s
                    k, step, c = e1, -swap, -coeff
                else:
                    # T_i L_{i+1}^-d = L_i^-d T_i
                    #                  + (q - q^{-1}) sum_{1<=s<=-d} L_i^{-d-s} L_{i+1}^s
                    k, step, c = e1 + swap, swap, coeff
                for _ in range(abs(d)):
                    kp = (w, k + qstep)
                    km = (w, k - qstep)
                    out[kp] = get(kp, 0) + c
                    out[km] = get(km, 0) - c
                    k += step
        return HeckeElem(self, _clean(out))

    def _acc_T_left(self, out, i, key, w, coeff):
        # T_i T_w in normal form
        p1 = w.index(i - 1)
        p2 = w.index(i)
        w2 = list(w)
        w2[p1], w2[p2] = i, i - 1
        k = (tuple(w2), key)
        out[k] = out.get(k, 0) + coeff
        qstep = self._qstep
        if p1 > p2 and qstep:
            # (q - q^{-1}) coeff L^c T_w: two terms, none at q = 1
            if (key + qstep) & self._guard or (key - qstep) & self._guard:
                raise _overflow()
            kp = (w, key + qstep)
            km = (w, key - qstep)
            out[kp] = out.get(kp, 0) + coeff
            out[km] = out.get(km, 0) - coeff

    def mul(self, a, b):
        """a * b: for each w in the support of a, T_w * b (``_push``) times
        the L-monomials and scalars of a's terms at w, which only add keys."""
        if a.ctx is not b.ctx:
            raise ValueError("elements from different contexts")
        if not a.terms or not b.terms:
            return self.zero()
        guard = self._guard
        origin = self._origin
        by_w = {}
        for (w, key), coeff in a.terms.items():
            by_w.setdefault(w, []).append((key - origin, coeff))
        out = {}
        get = out.get
        for w, pairs in by_w.items():
            pushed = b if w == self._id else self._push(w, b)
            for (w2, key2), coeff2 in pushed.terms.items():
                for shift, coeff in pairs:
                    key = shift + key2
                    if key & guard:
                        raise _overflow()
                    k = (w2, key)
                    out[k] = get(k, 0) + coeff * coeff2
        return HeckeElem(self, _clean(out))

    def _push(self, w, b):
        """T_w * b for w != id, memoized in ``_pushes`` by content (w, b).
        With i the first letter of a reduced word of w, T_w = T_i T_{s_i w}
        and s_i w is one letter shorter, so a miss is one ``lmul_gen`` on the
        memoized push of s_i w, and the push of every tail of the word is
        kept too.  The memo lives and dies with the context."""
        key = (w, b)
        pushed = self._pushes.get(key)
        if pushed is None:
            i = reduced_word(w)[0]
            # s_i w: the values i - 1 and i of w swapped
            rest = list(w)
            p1, p2 = w.index(i - 1), w.index(i)
            rest[p1], rest[p2] = i, i - 1
            rest = tuple(rest)
            inner = b if rest == self._id else self._push(rest, b)
            pushed = self._pushes[key] = self.lmul_gen(i, inner)
        return pushed


class HeckeElem(HeadTerms):
    """Normal-form element: dict {(permutation, packed exponent key):
    nonzero int or Fraction coefficient} (see the module docstring).
    Instances are immutable by convention: the hash is computed once, on
    first use, and kept."""

    __slots__ = ("ctx", "terms", "_hash")

    def __init__(self, ctx, terms):
        # terms must already be zero-free, with integral values as ints
        self.ctx = ctx
        self.terms = terms

    def _like(self, terms):
        return HeckeElem(self.ctx, terms)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = h = hash(frozenset(self.terms.items()))
            return h

    def __mul__(self, other):
        return self.ctx.mul(self, other)

    def accumulate(self, terms, out, sign=1):
        """Add sign * c * (this element) into the term dict ``out``, c the
        ring element with the flat terms ``terms`` (``MultiLaurent.terms``,
        or an operator word coefficient): each of its terms is a shift of
        every key.  ``out`` stays zero-free, and ``HeckeContext.from_terms``
        makes the element of the sum."""
        ctx = self.ctx
        origin, sh, guard = ctx.ring.origin, ctx._ring_shift, ctx._guard
        for key, c in terms.items():
            _acc_scaled(out, self.terms, (key - origin) << sh, sign * c, guard)

    def scale(self, coeff):
        """The element times a central scalar of the ring
        (``LaurentRing.scalar_terms``)."""
        out = {}
        self.accumulate(self.ctx.ring.scalar_terms(coeff), out)
        return HeckeElem(self.ctx, out)

    def shift_L(self, j, e):
        """The element times L_j^e."""
        if not 1 <= j <= self.ctx.n:
            raise ValueError(f"L_{j} out of range")
        out = {}
        _acc_scaled(out, self.terms, _pack((e,), j - 1), 1, self.ctx._guard)
        return HeckeElem(self.ctx, out)

    def grouped(self):
        """The terms as {(L-exponents, permutation): MultiLaurent}."""
        ctx = self.ctx
        sh = ctx._ring_shift
        out = {}
        for (w, key), coeff in self.terms.items():
            out.setdefault((_unpack(key, ctx.n), w), {})[key >> sh] = coeff
        nvars = ctx.ring.nvars
        return {k: MultiLaurent._make(nvars, v) for k, v in out.items()}

    def __repr__(self):
        if not self.terms:
            return "HeckeElem(0)"
        bits = []
        for (c, w), coeff in self.sorted_terms():
            ls = "".join(f"L{j + 1}^{e}" for j, e in enumerate(c) if e)
            perm = "id" if w == self.ctx._id else "w" + str(tuple(x + 1 for x in w))
            bits.append(f"({coeff!r}) {ls or '1'}.{perm}")
        return " + ".join(bits)


HeckeElem._space = HeckeElem.ctx


def a_form_quotient(elem, g):
    """elem / g for a nonzero g in q alone, when the quotient lies in the
    A-form (integer coefficients, no negative Q exponent), else None.  Each
    group of terms with one (key less its q slot, w), a Laurent polynomial
    in q, is divided by g.  The Q exponents stay, so they are tested on the
    group key: a valid slot holds exponent + bias < 2 * bias, so the
    exponent is nonnegative exactly when the slot's bias bit is set."""
    ctx, ring = elem.ctx, elem.ctx.ring
    gq = {}
    for key, c in g.terms.items():
        if key >> _W != ring.origin >> _W:
            raise ValueError("the divisor must be a polynomial in q alone")
        gq[(key & _MASK) - _BIAS] = c
    if not gq:
        raise ValueError("division by zero")
    sh = ctx._ring_shift
    q_slot, q_origin = _MASK << sh, _BIAS << sh
    q_bias = _slots(_BIAS, ring.r) << (sh + _W)
    groups = {}
    for (w, key), c in elem.terms.items():
        head = key & ~q_slot
        if head & q_bias != q_bias:
            return None
        groups.setdefault((w, head), {})[((key >> sh) & _MASK) - _BIAS] = c
    out = {}
    for (w, head), poly in groups.items():
        quotient = _divexact_univariate(poly, gq)
        if quotient is None:
            return None
        for e, c in quotient.items():
            if type(c) is not int:
                return None
            out[(w, head + q_origin + _pack((e,), ctx.n))] = c
    return HeckeElem(ctx, out)


# ---------------------------------------------------------------------------
# the m_mu generators and the bracket elements


@lru_cache(maxsize=None)
def young_parts(mu):
    """The block sizes of the Young subgroup S_mu: the nonzero parts of the
    flattened composition, in order; built once per weight."""
    return tuple(part for part in comb.flatten(mu) if part)


def x_mu_mul(ctx, parts, D):
    """x_mu * D, x_mu the sum over w in S_mu of q^{l(w)} T_w for the Young
    subgroup with the ordered block sizes ``parts`` (``young_parts``).  Each
    block is applied one level k = 2..part at a time as
    x_{S_k} = sum_{j<=k} q^{k-j} T_j ... T_{k-1} x_{S_{k-1}}, the minimal left
    coset representatives of S_{k-1} in S_k (k - 1 ``lmul_gen`` calls)."""
    qstep, guard = ctx._qstep, ctx._guard
    off = 0
    for part in parts:
        for k in range(2, part + 1):
            out = dict(D.terms)
            z = D
            for j in range(k - 1, 0, -1):
                z = ctx.lmul_gen(off + j, z)
                _acc_scaled(out, z.terms, (k - j) * qstep, 1, guard)
            D = HeckeElem(ctx, out)
        off += part
    return D


def m_mu_mul(ctx, mu, D):
    """m_mu * D through the factors of m_mu = x_mu * lprod, never expanding
    m_mu: ``x_mu_mul``, then lprod = prod_{k<r} prod_{i<=a_k} (L_i - Q_k),
    r = len(mu) the component count.
    lprod commutes with x_mu (it is symmetric in L_1..L_{a_k} and S_mu
    preserves 1..a_k), so it is applied after x_mu, each factor as a shift of
    L_i minus a shift of Q_k: a left multiplication by L_i only adds to the
    exponent key.  Applying the L factors first would make every coset level
    work on 2^a times the terms.  Only ``m_mu_witness`` expands m_mu * D."""
    if not D.terms:
        return D
    D = x_mu_mul(ctx, young_parts(mu), D)
    guard = ctx._guard
    a_k = 0
    for k in range(1, len(mu)):
        a_k += sum(mu[k - 1])
        Qk = _pack((1,), k + 1) << ctx._ring_shift
        for i in range(1, a_k + 1):
            out = {}
            _acc_scaled(out, D.terms, _pack((1,), i - 1), 1, guard)
            _acc_scaled(out, D.terms, Qk, -1, guard)
            D = HeckeElem(ctx, out)
    return D


def iota(ctx, D):
    """iota(D) for the anti-involution iota of the affine model that fixes
    every T_i and every L_j, so iota(T_w) = T_{w^-1}.  D's terms are grouped
    by w, and iota(sum_w f_w(L) T_w) = sum_w T_{w^-1} f_w(L), T_{w^-1}
    applied to f_w(L) by ``lmul_gen`` along a reduced word of w^-1, right
    to left.  Nothing is memoized: the operands are used once."""
    by_w = {}
    for (w, key), coeff in D.terms.items():
        by_w.setdefault(w, {})[(ctx._id, key)] = coeff
    out = {}
    for w, f in by_w.items():
        z = HeckeElem(ctx, f)
        inverse = [0] * ctx.n
        for p, v in enumerate(w):
            inverse[v] = p
        for i in reversed(reduced_word(inverse)):
            z = ctx.lmul_gen(i, z)
        _acc_scaled(out, z.terms, 0, 1, ctx._guard)
    return HeckeElem(ctx, out)


def _x_mu_collapse_sums(ctx, parts, D):
    """The collapse sums of x_mu * D, built in one pass over the terms of
    iota(D) with no coset sweep: the zero-free element with the sum G_{c,d}
    at (c, d), which is zero exactly when x_mu * D is.

    x_mu = sum_{u in S_mu} q^{l(u)} T_u is iota-fixed (l(u^-1) = l(u)), so
    x_mu D = 0 exactly when iota(x_mu D) = iota(D) x_mu = 0.  Write each
    permutation v of iota(D) = sum g_v(L) T_v as v = d u with u in S_mu
    and d the shortest element of v S_mu: d is v with the values in each
    Young block of positions sorted, and l(u) counts the inversions inside
    the blocks.  Then l(v) = l(d) + l(u) and T_u x_mu = q^{l(u)} x_mu, so
    L^c T_v x_mu = q^{l(u)} L^c T_d x_mu, and iota(D) x_mu is the sum of
    G_{c,d} L^c T_d x_mu, G_{c,d} the sum of q^{l(u)} g_v over the v = d u
    with an L^c term.  The elements L^c T_d x_mu are independent:
    L^c T_d x_mu = sum_u q^{l(u)} L^c T_{du} has the normal-form support
    {(c, du)}, disjoint for distinct (c, d), since the affine model has no
    cyclotomic reduction.  So the coefficient of iota(x_mu D) at (c, d u)
    is q^{l(u)} G_{c,d}."""
    blocks = []
    off = 0
    for part in parts:
        if part > 1:
            blocks.append((off, off + part))
        off += part
    qstep, guard = ctx._qstep, ctx._guard
    sums = {}
    for (v, key), coeff in iota(ctx, D).terms.items():
        d = list(v)
        length = 0
        for lo, hi in blocks:
            block = v[lo:hi]
            length += sum(a > b for j, a in enumerate(block) for b in block[j + 1:])
            d[lo:hi] = sorted(block)
        key += length * qstep
        if key & guard:
            raise _overflow()
        k = (tuple(d), key)
        sums[k] = sums.get(k, 0) + coeff
    return HeckeElem(ctx, _clean(sums))


def _x_mu_route(ctx, parts, D):
    """What both m_mu verdicts read of x_mu * D, chosen from the parts
    alone: the coset sweep ``x_mu_mul`` makes sum_p C(p, 2) ``lmul_gen``
    passes over D, so below three passes it is x_mu * D itself, and at three
    or more the collapse sums (``_x_mu_collapse_sums``, one pass over
    iota(D)).  Either is zero exactly when x_mu * D is, and either divided
    by a polynomial in q lies in the A-form exactly when x_mu * D so divided
    does (``m_mu_divides``)."""
    if sum(p * (p - 1) // 2 for p in parts) >= 3:
        return _x_mu_collapse_sums(ctx, parts, D)
    return x_mu_mul(ctx, parts, D)


def m_mu_kills(ctx, mu, D):
    """Whether m_mu * D == 0, decided as x_mu * D == 0 on ``_x_mu_route``
    and memoized on the context by content, (``young_parts(mu)``, D).

    The L factors never change whether the product is zero: m_mu = lprod *
    x_mu, and on the normal form sum_w f_w(L) T_w left multiplication by
    lprod = prod (L_i - Q_k) multiplies each coefficient polynomial f_w by
    the nonzero polynomial lprod(L); the polynomial ring in the L's over the
    Laurent ring is a domain, at q = 1 too.  So m_mu D = 0 exactly when
    x_mu D = 0.  The order of the Young blocks matters: T_1 - q is killed by
    x_(2,1) = 1 + q T_1 and not by x_(1,2) = 1 + q T_2."""
    parts = young_parts(mu)
    key = (parts, D)
    killed = ctx._kills.get(key)
    if killed is None:
        killed = ctx._kills[key] = _x_mu_route(ctx, parts, D).is_zero
    return killed


def m_mu_divides(ctx, mu, D, g):
    """Whether m_mu * D / g lies in the A-form (``a_form_quotient``), g a
    nonzero polynomial in q alone ([d]!, or d! at q = 1), decided as
    whether x_mu * D / g does, on ``_x_mu_route``, m_mu never multiplied in.

    m_mu D = lprod * x_mu D, and on the normal form sum_w F_w(L) T_w of
    x_mu D, lprod = prod (L_i - Q_k) multiplies each coefficient polynomial
    F_w.  lprod is primitive (monic in the L's), so it shares no prime
    factor with g, nor with a denominator of F_w, all of them in Z[q^+-1],
    in the UFD Z[q^+-1, Q, L] (Z[Q, L] at q = 1): by Gauss's lemma g divides
    lprod F_w with integer coefficients exactly when it divides F_w so.  In
    each Q_k the lowest part of lprod is nonzero and of degree 0, so lprod F_w
    has a negative Q exponent exactly when F_w has.  And lprod F_w is zero
    exactly when F_w is, the injectivity half of ``m_mu_kills``.

    On the collapse route the collapse sums G_{c,d} stand for x_mu D.  Let
    the A-form be the span of the L^c T_w over Z[q^+-1][Q].  iota fixes every
    T_i, every L_j and the scalars, and the Bernstein relations have their
    coefficients in Z[q^+-1], so iota maps the A-form onto itself, and
    x_mu D / g lies in it exactly when iota(x_mu D) / g does.  The
    coefficient of iota(x_mu D) at (c, d u) is q^{l(u)} G_{c,d}
    (``_x_mu_collapse_sums``), and q^{l(u)} is a unit, so that holds exactly
    when every G_{c,d} / g lies in Z[q^+-1][Q]."""
    return a_form_quotient(_x_mu_route(ctx, young_parts(mu), D), g) is not None


def m_mu_witness(ctx, mu, D):
    """The failure detail of the m_mu identity m_mu * D == 0: None when
    ``m_mu_kills`` holds, else the first three terms of m_mu * D in report
    order (ascending L-exponents, then permutation) as JSON.  Only those
    three terms are converted."""
    if m_mu_kills(ctx, mu, D):
        return None
    return [
        {"L": list(c), "w": [x + 1 for x in w], "coeff": ml_to_json(coeff)}
        for (c, w), coeff in heapq.nsmallest(3, m_mu_mul(ctx, mu, D).grouped().items())
    ]


def _built_once(build):
    """The bracket builder ``build`` memoized on its context, in the one
    dict ``HeckeContext._built`` keyed by (``build``, its integer
    arguments), so each element is built once per context and dies with it.
    An ``lru_cache`` keyed by the context would keep the context alive after
    its run.  Callers share the returned elements, which no one mutates."""

    @wraps(build)
    def built(ctx, *args):
        key = (build, *args)
        out = ctx._built.get(key)
        if out is None:
            out = ctx._built[key] = build(ctx, *args)
        return out

    return built


@_built_once
def t_chain(ctx, s, h, sign):
    """The word T_s T_{s+sign} ... of h letters."""
    return ctx.Tword(range(s, s + sign * h, sign))


def in_window(n, N, length, sign):
    """Whether the one-sided window from N to N + sign*length lies in 0..n."""
    return N <= n and 0 <= N + sign * length <= n


@_built_once
def t_bracket(ctx, N, mu, sign):
    """[T; N, mu]^{sign} = sum_{h<mu} q^h T_{N+sign} ... T_{N+sign*h}; zero
    when mu = 0 or the window from N to N + sign*mu leaves 0..n."""
    if mu == 0 or not in_window(ctx.n, N, mu, sign):
        return ctx.zero()
    out = ctx.one()
    for h in range(1, mu):
        out = out + t_chain(ctx, N + sign, h, sign).scale(ctx.ring.q_pow(h))
    return out


@_built_once
def t_paren(ctx, N, d, sign):
    """(T; N, d)^{sign} = sum_{h<d} q^h T_{N+sign*(d-h)} ... T_{N+sign*(d-1)}
    for d >= 1; zero when the window from N to N + sign*d leaves 0..n."""
    if not in_window(ctx.n, N, d, sign):
        return ctx.zero()
    out = ctx.one()
    for h in range(1, d):
        out = out + t_chain(ctx, N + sign * (d - h), h, sign).scale(ctx.ring.q_pow(h))
    return out


@_built_once
def t_paren_factorial(ctx, N, d, sign):
    """(T; N, d)^{sign}! = (T;N,d)(T;N,d-1)...(T;N,1)."""
    out = ctx.one()
    for j in range(d, 0, -1):
        out = out * t_paren(ctx, N, j, sign)
    return out


def stacked_bracket(ctx, N, mu, d, sign):
    """The stacked product [T; N+/-(d-1), mu-(d-1)] ... [T; N, mu]; 1 for d = 0."""
    out = ctx.one()
    for j in range(d - 1, -1, -1):
        out = out * t_bracket(ctx, N + sign * j, mu - j, sign)
    return out


@_built_once
def bracket_cofactor(ctx, N, mu, d, sign):
    """The cofactor h of the stacked bracket by its recursive expansion, so
    that ``stacked_bracket(ctx, N, mu, d, sign)`` should equal
    (T;N,d)^{sign}! * h when d <= mu (the divided-bracket-cofactor check)."""
    if d == 0:
        return ctx.one()
    out = bracket_cofactor(ctx, N, d - 1, d - 1, sign)
    for h in range(1, mu - d + 1):
        word = t_chain(ctx, N + sign * d, h, sign)
        out = out + (word * bracket_cofactor(ctx, N, d + h - 1, d - 1, sign)).scale(
            ctx.ring.q_pow(h)
        )
    return out


def phi_jm(ctx, t, sign, l_indices):
    """Phi_t^{sign} evaluated at commuting Jucys-Murphy elements: the direct
    L-exponent expansion, with variable j mapped to L_{l_indices[j]}; built
    once per context, keyed by the indices as a tuple."""
    return _phi_jm(ctx, t, sign, tuple(l_indices))


@_built_once
def _phi_jm(ctx, t, sign, l_indices):
    k = len(l_indices)
    if k == 0:
        return ctx.zero()
    poly = symfun.phi(t, k, sign, ctx.ring)
    base = _slots(_BIAS, ctx.n)
    terms = {}
    for (exps, key), c in poly.terms.items():
        lkey = base + sum(_pack((e,), j - 1) for j, e in zip(l_indices, exps))
        terms[(ctx._id, lkey + (key << ctx._ring_shift))] = c
    return HeckeElem(ctx, terms)
