import gc
import hashlib
import inspect
import itertools
import json
import sys
import textwrap
import weakref
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cycloschur.hecke as hecke_mod
import cycloschur.suites.hecke as suite_mod
from cycloschur import combinatorics as comb
from cycloschur.coeff import LaurentRing, ml_to_json, qfactorial
from cycloschur.combinatorics import Shape
from cycloschur.hecke import (
    EngineError,
    HeckeContext,
    a_form_quotient,
    bracket_cofactor,
    _x_mu_collapse_sums,
    iota,
    m_mu_divides,
    m_mu_kills,
    m_mu_mul,
    m_mu_witness,
    phi_jm,
    reduced_word,
    stacked_bracket,
    t_bracket,
    t_paren,
    t_paren_factorial,
    x_mu_mul,
    young_parts,
)
from cycloschur.reporting import check
from cycloschur.schurops import SchurContext
from cycloschur.suites.hecke import (
    _mm_check,
    verify_bracket_com_rel,
    verify_commute_LT,
    verify_divided_brackets,
    verify_hecke,
    verify_jm_normal_form,
    verify_L_commutes_bracket,
    verify_m_mu_L_T,
    verify_m_mu_L_T_etc,
    verify_m_mu_T,
    word_built_jm,
    young_generators,
)
from cycloschur.suites.schur import verify_divided_powers

from api_helpers import verify_relations
from coeff_helpers import monomial


@pytest.fixture(scope="module")
def ctx3():
    return HeckeContext(3, 2)


@pytest.fixture(scope="module")
def ctx4():
    return HeckeContext(4, 2)


def m_mu(ctx, mu):
    """The element m_mu, as ``m_mu_mul`` applied to 1."""
    return m_mu_mul(ctx, mu, ctx.one())


def json_terms(elem):
    """Every term of elem as JSON in report order, all of them converted:
    the reference for failure details, which keep the first three."""
    return [{"L": list(c), "w": [x + 1 for x in w], "coeff": ml_to_json(coeff)}
            for (c, w), coeff in elem.sorted_terms()]


def perm_inversions(w):
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


class TestPermutations:
    def test_reduced_word_roundtrip(self, ctx4):
        for w in itertools.permutations(range(4)):
            word = reduced_word(w)
            assert len(word) == perm_inversions(w)
            elem = ctx4.Tword(word)
            if word:
                ((c, w2),) = elem.grouped().keys()
                assert c == (0, 0, 0, 0)
                assert w2 == w
            else:
                assert elem == ctx4.one()

    @pytest.mark.parametrize("q_one", [False, True])
    def test_tword_is_the_product_of_its_letters(self, q_one):
        # words that are not reduced too: T_1 T_1 has a (q - q^-1) T_1 term
        ctx = HeckeContext(3, 2, q_one=q_one)
        for length in range(4):
            for word in itertools.product((1, 2), repeat=length):
                expected = ctx.one()
                for i in word:
                    expected = expected * ctx.T(i)
                assert ctx.Tword(word) == expected, word

    @pytest.mark.parametrize("word", [(0,), (3,), (1, 3), (-1, 2)])
    def test_tword_letter_out_of_range(self, ctx3, word):
        with pytest.raises(ValueError, match="out of range"):
            ctx3.Tword(word)


class TestNormalize:
    def test_quadratic(self, ctx3):
        lhs = ctx3.T(1) * ctx3.T(1)
        rhs = ctx3.one() + ctx3.T(1).scale(ctx3.ring.qq_comm())
        assert lhs == rhs

    def test_T_commutes_with_far_L(self, ctx3):
        assert ctx3.T(1) * ctx3.L(3) == ctx3.L(3) * ctx3.T(1)

    def test_L_T_push(self, ctx3):
        # L_{i+1} T_i = (q - q^{-1}) L_{i+1} + T_i L_i
        lhs = ctx3.L(2) * ctx3.T(1)
        rhs = ctx3.L(2).scale(ctx3.ring.qq_comm()) + ctx3.T(1) * ctx3.L(1)
        assert lhs == rhs

    def test_jm_words(self, ctx3):
        for c in verify_jm_normal_form(ctx3, word_built_jm(ctx3)):
            assert c["ok"], c

    def test_normalize_idempotent_on_words(self, ctx3):
        T, L = ctx3.T, ctx3.L
        elem = T(1) * L(2, 2) * T(2) * T(0) + (T(2) * T(1) * L(1)).scale(ctx3.ring.q)
        # multiplying the normal form out again term by term is the identity
        rebuilt = ctx3.zero()
        for (c, w), coeff in elem.grouped().items():
            term = ctx3.Tword(reduced_word(w))
            for j, e in enumerate(c):
                if e:
                    term = L(j + 1, e) * term
            rebuilt = rebuilt + term.scale(coeff)
        assert rebuilt == elem

    def test_T_atom_out_of_range(self, ctx3):
        # T_3 would read the q slot as an L exponent; T_{-1} a negative shift
        for i in (3, -1):
            with pytest.raises(ValueError, match=f"T_{i} out of range"):
                ctx3.T(i)


@st.composite
def short_words(draw, ctx):
    """A central scalar times a product, with ``*``, of up to four factors
    T_i (0 <= i < n, T_0 = L_1) and L_j^e."""
    out = ctx.one()
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            factor = ctx.T(draw(st.integers(0, ctx.n - 1)))
        else:
            factor = ctx.L(draw(st.integers(1, ctx.n)), draw(st.integers(1, 2)))
        out = out * factor
    return out.scale(ctx.ring.q_pow(draw(st.integers(-1, 1))).scale(draw(st.integers(1, 3))))


class TestAlgebraAxioms:
    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_associative(self, data):
        ctx = HeckeContext(3, 2)
        x, y, z = (data.draw(short_words(ctx)) for _ in range(3))
        assert (x * y) * z == x * (y * z)

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_results_store_no_zero_coefficient(self, data):
        # the operations build their term dicts without a cleaning pass
        ctx = HeckeContext(3, 2)
        x, y = data.draw(short_words(ctx)), data.draw(short_words(ctx))
        results = [
            x + y, x - y, x - x, -x, x * y, x.scale(ctx.ring.qq_comm()),
            x.shift_L(2, 1), ctx.lmul_gen(1, x),
        ]
        for elem in results:
            assert all(elem.terms.values())
        assert (x - x).terms == {}


@st.composite
def factor_products(draw, ctx, shape):
    """A product of one to three factors, each a T_i, an L_j^e, a bracket
    [T; N, mu]^{sign} or an m_mu."""
    weights = comb.enumerate_compositions(ctx.n, shape)
    out = ctx.one()
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.integers(0, 3))
        if kind == 0:
            factor = ctx.T(draw(st.integers(1, ctx.n - 1)))
        elif kind == 1:
            factor = ctx.L(draw(st.integers(1, ctx.n)), draw(st.integers(1, 2)))
        elif kind == 2:
            sign = draw(st.sampled_from((+1, -1)))
            N = draw(st.integers(0, ctx.n))
            factor = t_bracket(ctx, N, draw(st.integers(1, ctx.n)), sign)
        else:
            factor = m_mu(ctx, draw(st.sampled_from(weights)))
        out = out * factor
    return out


class TestAssociativity:
    # the m_mu identities are decided as m_mu * (X - Y), so mul must be
    # associative on the factors they use
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_products_of_suite_factors(self, data):
        ctx = HeckeContext(3, 2)
        shape = Shape((1, 2))
        a, b, c = (data.draw(factor_products(ctx, shape)) for _ in range(3))
        assert (a * b) * c == a * (b * c)


# -- reference engine -------------------------------------------------------
# The engine as it was before packed keys: terms {(c, w): MultiLaurent}, one
# MultiLaurent product per coefficient.


def _ref_acc(out, key, ml):
    if ml.is_zero:
        return
    cur = out.get(key)
    if cur is None:
        out[key] = ml
    else:
        s = cur + ml
        if s.is_zero:
            del out[key]
        else:
            out[key] = s


def _ref_acc_T_left(ring, out, i, c, w, coeff):
    # T_i T_w in normal form
    p1 = w.index(i - 1)
    p2 = w.index(i)
    w2 = list(w)
    w2[p1], w2[p2] = i, i - 1
    _ref_acc(out, (c, tuple(w2)), coeff)
    if p1 > p2:
        _ref_acc(out, (c, w), ring.qq_comm() * coeff)


def _ref_lmul_gen(ring, i, terms):
    qq = ring.qq_comm()
    out = {}
    ia, ib = i - 1, i
    for (c, w), coeff in terms.items():
        a, b = c[ia], c[ib]
        m = min(a, b)
        base = list(c)
        base[ia] = base[ib] = m
        a -= m
        b -= m
        if a == 0 and b == 0:
            _ref_acc_T_left(ring, out, i, tuple(base), w, coeff)
        elif a:
            e1 = list(base)
            e1[ib] += a
            _ref_acc_T_left(ring, out, i, tuple(e1), w, coeff)
            for s in range(a):
                e2 = list(base)
                e2[ib] += a - s
                e2[ia] += s
                _ref_acc(out, (tuple(e2), w), -(qq * coeff))
        else:
            e1 = list(base)
            e1[ia] += b
            _ref_acc_T_left(ring, out, i, tuple(e1), w, coeff)
            for s in range(1, b + 1):
                e2 = list(base)
                e2[ia] += b - s
                e2[ib] += s
                _ref_acc(out, (tuple(e2), w), qq * coeff)
    return out


def _ref_mul(ring, a, b):
    out = {}
    by_w = {}
    for (c, w), coeff in a.items():
        by_w.setdefault(w, []).append((c, coeff))
    for w, pairs in by_w.items():
        pushed = b
        for i in reversed(reduced_word(w)):
            pushed = _ref_lmul_gen(ring, i, pushed)
        for (c2, w2), coeff2 in pushed.items():
            for c, coeff in pairs:
                key = (tuple(x + y for x, y in zip(c, c2)), w2)
                _ref_acc(out, key, coeff * coeff2)
    return out


@st.composite
def central_scalars(draw, ring):
    """A sum of one or two monomials in q, Q_0, ... with rational coefficients."""
    out = ring.zero
    for _ in range(draw(st.integers(1, 2))):
        exps = [draw(st.integers(-2, 2))] + [
            draw(st.integers(-1, 1)) for _ in range(ring.r)
        ]
        num = draw(st.integers(1, 3)) * draw(st.sampled_from((1, -1)))
        out = out + monomial(ring, exps, Fraction(num, draw(st.integers(1, 3))))
    return out


@st.composite
def differential_factors(draw, ctx, shape):
    """One to four factors, each a T_i, an L_j^e, a bracket, an m_mu or a
    central scalar."""
    weights = comb.enumerate_compositions(ctx.n, shape)
    factors = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.integers(0, 4))
        if kind == 0:
            factors.append(ctx.T(draw(st.integers(1, ctx.n - 1))))
        elif kind == 1:
            factors.append(ctx.L(draw(st.integers(1, ctx.n)), draw(st.integers(1, 3))))
        elif kind == 2:
            sign = draw(st.sampled_from((+1, -1)))
            N = draw(st.integers(0, ctx.n))
            factors.append(t_bracket(ctx, N, draw(st.integers(1, ctx.n)), sign))
        elif kind == 3:
            factors.append(m_mu(ctx, draw(st.sampled_from(weights))))
        else:
            factors.append(ctx.scalar(draw(central_scalars(ctx.ring))))
    return factors


# A coefficient from a ring with more parameters is rejected: its Q_2 slot
# would fall outside the key, so Q_2 would read as 1.
def test_a_coefficient_of_another_arity_is_rejected():
    ctx = HeckeContext(2, 2)
    with pytest.raises(ValueError, match="mixed variable arities"):
        ctx.scalar(LaurentRing(3).Q(2))
    assert ctx.scalar(ctx.ring.Q(1)).sorted_terms() == [
        (((0, 0), (0, 1)), ctx.ring.Q(1)),
    ]


class TestPackedKeys:
    """The packed engine against the reference engine above."""

    @pytest.mark.parametrize("n,r,m,q_one", [
        (3, 2, (1, 2), False), (3, 2, (1, 2), True),
        (3, 3, (1, 1, 1), False), (3, 3, (1, 1, 1), True),
    ])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_products_match_the_reference(self, n, r, m, q_one, data):
        ctx = HeckeContext(n, r, q_one=q_one)
        factors = data.draw(differential_factors(ctx, Shape(m)))
        ref = ctx.one().grouped()
        for f in factors:
            ref = _ref_mul(ctx.ring, ref, f.grouped())
        # the second pass on the same context takes its pushes from the memo
        for _ in range(2):
            prod = ctx.one()
            for f in factors:
                prod = prod * f
            assert prod.grouped() == ref
            for coeff in prod.terms.values():
                assert type(coeff) in (int, Fraction) and coeff != 0
                assert type(coeff) is int or coeff.denominator != 1

    def test_grouped_round_trip(self, ctx3):
        ring = ctx3.ring
        grouped = {
            ((0, 2, 0), (1, 0, 2)): ring.q_pow(-3) + ring.Q(1, -2).scale(Fraction(1, 2)),
            ((1, 0, 0), (0, 1, 2)): ring.Q(0, 5),
        }
        assert ctx3.from_grouped(grouped).grouped() == grouped

    def test_integral_rationals_are_stored_as_ints(self, ctx3):
        half = ctx3.scalar(ctx3.ring.from_fraction(Fraction(1, 2)))
        x = ctx3.T(1).scale(Fraction(3, 2))
        products = (half * x.scale(4), x * x.scale(Fraction(4, 3)), ctx3.lmul_gen(1, x.scale(2)))
        for elem in (*products, x + x):
            assert all(type(c) is int for c in elem.terms.values())

    @pytest.mark.parametrize("q_one", [False, True])
    def test_every_term_is_keyed_permutation_then_int(self, q_one):
        # the (head, key) layout of every flat element, with w as head, out
        # of each constructor and each product, shift and quotient
        ctx = HeckeContext(3, 2, q_one=q_one)
        ring = ctx.ring
        mu = ((1,), (2,))
        x = ctx.Tword((1, 2)).shift_L(2, 1) + ctx.term((1, 0, 2), (2, 0, 1), ring.Q(1))
        elems = [
            ctx.one(), ctx.T(1), ctx.L(3, 2), x, x * x, ctx.lmul_gen(2, x),
            x.scale(ring.q + ring.Q(0)), iota(ctx, x),
            x_mu_mul(ctx, (3,), x), m_mu(ctx, mu), m_mu_mul(ctx, mu, x),
            phi_jm(ctx, 2, +1, (1, 2)), a_form_quotient(x.scale(qfactorial(2, ring)),
                                                       qfactorial(2, ring)),
        ]
        out = {}
        x.accumulate((ring.q + ring.Q(1)).terms, out, -1)
        elems.append(ctx.from_terms(out))
        for elem in elems:
            assert elem.terms
            for (w, key), c in elem.terms.items():
                assert type(w) is tuple and sorted(w) == [0, 1, 2]
                assert type(key) is int and c != 0

    def test_squaring_L1_overflows_its_slot(self, ctx3):
        x = ctx3.L(1)
        for _ in range(12):
            x = x * x
        assert x == ctx3.L(1, 4096)
        with pytest.raises(EngineError, match="packed key range"):
            x * x

    def test_shift_L_index_out_of_range(self, ctx3):
        # L_{n+1} would land in the q slot
        for j in (0, 4):
            with pytest.raises(ValueError, match="out of range"):
                ctx3.one().shift_L(j, 1)

    def test_q_slot_underflow_in_lmul_gen(self, ctx3):
        low = ctx3.T(1).scale(ctx3.ring.q_pow(-8192))
        with pytest.raises(EngineError, match="packed key range"):
            ctx3.lmul_gen(1, low)
        with pytest.raises(EngineError, match="packed key range"):
            ctx3.L(2, 8192)


@st.composite
def a_form_elements(draw, ctx):
    """Zero to four terms c q^e Q^f L^c T_w of the A-form: c an integer, e in
    -3..3, every Q exponent in 0..3, L exponents in 0..2 and any w."""
    ring = ctx.ring
    out = ctx.zero()
    for _ in range(draw(st.integers(0, 4))):
        c = draw(st.tuples(*[st.integers(0, 2)] * ctx.n))
        w = tuple(draw(st.permutations(range(ctx.n))))
        exps = (draw(st.integers(-3, 3)),) + draw(st.tuples(*[st.integers(0, 3)] * ring.r))
        out = out + ctx.term(c, w, monomial(ring, exps, draw(st.integers(-9, 9))))
    return out


def counting_lmul_gen(monkeypatch, ctx):
    """Record the generator of every ``ctx.lmul_gen`` call."""
    calls = []
    real = ctx.lmul_gen

    def lmul_gen(i, elem):
        calls.append(i)
        return real(i, elem)

    monkeypatch.setattr(ctx, "lmul_gen", lmul_gen)
    return calls


def pushed_by_word(ctx, w, b):
    """T_w * b as T_{i_1} (T_{i_2} (... b)) along the reduced word, no memo."""
    for i in reversed(reduced_word(w)):
        b = ctx.lmul_gen(i, b)
    return b


class TestPushMemo:
    """The memo of ``HeckeContext._push``: T_w * b by content (w, b)."""

    @pytest.mark.parametrize("q_one", [False, True])
    def test_entries_are_the_pushes_along_the_reduced_word(self, q_one):
        ctx = HeckeContext(3, 2, q_one=q_one)
        a = ctx.Tword((1, 2, 1)) + ctx.Tword((2, 1)).scale(ctx.ring.Q(0)) + ctx.L(2)
        b = ctx.L(1, 2) * ctx.T(2) + ctx.L(3).scale(ctx.ring.q)
        a * b
        # T_1 T_2 T_1 keeps the pushes of T_2 T_1 and T_1; a's T_2 T_1 is a hit
        assert len(ctx._pushes) == 3
        for (w, b2), pushed in ctx._pushes.items():
            assert b2 is b and w != ctx._id
            assert pushed == pushed_by_word(ctx, w, b)

    def test_a_miss_costs_one_lmul_gen(self, monkeypatch):
        ctx = HeckeContext(4, 2)
        b = ctx.L(1) + ctx.T(3)
        t1, t21, t321 = ctx.T(1), ctx.Tword((2, 1)), ctx.Tword((3, 2, 1))
        calls = counting_lmul_gen(monkeypatch, ctx)
        t1 * b
        assert calls == [1]
        # T_2 T_1 has its tail T_1 memoized: one more call
        t21 * b
        assert calls == [1, 2]
        t321 * b
        assert calls == [1, 2, 3]

    def test_equal_contents_make_no_lmul_gen_call(self, monkeypatch):
        ctx = HeckeContext(3, 2)
        a = ctx.Tword((1, 2)) + ctx.T(2).scale(ctx.ring.Q(1))
        b = ctx.L(2, 3) - ctx.T(1)
        first = a * b
        calls = counting_lmul_gen(monkeypatch, ctx)
        # new objects with equal terms, built another way
        a2 = ctx.from_grouped(a.grouped())
        b2 = -ctx.T(1) + ctx.L(2, 3)
        assert a2 is not a and b2 is not b
        assert a2 * b2 == first
        assert calls == []

    def test_distinct_operands_never_share_an_entry(self):
        ctx = HeckeContext(3, 2)
        a = ctx.Tword((1, 2))
        w = next(iter(a.terms))[0]
        b1, b2 = ctx.L(1), ctx.L(2)
        p1, p2 = a * b1, a * b2
        assert p1 != p2
        assert ctx._pushes[(w, b1)] == pushed_by_word(ctx, w, b1)
        assert ctx._pushes[(w, b2)] == pushed_by_word(ctx, w, b2)
        assert p1.grouped() == _ref_mul(ctx.ring, a.grouped(), b1.grouped())
        assert p2.grouped() == _ref_mul(ctx.ring, a.grouped(), b2.grouped())

    def test_memo_dies_with_its_context(self):
        ctx = HeckeContext(3, 2)
        ctx.T(1) * ctx.L(1)
        assert ctx._pushes
        ref = weakref.ref(ctx)
        del ctx
        gc.collect()
        assert ref() is None
        fresh = HeckeContext(3, 2)
        assert not fresh._pushes
        # the identity is never pushed
        fresh.L(1) * fresh.T(2)
        assert not fresh._pushes


class TestAFormQuotient:
    """a_form_quotient, the division of the divided powers by [d]! (by d! at
    q = 1), on elements with every L, q and Q slot in use."""

    @pytest.mark.parametrize("q_one", [False, True])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), d=st.integers(0, 4))
    def test_divides_back(self, q_one, data, d):
        ctx = HeckeContext(3, 2, q_one=q_one)
        a = data.draw(a_form_elements(ctx))
        g = qfactorial(d, ctx.ring)
        quo = a_form_quotient(a.scale(g), g)
        assert quo == a
        assert all(type(c) is int for c in quo.terms.values())

    @pytest.mark.parametrize("q_one", [False, True])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), d=st.integers(2, 4))
    def test_remainder_is_none(self, q_one, data, d):
        # [d]! is no unit for d >= 2, and at q = 1 the constant 1 is no
        # multiple of d!
        ctx = HeckeContext(3, 2, q_one=q_one)
        a = data.draw(a_form_elements(ctx))
        g = qfactorial(d, ctx.ring)
        assert a_form_quotient(a.scale(g) + ctx.one(), g) is None

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), d=st.integers(0, 4), k=st.integers(0, 1), e=st.integers(1, 3))
    def test_negative_Q_exponent_is_none(self, data, d, k, e):
        ctx = HeckeContext(3, 2)
        a = data.draw(a_form_elements(ctx)) + ctx.scalar(ctx.ring.Q(k, -e))
        g = qfactorial(d, ctx.ring)
        assert a_form_quotient(a.scale(g), g) is None

    def test_divisor_in_q_alone(self, ctx3):
        ring = ctx3.ring
        for g in (ring.Q(0), ring.q + ring.Q(1), ring.zero):
            with pytest.raises(ValueError):
                a_form_quotient(ctx3.T(1), g)

    def test_zero_divides_to_zero(self, ctx3):
        assert a_form_quotient(ctx3.zero(), qfactorial(3, ctx3.ring)).is_zero


class TestMmu:
    def test_trivial_weight(self):
        ctx = HeckeContext(1, 2)
        assert m_mu(ctx, ((0,), (1,))) == ctx.one()

    def test_single_box_first_component(self):
        ctx = HeckeContext(1, 2)
        expected = ctx.L(1) - ctx.scalar(ctx.ring.Q(1))
        assert m_mu(ctx, ((1,), (0,))) == expected

    def test_row_two(self):
        ctx = HeckeContext(2, 1)
        expected = ctx.one() + ctx.T(1).scale(ctx.ring.q)
        assert m_mu(ctx, ((2, 0),)) == expected

    def test_m_mu_T(self, ctx3):
        for c in verify_m_mu_T(ctx3, Shape((2, 2))):
            assert c["ok"], c

    def test_young_sum_size(self):
        ctx = HeckeContext(4, 1)
        elem = young_subgroup_sum(ctx, ((2, 2),))
        assert len(elem.terms) == 4
        q = ctx.ring.q
        expected = (
            ctx.one() + ctx.T(1).scale(q) + ctx.T(3).scale(q)
            + ctx.Tword((1, 3)).scale(ctx.ring.q_pow(2))
        )
        assert elem == expected
        # at r = 1 there are no L factors and m_mu is the Young sum
        assert m_mu(ctx, ((2, 2),)) == expected

    @pytest.mark.parametrize("m", [(3,), (1, 2), (2, 2), (1, 1, 1), (2, 2, 2)])
    @pytest.mark.parametrize("q_one", [False, True])
    def test_matches_the_enumerated_young_sum(self, m, q_one):
        ctx = HeckeContext(3, len(m), q_one=q_one)
        shape = Shape(m)
        for mu in comb.enumerate_compositions(3, shape):
            assert m_mu(ctx, mu) == reference_m_mu(ctx, mu, shape), mu


# -- reference m_mu ---------------------------------------------------------
# m_mu as the engine built it before m_mu_mul: the Young-subgroup sum
# enumerated one permutation at a time, times the L factors through mul.


def young_subgroup_sum(ctx, mu):
    """sum over w in S_mu of q^{l(w)} T_w, for the Young subgroup of the
    flattened composition."""
    flat = comb.flatten(mu)
    blocks = []
    off = 0
    for part in flat:
        if part > 1:
            blocks.append((off, part))
        off += part
    terms = {}
    locals_per_block = [
        [(perm, perm_inversions(perm)) for perm in itertools.permutations(range(size))]
        for _, size in blocks
    ]
    for combo in itertools.product(*locals_per_block):
        w = list(range(ctx.n))
        length = 0
        for (off, _size), (perm, inv) in zip(blocks, combo):
            for j, p in enumerate(perm):
                w[off + j] = off + p
            length += inv
        terms[((0,) * ctx.n, tuple(w))] = ctx.ring.q_pow(length)
    return ctx.from_grouped(terms)


def reference_m_mu(ctx, mu, shape):
    """The Young-subgroup sum times prod_{k<r} prod_{i<=a_k} (L_i - Q_k)."""
    elem = young_subgroup_sum(ctx, mu)
    for k in range(1, shape.r):
        a_k = sum(sum(mu[j]) for j in range(k))
        Qk = ctx.scalar(ctx.ring.Q(k))
        for i in range(1, a_k + 1):
            elem = elem * (ctx.L(i) - Qk)
    return elem


@st.composite
def right_operands(draw, ctx):
    """A sum of zero to three terms c L^e T_w with central c, L exponents
    in 0..2 and any w."""
    out = ctx.zero()
    for _ in range(draw(st.integers(0, 3))):
        term = ctx.Tword(draw(st.lists(st.integers(1, ctx.n - 1), max_size=4)))
        for j in range(1, ctx.n + 1):
            e = draw(st.integers(0, 2))
            if e:
                term = term.shift_L(j, e)
        out = out + term.scale(draw(central_scalars(ctx.ring)))
    return out


class TestMmuMul:
    """m_mu_mul against the reference m_mu multiplied in through mul."""

    # r = 1 has no L factors; parts of size 1 have no coset levels; (4,)
    # and (1, 3) sweep blocks of size 3 and 4
    @pytest.mark.parametrize("n,m,q_one", [
        (3, (3,), False), (4, (4,), True), (3, (1, 2), False), (3, (1, 2), True),
        (4, (1, 3), False), (4, (2, 2, 2), False), (3, (1, 1, 1), True),
    ])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_equals_m_mu_times_the_operand(self, n, m, q_one, data):
        ctx = HeckeContext(n, len(m), q_one=q_one)
        shape = Shape(m)
        mu = data.draw(st.sampled_from(comb.enumerate_compositions(n, shape)))
        D = data.draw(right_operands(ctx))
        expected = reference_m_mu(ctx, mu, shape) * D
        assert m_mu_mul(ctx, mu, D) == expected
        assert m_mu(ctx, mu) * D == expected

    def test_zero_operand(self):
        ctx = HeckeContext(3, 2)
        assert m_mu_mul(ctx, ((1,), (2,)), ctx.zero()).is_zero

    def test_operand_with_L_exponents_and_a_permutation(self):
        ctx = HeckeContext(3, 2)
        shape = Shape((1, 2))
        mu = ((1,), (0, 2))
        D = ctx.Tword((1, 2)).shift_L(2, 2).shift_L(3, 1)
        expected = reference_m_mu(ctx, mu, shape) * D
        assert m_mu_mul(ctx, mu, D) == expected


@st.composite
def x_mu_operands(draw, ctx, mu):
    """A right operand D, or (T_i - q) D for s_i in S_mu, which x_mu kills
    because x_mu T_i = q x_mu; returns (operand, whether it was killed)."""
    D = draw(right_operands(ctx))
    gens = young_generators(mu)
    if not gens or not draw(st.booleans()):
        return D, False
    i = draw(st.sampled_from(gens))
    return (ctx.T(i) - ctx.scalar(ctx.ring.q)) * D, True


class TestXmuMul:
    """x_mu_mul against the enumerated Young sum, and its zero test, which
    ``m_mu_kills`` makes, against m_mu_mul's: the (L_i - Q_k) factors never
    make a product zero."""

    # r >= 2, so the L product of m_mu is nontrivial for most weights
    @pytest.mark.parametrize("n,m,q_one", [
        (3, (1, 2), False), (3, (1, 2), True), (3, (2, 2), False),
        (4, (2, 2, 2), False), (4, (2, 2, 2), True), (4, (1, 3), True),
    ])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_zero_exactly_when_m_mu_times_the_operand_is(self, n, m, q_one, data):
        ctx = HeckeContext(n, len(m), q_one=q_one)
        shape = Shape(m)
        mu = data.draw(st.sampled_from(comb.enumerate_compositions(n, shape)))
        D, killed = data.draw(x_mu_operands(ctx, mu))
        value = x_mu_mul(ctx, young_parts(mu), D)
        assert value == young_subgroup_sum(ctx, mu) * D
        assert value.is_zero == m_mu_mul(ctx, mu, D).is_zero
        # asked twice, the second time from the memo
        assert m_mu_kills(ctx, mu, D) == m_mu_kills(ctx, mu, D) == value.is_zero
        if killed:
            assert value.is_zero

    def test_parts_are_the_ordered_nonzero_blocks(self):
        assert young_parts(((2, 0), (1,), (0, 3))) == (2, 1, 3)
        assert young_parts(((0,), (0,))) == ()


def counting_routes(monkeypatch):
    """Record each (parts, D) routed by ``_x_mu_route``, and each decided by
    the coset sweep and by the right-coset collapse, under the keys
    "route", "sweep" and "collapse"."""
    decisions = {"route": [], "sweep": [], "collapse": []}
    for key, name in (("route", "_x_mu_route"), ("sweep", "x_mu_mul"),
                      ("collapse", "_x_mu_collapse_sums")):
        def counted(ctx, parts, D, key=key, real=getattr(hecke_mod, name)):
            decisions[key].append((parts, D))
            return real(ctx, parts, D)

        monkeypatch.setattr(hecke_mod, name, counted)
    return decisions


class TestIota:
    """iota, the anti-involution fixing every T_i and L_j."""

    @pytest.mark.parametrize("n,q_one", [(3, False), (3, True), (4, False)])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_anti_involution(self, n, q_one, data):
        ctx = HeckeContext(n, 2, q_one=q_one)
        a, b = data.draw(right_operands(ctx)), data.draw(right_operands(ctx))
        assert iota(ctx, a * b) == iota(ctx, b) * iota(ctx, a)
        assert iota(ctx, iota(ctx, a)) == a

    def test_generators_are_fixed(self, ctx4):
        for i in range(1, 4):
            assert iota(ctx4, ctx4.T(i)) == ctx4.T(i)
        for j in range(1, 5):
            assert iota(ctx4, ctx4.L(j, 2)) == ctx4.L(j, 2)

    def test_inverts_the_permutation(self, ctx4):
        # T_1 T_2 T_3 is T_w for a 4-cycle w; iota gives T_3 T_2 T_1 = T_{w^-1}
        assert iota(ctx4, ctx4.Tword((1, 2, 3))) == ctx4.Tword((3, 2, 1))
        assert iota(ctx4, ctx4.Tword((1, 2)).shift_L(1, 1)) == (
            ctx4.Tword((2, 1)) * ctx4.L(1))


@st.composite
def collapse_operands(draw, ctx, mu):
    """An ``x_mu_operands`` operand, perturbed or not: one coefficient off
    by one or one term added, so a killed operand mostly stops being one."""
    D, _killed = draw(x_mu_operands(ctx, mu))
    if draw(st.booleans()):
        if D.terms and draw(st.booleans()):
            key = draw(st.sampled_from(sorted(D.terms)))
            terms = dict(D.terms)
            terms[key] += draw(st.sampled_from((1, -1)))
            D = ctx.from_terms({k: c for k, c in terms.items() if c})
        else:
            D = D + ctx.Tword(draw(st.lists(st.integers(1, ctx.n - 1), max_size=3)))
    return D


class TestCollapse:
    """The right-coset collapse against the coset sweep, the reference."""

    # blocks of size 3 and 4, in both orders next to a smaller block, and
    # (2, 1) against (1, 2)
    @pytest.mark.parametrize("mu", [
        ((3,),), ((4,),), ((2,), (1,)), ((1,), (2,)), ((1,), (3,)), ((3,), (1,)),
        ((2, 2),), ((1, 3),), ((2,), (2,)),
    ])
    @pytest.mark.parametrize("q_one", [False, True])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_equals_the_sweep(self, mu, q_one, data):
        ctx = HeckeContext(sum(map(sum, mu)), len(mu), q_one=q_one)
        D = data.draw(collapse_operands(ctx, mu))
        parts = young_parts(mu)
        assert _x_mu_collapse_sums(ctx, parts, D).is_zero == x_mu_mul(ctx, parts, D).is_zero

    @pytest.mark.parametrize("mu", [((3,),), ((1,), (3,)), ((2, 2),)])
    def test_kills_every_killed_operand(self, mu):
        ctx = HeckeContext(sum(map(sum, mu)), len(mu))
        q = ctx.scalar(ctx.ring.q)
        parts = young_parts(mu)
        for i in young_generators(mu):
            for D in (ctx.one(), ctx.Tword((2, 1)), ctx.Tword((1, 2)).shift_L(3, 1)):
                killed = (ctx.T(i) - q) * D
                assert _x_mu_collapse_sums(ctx, parts, killed).is_zero
                assert not _x_mu_collapse_sums(ctx, parts, killed + ctx.T(1)).is_zero

    def test_key_out_of_range_raises(self):
        # the collapse shifts q^8191 T_1 by q^{l(u)} = q: out of range
        ctx = HeckeContext(3, 1)
        D = ctx.T(1).scale(ctx.ring.q_pow(8191))
        with pytest.raises(EngineError, match="packed key range"):
            _x_mu_collapse_sums(ctx, (3,), D)
        with pytest.raises(EngineError, match="packed key range"):
            x_mu_mul(ctx, (3,), D)


class TestMmuKills:
    """The memo of m_mu_kills, the one decision of m_mu * D == 0 (its
    verdicts are tested in ``TestXmuMul``)."""

    def test_keys_the_ordered_blocks(self):
        # the same difference under x_(2,1) and x_(1,2): a memo keyed by the
        # sorted or unordered blocks would hand the second the first's verdict
        ctx = HeckeContext(3, 2)
        shape = Shape((1, 1))
        D = ctx.T(1) - ctx.scalar(ctx.ring.q)
        first = _mm_check("f", {}, ctx, ((2,), (1,)), D)
        second = _mm_check("f", {}, ctx, ((1,), (2,)), D)
        assert first["ok"]
        assert not second["ok"]
        assert set(ctx._kills) == {((2, 1), D), ((1, 2), D)}
        mm = reference_m_mu(ctx, ((1,), (2,)), shape)
        assert second["detail"] == {"lhs_minus_rhs": json_terms(mm * D)[:3]}

    def test_a_new_difference_is_decided_afresh(self):
        ctx = HeckeContext(3, 2)
        mu = ((2,), (1,))
        q = ctx.scalar(ctx.ring.q)
        assert m_mu_kills(ctx, mu, ctx.T(1) - q)
        assert not m_mu_kills(ctx, mu, ctx.T(2) - q)
        # equal contents are one question, however the element was built
        assert m_mu_kills(ctx, mu, -q + ctx.T(1))
        assert len(ctx._kills) == 2

    def test_memo_dies_with_its_context(self):
        ctx = HeckeContext(3, 2)
        D = ctx.T(1) - ctx.scalar(ctx.ring.q)
        assert m_mu_kills(ctx, ((2,), (1,)), D)
        assert ctx._kills
        ref = weakref.ref(ctx)
        del ctx, D
        gc.collect()
        assert ref() is None
        assert not HeckeContext(3, 2)._kills

    def test_one_decision_per_distinct_question(self, monkeypatch):
        # the m_mu identity families ask about equal (blocks, difference)
        # pairs under different families, weights and difference keys
        decisions = counting_routes(monkeypatch)
        real_kills = hecke_mod.m_mu_kills
        asked = []

        def counted_kills(ctx, mu, D):
            asked.append((young_parts(mu), D))
            return real_kills(ctx, mu, D)

        monkeypatch.setattr(hecke_mod, "m_mu_kills", counted_kills)
        monkeypatch.setattr(suite_mod, "m_mu_kills", counted_kills)
        ctx = HeckeContext(3, 3)
        shape = Shape((2, 2, 2))
        checks = verify_m_mu_L_T(ctx, shape) + verify_m_mu_L_T_etc(ctx, shape)
        assert all(c["ok"] for c in checks)
        decided = decisions["sweep"] + decisions["collapse"]
        assert len(decided) == len(set(decided)) == len(set(asked)) < len(asked)
        assert set(decided) == set(asked)
        # each decision is routed once
        assert len(decisions["route"]) == len(decided)
        assert set(decisions["route"]) == set(decided)
        # blocks of three take the collapse, the rest the sweep
        assert decisions["sweep"] and decisions["collapse"]

    def test_parts_are_kept_once_per_weight(self):
        # young_parts is memoized on its definition, so two contexts asking
        # three questions each at one weight build its parts once
        mu = ((2,), (1,))
        for ctx in (HeckeContext(3, 2), HeckeContext(3, 2)):
            q = ctx.scalar(ctx.ring.q)
            for D in (ctx.T(1) - q, ctx.T(2) - q, ctx.T(1) - q):
                m_mu_kills(ctx, mu, D)
        info = young_parts.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 5, 1)
        assert young_parts(mu) == (2, 1)

    @pytest.mark.parametrize("mu,route", [
        (((3,), (0,)), "collapse"), (((2,), (1,)), "sweep"), (((1,), (2,)), "sweep"),
        (((2, 2), (2,)), "collapse"), (((2, 1), (1,)), "sweep"),
    ])
    def test_route_follows_the_sweep_passes(self, monkeypatch, mu, route):
        # sum_p C(p, 2) lmul_gen passes: three or more take the collapse, for
        # m_mu_kills and m_mu_divides alike
        decisions = counting_routes(monkeypatch)
        ctx = HeckeContext(sum(map(sum, mu)), 2)
        D = ctx.T(1) + ctx.one()
        assert not m_mu_kills(ctx, mu, D)
        assert [len(decisions["sweep"]), len(decisions["collapse"])] == (
            [1, 0] if route == "sweep" else [0, 1])
        assert m_mu_divides(ctx, mu, D, ctx.ring.one)
        assert [len(decisions["sweep"]), len(decisions["collapse"])] == (
            [2, 0] if route == "sweep" else [0, 2])
        assert decisions["route"] == [(young_parts(mu), D)] * 2


class TestMmuWitness:
    """m_mu_witness, the one report of a failed m_mu identity, against the
    whole product converted in full."""

    @pytest.mark.parametrize("m,q_one", [
        ((1, 2), False), ((1, 2), True), ((2, 2, 2), False), ((2, 2, 2), True),
    ])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_leading_terms_of_the_whole_product(self, m, q_one, data):
        ctx = HeckeContext(3, len(m), q_one=q_one)
        mu = data.draw(st.sampled_from(comb.enumerate_compositions(3, Shape(m))))
        D, _killed = data.draw(x_mu_operands(ctx, mu))
        value = m_mu_mul(ctx, mu, D)
        # killed, or enough groups that only three of them are reported
        assume(value.is_zero or len(value.grouped()) > 3)
        witness = m_mu_witness(ctx, mu, D)
        assert (witness is None) == m_mu_kills(ctx, mu, D) == value.is_zero
        if witness is not None:
            assert witness == json_terms(value)[:3]

    @pytest.mark.parametrize("q_one", [False, True])
    def test_a_long_product(self, q_one):
        ctx = HeckeContext(3, 3, q_one=q_one)
        mu = ((1, 1), (1, 0), (0, 0))
        D = ctx.Tword((1, 2)).shift_L(3, 2) + ctx.L(1) * ctx.T(2)
        value = m_mu_mul(ctx, mu, D)
        assert len(value.grouped()) > 3
        assert m_mu_witness(ctx, mu, D) == json_terms(value)[:3]

    def test_none_when_killed(self):
        ctx = HeckeContext(3, 2)
        D = ctx.T(1) - ctx.scalar(ctx.ring.q)
        assert m_mu_witness(ctx, ((2,), (1,)), D) is None
        assert m_mu_witness(ctx, ((1,), (2,)), D) is not None


class TestMmuDivides:
    """m_mu_divides, decided on x_mu * D, against the A-form quotient of the
    whole m_mu * D.  Each kind of operand reaches one clause of the Gauss
    lemma argument in its docstring: a multiple of g (divisible), a
    ``Fraction`` coefficient (a denominator prime to lprod), a negative Q
    exponent (lprod keeps the lowest Q degree) and a multiple of T_i - q,
    s_i in S_mu (x_mu D = 0, so m_mu D = 0); the mixed kind divides a
    multiple of [e]! by [d]!, either way round."""

    # the verdict each kind of operand must get, None for the mixed kind
    @pytest.mark.parametrize("kind,verdict", [
        ("multiple", True), ("fraction", False), ("negative_Q", False),
        ("killed", True), ("mixed", None),
    ])
    @pytest.mark.parametrize("m,q_one", [
        ((1, 2), False), ((1, 2), True), ((2, 2, 2), False), ((2, 2, 2), True),
    ])
    @settings(max_examples=15, deadline=None)
    @given(data=st.data(), d=st.integers(0, 3))
    def test_against_the_expanded_product(self, m, q_one, kind, verdict, data, d):
        ctx = HeckeContext(3, len(m), q_one=q_one)
        ring = ctx.ring
        weights = comb.enumerate_compositions(3, Shape(m))
        if kind == "killed":
            weights = [mu for mu in weights if young_generators(mu)]
        mu = data.draw(st.sampled_from(weights))
        g = qfactorial(d, ring)
        a = data.draw(a_form_elements(ctx))
        # a nonzero L^c T_w, whose x_mu multiple is nonzero with all its
        # coefficients 1 at q = 1
        b = ctx.term(data.draw(st.tuples(*[st.integers(0, 2)] * 3)),
                     tuple(data.draw(st.permutations(range(3)))), ring.one)
        k = data.draw(st.integers(0, ring.r - 1))
        if kind == "multiple":
            D = a.scale(g)
        elif kind == "fraction":
            D = (a + b.scale(Fraction(1, 2))).scale(g)
        elif kind == "negative_Q":
            D = (a + b.scale(ring.Q(k, -1))).scale(g)
        elif kind == "killed":
            i = data.draw(st.sampled_from(young_generators(mu)))
            c = a + b.scale(Fraction(1, 2)) + b.scale(ring.Q(k, -1))
            D = (ctx.T(i) - ctx.scalar(ring.q)) * c
        else:
            D = a.scale(qfactorial(data.draw(st.integers(0, 3)), ring))
        expected = a_form_quotient(m_mu_mul(ctx, mu, D), g) is not None
        assert m_mu_divides(ctx, mu, D, g) == expected
        if verdict is not None:
            assert expected == verdict

    def test_x_mu_can_supply_the_divisor(self):
        # [2] divides x_(2) (T_1 + q^-1) = [2] x_(2), x_(2) = 1 + q T_1, but not x_(2) T_2
        ctx = HeckeContext(3, 2)
        mu, g = ((2,), (1,)), qfactorial(2, ctx.ring)
        D = ctx.T(1) + ctx.scalar(ctx.ring.q_pow(-1))
        assert m_mu_divides(ctx, mu, D, g)
        assert not m_mu_divides(ctx, mu, ctx.T(2), g)


def lmul_gen_dropping_a_term():
    """``HeckeContext.lmul_gen`` with the last (q - q^-1) term of each push
    of T_i past L_i^d or L_{i+1}^d left out."""
    source = textwrap.dedent(inspect.getsource(HeckeContext.lmul_gen))
    assert source.count("range(abs(d))") == 1
    made = {}
    exec(source.replace("range(abs(d))", "range(abs(d) - 1)"), vars(hecke_mod), made)
    return made["lmul_gen"]


class TestJmWords:
    def test_a_dropped_term_fails_the_words_and_the_affine_braid(self, monkeypatch):
        monkeypatch.setattr(HeckeContext, "lmul_gen", lmul_gen_dropping_a_term())
        ctx = HeckeContext(3, 2)
        checks = verify_jm_normal_form(ctx, word_built_jm(ctx))
        failed = {c["check"] for c in checks if not c["ok"]}
        assert failed == {"jm-normal-form", "affine-braid-T0T1T0T1"}


class TestMmuT:
    """The m-mu-T family, m_mu T_i = q m_mu for s_i in S_mu, decided by
    ``m_mu_kills`` on T_i - q."""

    @pytest.mark.parametrize("q_one", [False, True])
    def test_passes_without_building_m_mu(self, monkeypatch, q_one):
        built = []
        real = hecke_mod.m_mu_mul
        monkeypatch.setattr(hecke_mod, "m_mu_mul", lambda *a: built.append(a) or real(*a))
        ctx = HeckeContext(3, 3, q_one=q_one)
        shape = Shape((2, 2, 2))
        checks = verify_m_mu_T(ctx, shape)
        assert [c["params"] for c in checks] == [
            {"mu": mu, "i": i}
            for mu in comb.enumerate_compositions(3, shape) for i in young_generators(mu)
        ]
        assert checks and all(c["ok"] and "detail" not in c for c in checks)
        assert built == []

    @pytest.mark.parametrize("m", [(3,), (1, 2), (2, 2)])
    def test_a_generator_outside_S_mu_fails_with_detail(self, monkeypatch, m):
        # every s_i asked about every weight: m_mu T_i = q m_mu exactly when
        # s_i lies in S_mu, and a failure lists m_mu T_i - q m_mu
        ctx = HeckeContext(3, len(m))
        shape = Shape(m)
        monkeypatch.setattr(suite_mod, "young_generators", lambda mu: [1, 2])
        checks = verify_m_mu_T(ctx, shape)
        assert len(checks) == 2 * len(comb.enumerate_compositions(3, shape))
        assert not all(c["ok"] for c in checks)
        for c in checks:
            mu, i = c["params"]["mu"], c["params"]["i"]
            assert c["ok"] == (i in young_generators(mu))
            mm = reference_m_mu(ctx, mu, shape)
            diff = mm * ctx.T(i) - mm.scale(ctx.ring.q)
            assert c["ok"] == diff.is_zero
            if c["ok"]:
                assert "detail" not in c
            else:
                assert c["detail"] == {"lhs_minus_rhs": json_terms(diff)[:3]}


class TestBrackets:
    def test_mu_one(self, ctx3):
        assert t_bracket(ctx3, 1, 1, +1) == ctx3.one()

    def test_mu_zero(self, ctx3):
        assert t_bracket(ctx3, 1, 0, +1).is_zero
        assert t_bracket(ctx3, 1, 0, -1).is_zero

    def test_N0_mu2(self, ctx3):
        expected = ctx3.one() + ctx3.T(1).scale(ctx3.ring.q)
        assert t_bracket(ctx3, 0, 2, +1) == expected

    def test_out_of_range(self, ctx3):
        assert t_bracket(ctx3, 2, 2, +1).is_zero
        assert t_bracket(ctx3, 1, 2, -1).is_zero

    def test_paren_factorial_d1(self, ctx3):
        assert t_paren(ctx3, 1, 1, +1) == ctx3.one()
        assert t_paren_factorial(ctx3, 1, 1, +1) == ctx3.one()

    def test_L_commutes(self, ctx3):
        for c in verify_L_commutes_bracket(ctx3):
            assert c["ok"], c

    def test_com_rel(self, ctx4):
        for c in verify_bracket_com_rel(ctx4):
            assert c["ok"], c


# The bracket builders memoized on their context, and each one's body: the
# function the memo keys its entries by.
BUILDERS = {
    f.__wrapped__.__name__: f for f in (
        hecke_mod.t_chain, hecke_mod.t_bracket, hecke_mod.t_paren,
        hecke_mod.t_paren_factorial, hecke_mod.bracket_cofactor, hecke_mod._phi_jm,
    )
}


def hecke_bench_run():
    """The context of a full ``hecke -n 3 -r 3 -m 2,2,2`` run, the
    benchmark's hecke argv, after the run."""
    ctx = HeckeContext(3, 3)
    assert all(c["ok"] for c in verify_hecke(ctx, Shape((2, 2, 2))))
    return ctx


def schur_run():
    """The Hecke context of a full ``schur -n 3 -r 2 -m 2,2 --deg 1`` run
    (both relation parts and the divided powers), after the run."""
    sctx = SchurContext(3, Shape((2, 2)))
    checks = verify_relations(sctx, deg=1) + verify_divided_powers(sctx)
    assert all(c["ok"] for c in checks)
    return sctx.hctx


class TestBuilderMemo:
    """The bracket builders keep each element in ``HeckeContext._built``,
    one entry per (body, integer arguments), and hand it out shared."""

    @pytest.mark.parametrize("run,used", [
        (hecke_bench_run, set(BUILDERS)),
        (schur_run, {"t_chain", "t_bracket", "_phi_jm"}),
    ])
    def test_every_entry_equals_a_fresh_build(self, run, used):
        # after the whole run, so an entry a caller wrote to would differ
        ctx = run()
        assert {key[0].__name__ for key in ctx._built} == used
        for (body, *args), value in ctx._built.items():
            fresh = HeckeContext(ctx.n, ctx.r, q_one=ctx.ring.q_one)
            assert value.terms == body(fresh, *args).terms, (body.__name__, args)
            # a second call is the entry itself
            assert BUILDERS[body.__name__](ctx, *args) is value

    def test_each_body_runs_once_per_distinct_argument(self):
        codes = {f.__wrapped__.__code__: name for name, f in BUILDERS.items()}
        runs = dict.fromkeys(BUILDERS, 0)

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in codes:
                runs[codes[frame.f_code]] += 1

        sys.setprofile(profile)
        try:
            ctx = hecke_bench_run()
        finally:
            sys.setprofile(None)
        assert runs == {"t_chain": 6, "t_bracket": 60, "t_paren": 24,
                        "t_paren_factorial": 24, "bracket_cofactor": 32, "_phi_jm": 49}
        entries = dict.fromkeys(BUILDERS, 0)
        for body, *_ in ctx._built:
            entries[body.__name__] += 1
        assert entries == runs

    def test_phi_jm_keys_its_indices_as_a_tuple(self, ctx3):
        assert phi_jm(ctx3, 2, +1, [2, 1]) is phi_jm(ctx3, 2, +1, (2, 1))

    def test_memo_dies_with_its_context(self):
        ctx = HeckeContext(3, 2)
        assert not t_bracket(ctx, 0, 2, +1).is_zero
        assert ctx._built
        ref = weakref.ref(ctx)
        del ctx
        gc.collect()
        assert ref() is None


# -- the one-sided elements as hand-mirrored plus and minus copies ----------


def _mirrored_t_bracket(ctx, N, mu, sign):
    if mu == 0:
        return ctx.zero()
    n = ctx.n
    if sign > 0:
        if N + mu > n:
            return ctx.zero()
        out = ctx.one()
        for h in range(1, mu):
            word = ctx.Tword(range(N + 1, N + h + 1))
            out = out + word.scale(ctx.ring.q_pow(h))
        return out
    if N > n or N < mu:
        return ctx.zero()
    out = ctx.one()
    for h in range(1, mu):
        word = ctx.Tword(range(N - 1, N - h - 1, -1))
        out = out + word.scale(ctx.ring.q_pow(h))
    return out


def _mirrored_t_paren(ctx, N, d, sign):
    n = ctx.n
    if sign > 0:
        if N + d > n:
            return ctx.zero()
        out = ctx.one()
        for h in range(1, d):
            word = ctx.Tword(range(N + d - h, N + d))
            out = out + word.scale(ctx.ring.q_pow(h))
        return out
    if N > n or N < d:
        return ctx.zero()
    out = ctx.one()
    for h in range(1, d):
        word = ctx.Tword(range(N - d + h, N - d, -1))
        out = out + word.scale(ctx.ring.q_pow(h))
    return out


def _mirrored_cofactor(ctx, N, mu, d, sign):
    if d == 0:
        return ctx.one()
    out = _mirrored_cofactor(ctx, N, d - 1, d - 1, sign)
    for h in range(1, mu - d + 1):
        if sign > 0:
            word = ctx.Tword(range(N + d, N + d + h))
        else:
            word = ctx.Tword(range(N - d, N - d - h, -1))
        out = out + (word * _mirrored_cofactor(ctx, N, d + h - 1, d - 1, sign)).scale(
            ctx.ring.q_pow(h)
        )
    return out


def _outcome(f, *args):
    """f(*args), or ValueError when it raises one (a T_0 or T_n letter)."""
    try:
        return f(*args)
    except ValueError:
        return ValueError


class TestOneSidedMatchMirrored:
    """Each one-sided element, written once with the sign as a parameter,
    against the hand-mirrored plus and minus copies above."""

    @pytest.mark.parametrize("n", [3, 4])
    def test_brackets_and_parens(self, n):
        ctx = HeckeContext(n, 2)
        raised = 0
        for sign, N, length in itertools.product(
            (+1, -1), range(-1, n + 2), range(0, n + 2)
        ):
            new = _outcome(t_bracket, ctx, N, length, sign)
            assert new == _outcome(_mirrored_t_bracket, ctx, N, length, sign)
            raised += new is ValueError
            new = _outcome(t_paren, ctx, N, length, sign)
            old = _outcome(_mirrored_t_paren, ctx, N, length, sign)
            if (N, length, sign) == (-1, 0, +1):
                # the only point where the windows differ: the mirrored plus
                # side never tested the low end of its window, so it gave
                # (T; -1, 0)^+ = 1; no caller asks for d = 0 or N < 0
                assert old == ctx.one() and new.is_zero
            else:
                assert new == old
            raised += new is ValueError
        assert raised  # the range reaches the T_0 letters at N = -1

    @pytest.mark.parametrize("n", [3, 4])
    def test_cofactor(self, n):
        ctx = HeckeContext(n, 2)
        raised = 0
        for sign, N, mu, d in itertools.product(
            (+1, -1), range(-1, n + 2), range(0, n + 2), range(0, n + 2)
        ):
            new = _outcome(bracket_cofactor, ctx, N, mu, d, sign)
            assert new == _outcome(_mirrored_cofactor, ctx, N, mu, d, sign)
            raised += new is ValueError
        assert raised


class TestDividedBrackets:
    def test_d0(self, ctx3):
        assert stacked_bracket(ctx3, 1, 2, 0, +1) == ctx3.one()
        assert bracket_cofactor(ctx3, 1, 2, 0, +1) == ctx3.one()

    def test_mu_less_than_d(self, ctx3):
        # the suite pairs a zero bracket below d with the zero cofactor
        assert stacked_bracket(ctx3, 0, 1, 2, +1).is_zero
        checks = [c for c in verify_divided_brackets(ctx3, dmax=2)
                  if c["params"] == {"sign": 1, "N": 0, "mu": 1, "d": 2}]
        assert [(c["check"], c["ok"]) for c in checks] == [
            ("divided-bracket-cofactor", True), ("divided-bracket-vanishing", True)]

    def test_reconstruction_mismatch_fails_the_cofactor_check(self, monkeypatch):
        ctx = HeckeContext(3, 2)
        real = suite_mod.stacked_bracket
        # the suite's bracket and its expansion both read it
        monkeypatch.setattr(suite_mod, "stacked_bracket", lambda *a: real(*a).scale(2))
        assert not bracket_cofactor(ctx, 0, 2, 1, +1).is_zero
        failed = [c for c in verify_divided_brackets(ctx, dmax=2) if not c["ok"]]
        assert {c["check"] for c in failed} == {"divided-bracket-cofactor"}

    def test_nonzero_bracket_below_d_fails_the_vanishing_check(self, monkeypatch):
        ctx = HeckeContext(3, 2)
        real = hecke_mod.stacked_bracket

        def broken(c, N, mu, d, sign):
            extra = c.one() if mu < d else c.zero()
            return real(c, N, mu, d, sign) + extra

        monkeypatch.setattr(suite_mod, "stacked_bracket", broken)
        failed = [c for c in verify_divided_brackets(ctx, dmax=2) if not c["ok"]]
        assert {"mu": 1, "d": 2, "N": 0, "sign": 1} in [
            c["params"] for c in failed if c["check"] == "divided-bracket-vanishing"
        ]

    def test_d1(self, ctx3):
        prod = stacked_bracket(ctx3, 0, 2, 1, +1)
        assert prod == t_bracket(ctx3, 0, 2, +1)
        assert bracket_cofactor(ctx3, 0, 2, 1, +1) == prod  # (T;N,1)^+! = 1

    def test_suite(self, ctx3):
        for c in verify_divided_brackets(ctx3, dmax=3):
            assert c["ok"], c


class TestEquality:
    def test_syntactic(self, ctx3):
        a = ctx3.T(1) + ctx3.L(2)
        assert a == ctx3.T(1) + ctx3.L(2)

    def test_distinct(self, ctx3):
        assert ctx3.one() != ctx3.T(1)

    def test_other_context_never_equal(self, ctx3):
        assert ctx3.one() != HeckeContext(3, 2).one()

    def test_m_mu_T_via_equal(self, ctx3):
        mu = ((2, 0), (1, 0))
        mm = m_mu(ctx3, mu)
        assert mm * ctx3.T(1) == mm.scale(ctx3.ring.q)


class TestPhiJm:
    def test_degree_one(self, ctx3):
        assert phi_jm(ctx3, 1, +1, [2, 1]) == ctx3.L(2) + ctx3.L(1)

    def test_empty(self, ctx3):
        assert phi_jm(ctx3, 2, +1, []).is_zero

    def test_commutes_with_m_mu(self, ctx3):
        mu = ((1, 1), (1, 0))
        mm = m_mu(ctx3, mu)
        p = phi_jm(ctx3, 2, +1, [2, 1])
        assert mm * p == p * mm


class TestJson:
    def test_roundtrip_shape(self, ctx3):
        # canonical order: L-vector lex first, then permutation; m_mu = 1
        data = m_mu_witness(ctx3, ((1, 1, 1),), ctx3.T(1) + ctx3.L(2, 2))
        assert data[0]["L"] == [0, 0, 0] and data[0]["w"] == [2, 1, 3]
        assert data[1]["L"] == [0, 2, 0] and data[1]["w"] == [1, 2, 3]


class TestSuiteSmall:
    def test_full_suite_n3_r2(self):
        ctx = HeckeContext(3, 2)
        checks = verify_hecke(ctx, Shape((2, 2)), t_comm=3, t_mmult=2, t_etc=2, dmax=2)
        bad = [c for c in checks if not c["ok"]]
        assert not bad, bad[:3]


def _reference_m_mu_L_T(ctx, shape, tmax=3):
    """The m-mu-L-T relations as left-associated chains on m_mu, compared
    with ==."""
    checks = []
    ring = ctx.ring
    for mu in comb.enumerate_compositions(ctx.n, shape):
        mm = m_mu(ctx, mu)
        flat = comb.flatten(mu)
        for pos in shape.positions():
            N = comb.jm_position(mu, shape.node(pos), shape)
            entry = flat[pos - 1]
            if entry:
                for t in range(0, tmax + 1):
                    lnt = mm if t == 0 else mm * ctx.L(N, t)
                    for p in range(1, entry + 1):
                        lhs = lnt * t_bracket(ctx, N, p, -1)
                        dec = list(range(N, N - p, -1))
                        rhs = (mm * phi_jm(ctx, t, +1, dec)).scale(
                            ring.q_pow(2 * p - 2)
                        )
                        params = {"mu": mu, "pos": pos, "t": t, "p": p}
                        checks.append(_ref_check("m-mu-L-T-i", params, lhs, rhs))
            if pos >= shape.total:
                continue
            succ = flat[pos]
            if succ:
                for t in range(0, tmax + 1):
                    lnt = mm if t == 0 else mm * ctx.L(N + 1, t)
                    for p in range(1, succ + 1):
                        lhs = lnt * t_bracket(ctx, N, p, +1)
                        rhs = mm * phi_jm(ctx, t, -1, list(range(N + 1, N + p + 1)))
                        params = {"mu": mu, "pos": pos, "t": t, "p": p}
                        checks.append(_ref_check("m-mu-L-T-ii", params, lhs, rhs))
    return checks


def _reference_m_mu_L_T_etc(ctx, shape, tmax=2):
    """The four mixed-bracket expansions as left-associated chains on m_mu,
    compared with ==."""
    checks = []
    ring = ctx.ring
    qq = ring.qq_comm()
    for mu in comb.enumerate_compositions(ctx.n, shape):
        mm = m_mu(ctx, mu)
        flat = comb.flatten(mu)
        for pos in range(1, shape.total):
            N = comb.jm_position(mu, shape.node(pos), shape)
            mi = flat[pos - 1]
            mi1 = flat[pos]
            dec = list(range(N, N - mi, -1))
            inc = list(range(N + 1, N + mi1 + 1))
            for t in range(0, tmax + 1):
                params = {"mu": mu, "pos": pos, "t": t}
                lnt = mm if (t == 0 or N == 0) else mm * ctx.L(N, t)
                if mi != 0:
                    b_plus = t_bracket(ctx, N - 1, mi1 + 1, +1)
                    b_minus = t_bracket(ctx, N, mi, -1)
                    lhs1 = lnt * b_plus * b_minus
                    rhs1 = (mm * phi_jm(ctx, t, +1, dec)).scale(ring.q_pow(2 * mi - 2))
                    if mi1 != 0:
                        rhs1 = rhs1 + lnt * (
                            t_bracket(ctx, N + 1, mi + 1, -1) - ctx.one()
                        ) * t_bracket(ctx, N, mi1, +1)
                    checks.append(_ref_check("m-mu-L-T-etc-i", params, lhs1, rhs1))
                    lhs2 = lnt * b_plus * ctx.L(N) * b_minus
                    rhs2 = (mm * phi_jm(ctx, t + 1, +1, dec)).scale(
                        ring.q_pow(2 * mi - 2)
                    )
                    if mi1 != 0:
                        rhs2 = rhs2 - (
                            mm * phi_jm(ctx, t, +1, dec) * phi_jm(ctx, 1, -1, inc)
                        ).scale(qq * ring.q_pow(2 * mi - 1))
                    diff2 = b_plus - ctx.one()
                    if not diff2.is_zero:
                        rhs2 = rhs2 + lnt * ctx.L(N + 1) * diff2 * b_minus
                    checks.append(_ref_check("m-mu-L-T-etc-ii", params, lhs2, rhs2))
                if mi1 != 0:
                    b_minus1 = t_bracket(ctx, N + 1, mi + 1, -1)
                    b_plus0 = t_bracket(ctx, N, mi1, +1)
                    lt = ctx.L(N + 1, t) if t else ctx.one()
                    head = ring.one
                    if t != 0:
                        head = head + (ring.q_pow(2 * mi) - ring.one)
                    cross = ctx.zero()
                    cross4 = ctx.zero()
                    if mi != 0:
                        for b in range(1, t):
                            low = mm * phi_jm(ctx, t - b, +1, dec)
                            scale = qq * ring.q_pow(2 * mi - 1)
                            cross = cross + (low * phi_jm(ctx, b, -1, inc)).scale(scale)
                            cross4 = cross4 + (
                                low * phi_jm(ctx, b + 1, -1, inc)
                            ).scale(scale)
                    tail = lnt * (b_minus1 - ctx.one()) * b_plus0
                    lhs3 = mm * b_minus1 * lt * b_plus0
                    rhs3 = (mm * phi_jm(ctx, t, -1, inc)).scale(head) + cross + tail
                    checks.append(_ref_check("m-mu-L-T-etc-iii", params, lhs3, rhs3))
                    lhs4 = mm * ctx.L(N + 1) * b_minus1 * lt * b_plus0
                    rhs4 = (
                        (mm * phi_jm(ctx, t + 1, -1, inc)).scale(head)
                        + cross4
                        + lnt * ctx.L(N + 1) * (b_minus1 - ctx.one()) * b_plus0
                    )
                    checks.append(_ref_check("m-mu-L-T-etc-iv", params, lhs4, rhs4))
    return checks


def _ref_check(name, params, lhs, rhs):
    """A check record as the suite writes it: on failure, the first three
    terms of lhs - rhs."""
    if lhs == rhs:
        return check(name, params, True)
    return check(name, params, False, {"lhs_minus_rhs": json_terms(lhs - rhs)[:3]})


M_MU_FAMILIES = {
    "m-mu-L-T-i", "m-mu-L-T-ii",
    "m-mu-L-T-etc-i", "m-mu-L-T-etc-ii", "m-mu-L-T-etc-iii", "m-mu-L-T-etc-iv",
}


class TestMmuDifferences:
    """The m_mu identities are decided on X - Y, and every record, details
    included, matches the left-associated reference."""

    # (2, 2, 2) has many weights sharing (N, entries), so most checks reuse
    # a difference and a verdict
    @pytest.mark.parametrize("m", [(1, 2), (2, 2), (2, 2, 2)])
    def test_verdicts_match_left_associated_reference(self, m):
        ctx = HeckeContext(3, len(m))
        shape = Shape(m)
        new = verify_m_mu_L_T(ctx, shape) + verify_m_mu_L_T_etc(ctx, shape)
        ref = _reference_m_mu_L_T(ctx, shape) + _reference_m_mu_L_T_etc(ctx, shape)
        assert new == ref
        assert {c["check"] for c in new} == M_MU_FAMILIES

    # the details too: each is the first terms of m_mu (X - Y), and at r = 3
    # most weights have a nontrivial (L_i - Q_k) product
    @pytest.mark.parametrize("m", [(1, 2), (2, 2), (2, 2, 2)])
    def test_failures_match_reference_under_a_broken_phi(self, monkeypatch, m):
        real = hecke_mod.phi_jm
        monkeypatch.setattr(suite_mod, "phi_jm", lambda *a: real(*a).scale(2))
        monkeypatch.setitem(globals(), "phi_jm", suite_mod.phi_jm)
        ctx = HeckeContext(3, len(m))
        shape = Shape(m)
        new = verify_m_mu_L_T(ctx, shape) + verify_m_mu_L_T_etc(ctx, shape)
        ref = _reference_m_mu_L_T(ctx, shape) + _reference_m_mu_L_T_etc(ctx, shape)
        assert new == ref
        assert not all(c["ok"] for c in new)

    def test_m_mu_kills_a_nonzero_difference(self):
        # m-mu-L-T-ii at mu = ((0,), (1, 2)), pos 2, t 0, p 2: the bracket
        # [T; 1, 2]^+ and Phi_0^- of L_2, L_3 differ, and m_mu = 1 + q T_2
        # kills the difference, so the check passes only through m_mu
        ctx = HeckeContext(3, 2)
        shape = Shape((1, 2))
        mu = ((0,), (1, 2))
        diff = t_bracket(ctx, 1, 2, +1) - phi_jm(ctx, 0, -1, [2, 3])
        assert not diff.is_zero
        assert (m_mu(ctx, mu) * diff).is_zero
        (pinned,) = [
            c for c in verify_m_mu_L_T(ctx, shape)
            if c["check"] == "m-mu-L-T-ii"
            and c["params"] == {"mu": ((0,), (1, 2)), "pos": 2, "t": 0, "p": 2}
        ]
        assert pinned["ok"] and "detail" not in pinned

    def test_every_family_can_fail_with_detail(self, monkeypatch):
        real = hecke_mod.phi_jm
        monkeypatch.setattr(suite_mod, "phi_jm", lambda *a: real(*a).scale(2))
        ctx = HeckeContext(3, 2)
        shape = Shape((2, 2))
        checks = verify_m_mu_L_T(ctx, shape) + verify_m_mu_L_T_etc(ctx, shape)
        failed = [c for c in checks if not c["ok"]]
        assert {c["check"] for c in failed} == M_MU_FAMILIES
        for c in failed:
            terms = c["detail"]["lhs_minus_rhs"]
            assert 1 <= len(terms) <= 3
            keys = [(t["L"], t["w"]) for t in terms]
            assert keys == sorted(keys)
        assert all("detail" not in c for c in checks if c["ok"])

    def test_detail_is_the_leading_terms_of_the_difference(self, monkeypatch):
        real = hecke_mod.phi_jm
        monkeypatch.setattr(suite_mod, "phi_jm", lambda *a: real(*a).scale(2))
        ctx = HeckeContext(3, 2)
        shape = Shape((1, 2))
        mu = ((0,), (1, 2))
        (c,) = [
            c for c in verify_m_mu_L_T(ctx, shape)
            if c["check"] == "m-mu-L-T-ii"
            and c["params"] == {"mu": ((0,), (1, 2)), "pos": 2, "t": 1, "p": 2}
        ]
        mm = m_mu(ctx, mu)
        lhs = mm * ctx.L(2) * t_bracket(ctx, 1, 2, +1)
        rhs = mm * real(ctx, 1, -1, [2, 3]).scale(2)
        assert not c["ok"]
        assert c["detail"] == {"lhs_minus_rhs": json_terms(lhs - rhs)[:3]}


_real_lt_difference = suite_mod._lt_difference
_real_etc_differences = suite_mod._etc_differences


def _faulty_lt_difference(ctx, sign, N, p, t):
    # one m-mu-L-T key off by 1: m_mu * 1 = m_mu is never zero
    diff = _real_lt_difference(ctx, sign, N, p, t)
    return diff + ctx.one() if (sign, N, p, t) == (-1, 2, 1, 0) else diff


def _faulty_etc_differences(ctx, N, mi, mi1, t):
    # one m-mu-L-T-etc-iii key off by 1
    diffs = list(_real_etc_differences(ctx, N, mi, mi1, t))
    if (N, mi, mi1, t) == (1, 1, 2, 0):
        diffs[2] = diffs[2] + ctx.one()
    return tuple(diffs)


class TestWitnessPerWeight:
    """A question decided once per (Young blocks, difference key) still
    reports each failure with its own weight's witness: m_mu's L factors
    read the component sizes, which the blocks do not hold."""

    # (0,) | (2,) and (2,) | (0,) at n = 2, m = (1, 1), and (0,) | (1, 2)
    # and (1,) | (2, 0) at n = 3, m = (1, 2), share their Young blocks and the
    # faulty key, and differ in their component sizes.  The failed checks
    # and the digests were taken with one witness per check, each built at
    # its own weight.
    @pytest.mark.parametrize("name,fault,verify,n,m,failed,digest", [
        ("_lt_difference", _faulty_lt_difference, verify_m_mu_L_T, 2, (1, 1),
         [("m-mu-L-T-i", ((0,), (2,))), ("m-mu-L-T-i", ((1,), (1,))),
          ("m-mu-L-T-i", ((2,), (0,)))],
         "09ff8674ee6d6268d01adc4dcd9017e5adda9b7853bf16efb4298c051b0b71e6"),
        ("_etc_differences", _faulty_etc_differences, verify_m_mu_L_T_etc, 3, (1, 2),
         [("m-mu-L-T-etc-iii", ((0,), (1, 2))), ("m-mu-L-T-etc-iii", ((1,), (2, 0)))],
         "b34579a36878d50163bda09d67823ce6a0edb98f5ac0bc35700cfea20f23c4ae"),
    ])
    def test_each_failure_keeps_its_weights_witness(
        self, monkeypatch, name, fault, verify, n, m, failed, digest
    ):
        monkeypatch.setattr(suite_mod, name, fault)
        ctx = HeckeContext(n, len(m))
        checks = verify(ctx, Shape(m))
        bad = [c for c in checks if not c["ok"]]
        assert [(c["check"], c["params"]["mu"]) for c in bad] == failed
        # the first and last failures ask one question, with two witnesses
        assert young_parts(failed[0][1]) == young_parts(failed[-1][1])
        assert bad[0]["detail"] != bad[-1]["detail"]
        canonical = json.dumps(checks, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(canonical.encode()).hexdigest() == digest


class TestSharedDifferences:
    """Each difference is built once per distinct input of a ``verify_*``
    call."""

    @staticmethod
    def _builds(monkeypatch, name, verify, m):
        real = getattr(suite_mod, name)
        calls = []

        def counted(ctx, *key):
            calls.append(key)
            return real(ctx, *key)

        monkeypatch.setattr(suite_mod, name, counted)
        verify(HeckeContext(3, len(m)), Shape(m))
        return calls

    @pytest.mark.parametrize("name,verify,count", [
        ("_lt_difference", verify_m_mu_L_T, 48),
        ("_etc_differences", verify_m_mu_L_T_etc, 60),
    ])
    def test_each_difference_is_built_once_per_call(self, monkeypatch, name, verify, count):
        # a second call on a new context builds them all again: the memo
        # belongs to the call
        for _ in range(2):
            calls = self._builds(monkeypatch, name, verify, (2, 2, 2))
            assert len(calls) == len(set(calls)) == count

    def test_verdicts_belong_to_the_call(self, monkeypatch):
        shape = Shape((2, 2))
        assert all(c["ok"] for c in verify_m_mu_L_T(HeckeContext(3, 2), shape))
        real = hecke_mod.phi_jm
        monkeypatch.setattr(suite_mod, "phi_jm", lambda *a: real(*a).scale(2))
        assert not all(c["ok"] for c in verify_m_mu_L_T(HeckeContext(3, 2), shape))
