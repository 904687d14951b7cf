import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycloschur.coeff import (
    EngineError,
    LaurentRing,
    MultiLaurent,
    _divexact_univariate,
    ml_to_json,
    qfactorial,
    qint,
)
from cycloschur.combinatorics import Shape
from cycloschur.hecke import HeckeContext, a_form_quotient
from cycloschur.liealg import LieContext
from cycloschur.symfun import phi

from coeff_helpers import CoeffError, monomial, specialize

R2 = LaurentRing(2)
# one strand, so that a Hecke scalar is a ring element of R2 and
# ``a_form_quotient`` divides ring elements
H1 = HeckeContext(1, 2)


def quotient(p, g):
    """p / g by ``hecke.a_form_quotient`` on the scalar p: a ring element, or
    None when the quotient leaves the A-form."""
    quo = a_form_quotient(H1.scalar(p), g)
    if quo is None:
        return None
    return quo.grouped().get(((0,), (0,)), R2.zero)


def gauss_binomial(d, c):
    """[d choose c] = [d][d-1]...[d-c+1] / [c]!, divided by ``quotient``."""
    num = R2.one
    for j in range(c):
        num = num * qint(d - j, R2)
    return quotient(num, qfactorial(c, R2))


def qdict(p):
    """A ring element in q alone as its {q exponent: coefficient} dict."""
    assert all(exps[1:] == (0,) * R2.r for exps, _ in p.sorted_terms())
    return {exps[0]: c for exps, c in p.sorted_terms()}


def in_a_form(p):
    return all(
        type(c) is int and min(exps[1:]) >= 0 for exps, c in p.sorted_terms()
    )


# Q_0^3 Q_1^3 moves the Q exponents of ``laurents`` into the A-form
A_SHIFT = monomial(R2, (0, 3, 3))


def ml_from_json(data, nvars):
    """The inverse of ``ml_to_json``: a reference for its round trip."""
    terms = {}
    for item in data:
        exps = tuple(item["exponents"])
        terms[exps] = Fraction(int(item["num"]), int(item["den"]))
    return MultiLaurent(nvars, terms)


def ml(terms):
    return MultiLaurent(R2.nvars, terms)


@st.composite
def laurents(draw, ring=R2, max_den=5):
    n = draw(st.integers(0, 4))
    terms = {}
    for _ in range(n):
        exps = tuple(draw(st.integers(-3, 3)) for _ in range(ring.nvars))
        num = draw(st.integers(-9, 9))
        den = draw(st.integers(1, max_den))
        terms[exps] = terms.get(exps, Fraction(0)) + Fraction(num, den)
    return MultiLaurent(ring.nvars, terms)


class TestQInt:
    def test_zero(self):
        assert qint(0, R2).is_zero

    def test_one(self):
        assert qint(1, R2) == R2.one

    def test_three_by_product(self):
        # independent oracle: [3] (q - q^{-1}) = q^3 - q^{-3}
        assert qint(3, R2) * (R2.q - R2.qinv) == R2.q_pow(3) - R2.q_pow(-3)
        assert qint(3, R2) == ml({(2, 0, 0): 1, (0, 0, 0): 1, (-2, 0, 0): 1})

    @pytest.mark.parametrize("d", range(-20, 21))
    def test_defining_identity(self, d):
        assert qint(-d, R2) == -qint(d, R2)
        assert qint(d, R2) * (R2.q - R2.qinv) == R2.q_pow(d) - R2.q_pow(-d)

    def test_q_one_ring(self):
        r = LaurentRing(2, q_one=True)
        assert qint(5, r) == r.from_fraction(5)
        assert qfactorial(3, r) == r.from_fraction(6)


class TestQBinom:
    # Gaussian binomials as A-form quotients: every one lies in Z[q, q^{-1}]
    def test_choose_zero(self):
        assert gauss_binomial(7, 0) == R2.one
        assert gauss_binomial(-3, 0) == R2.one

    def test_two_choose_one(self):
        assert gauss_binomial(2, 1) == R2.q + R2.qinv

    def test_one_choose_two(self):
        assert gauss_binomial(1, 2).is_zero

    @pytest.mark.parametrize("d", range(-10, 11))
    @pytest.mark.parametrize("c", range(0, 11))
    def test_integrality(self, d, c):
        # lies in Z[q, q^{-1}]: integer coefficients, no Q variables
        b = gauss_binomial(d, c)
        for exps, coeff in b.sorted_terms():
            assert coeff.denominator == 1
            assert exps[1:] == (0, 0)

    def test_pascal_recurrence(self):
        # [d c] = q^c [d-1 c] + q^{c-d} [d-1 c-1]
        for d in range(1, 7):
            for c in range(1, 7):
                b = gauss_binomial
                rhs = R2.q_pow(c) * b(d - 1, c) + R2.q_pow(c - d) * b(d - 1, c - 1)
                assert b(d, c) == rhs


class TestRingAxioms:
    @settings(max_examples=60)
    @given(laurents(), laurents(), laurents())
    def test_mul_associative_and_distributive(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=60)
    @given(laurents(), laurents())
    def test_commutative(self, a, b):
        assert a + b == b + a
        assert a * b == b * a

    @settings(max_examples=40)
    @given(laurents())
    def test_units(self, a):
        assert a + R2.zero == a
        assert a * R2.one == a
        assert (a - a).is_zero

    @settings(max_examples=40)
    @given(laurents(), st.integers(0, 4))
    def test_pow(self, a, n):
        expected = R2.one
        for _ in range(n):
            expected = expected * a
        assert a ** n == expected


class TestSpecialize:
    def test_square(self):
        assert specialize(R2.q_pow(2), {"q": 2}) == 4

    def test_qint_at_one(self):
        assert specialize(qint(2, R2), {"q": 1}) == 2

    def test_mixed_monomial(self):
        p = R2.Q(1) * R2.qinv
        assert specialize(p, {"q": 2, "Q1": 3}) == Fraction(3, 2)

    def test_missing_assignment(self):
        with pytest.raises(CoeffError):
            specialize(R2.Q(0), {"q": 2})

    def test_zero_at_negative_exponent(self):
        with pytest.raises(CoeffError):
            specialize(R2.qinv, {"q": 0})

    @settings(max_examples=40)
    @given(laurents(), laurents())
    def test_ring_homomorphism(self, a, b):
        point = {"q": Fraction(2, 3), "Q0": Fraction(5, 7), "Q1": Fraction(-3, 2)}
        assert specialize(a + b, point) == specialize(a, point) + specialize(b, point)
        assert specialize(a * b, point) == specialize(a, point) * specialize(b, point)


class TestDivision:
    def test_exact(self):
        p = (R2.q + R2.qinv) * (R2.Q(0) - R2.Q(1))
        assert quotient(p, R2.q + R2.qinv) == R2.Q(0) - R2.Q(1)

    def test_monomial_divisor(self):
        p = R2.Q(1, 2) * R2.q_pow(-1) + R2.Q(1)
        assert quotient(p, R2.q_pow(2)) == R2.Q(1, 2) * R2.q_pow(-3) + R2.Q(1) * R2.q_pow(-2)

    def test_inexact_is_none(self):
        assert quotient(R2.q + R2.one, R2.q - R2.qinv) is None

    @settings(max_examples=40)
    @given(laurents(), st.integers(1, 4))
    def test_roundtrip(self, a, d):
        # the quotient is a, and a only when a lies in the A-form
        g = qfactorial(d, R2)
        assert quotient(a * g, g) == (a if in_a_form(a) else None)


class TestJson:
    @settings(max_examples=30)
    @given(laurents())
    def test_roundtrip(self, a):
        assert ml_from_json(ml_to_json(a), R2.nvars) == a

    def test_canonical_order(self):
        p = R2.q + R2.qinv
        data = ml_to_json(p)
        assert [d["exponents"] for d in data] == [[-1, 0, 0], [1, 0, 0]]


def assert_exact(p):
    """No float in the terms of p (a MultiLaurent or an exponent dict), and
    every integral coefficient is stored as an int."""
    for c in getattr(p, "terms", p).values():
        assert type(c) in (int, Fraction)
        assert type(c) is int or c.denominator != 1


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)
# nonzero Laurent polynomials in q alone, as {exponent: coefficient} dicts
qpolys = st.dictionaries(st.integers(-3, 3), rationals.filter(bool), min_size=1)


class TestExactness:
    @settings(max_examples=60)
    @given(laurents(), laurents(), rationals, st.integers(0, 3))
    def test_ring_operations(self, a, b, k, n):
        for p in (a, b, a + b, a - b, a * b, a.scale(k), a ** n):
            assert_exact(p)
        assert_exact(ml_from_json(ml_to_json(a), R2.nvars))

    @settings(max_examples=60)
    @given(qpolys, st.integers(-3, 3), rationals.filter(bool))
    def test_divexact_by_monomial(self, a, e, k):
        quo = _divexact_univariate(a, {e: k})
        assert_exact(quo)
        assert {x + e: c * k for x, c in quo.items()} == a

    @settings(max_examples=40)
    @given(qpolys, st.integers(1, 4))
    def test_divexact_univariate(self, a, d):
        g = qfactorial(d, R2)
        product = MultiLaurent(R2.nvars, {(e, 0, 0): c for e, c in a.items()}) * g
        quo = _divexact_univariate(qdict(product), qdict(g))
        assert quo == a
        assert_exact(quo)

    @settings(max_examples=40)
    @given(laurents(max_den=1), st.integers(0, 5))
    def test_integer_quotients_are_ints(self, a, d):
        a = a * A_SHIFT
        g = qfactorial(d, R2)
        quo = quotient(a * g, g)
        assert quo == a
        assert all(type(c) is int for c in quo.terms.values())

    def test_fractional_univariate_quotient(self):
        # a non-dividing constant gives a Fraction, which is not in the A-form
        half = _divexact_univariate({1: 1, -1: 1}, {1: 2, -1: 2})
        assert half == {0: Fraction(1, 2)} and type(half[0]) is Fraction
        assert quotient(R2.q + R2.qinv, (R2.q + R2.qinv).scale(2)) is None

    @settings(max_examples=40)
    @given(laurents(max_den=1), st.integers(2, 4))
    def test_inexact_univariate_is_none(self, a, d):
        g = qfactorial(d, R2)
        assert quotient(a * A_SHIFT * g + R2.one, g) is None

    @pytest.mark.parametrize("d", range(-6, 7))
    @pytest.mark.parametrize("c", range(0, 7))
    def test_qbinom_coefficients_are_ints(self, d, c):
        assert all(type(x) is int for x in gauss_binomial(d, c).terms.values())

    def test_qq_comm_built_once(self):
        ring = LaurentRing(2)
        assert ring.qq_comm() is ring.qq_comm()
        assert ring.qq_comm() == ring.q - ring.qinv


exponents = st.integers(-8192, 8191)


@st.composite
def wide_laurents(draw, nvars):
    """Terms anywhere in the packed range, negative exponents included."""
    return MultiLaurent(nvars, draw(st.dictionaries(
        st.tuples(*[exponents] * nvars), st.integers(-5, 5), max_size=6
    )))


class TestPackedKeys:
    def test_product_out_of_range_raises(self):
        with pytest.raises(EngineError):
            R2.q_pow(8191) * R2.q
        with pytest.raises(EngineError):
            R2.Q(1, -8192) * R2.Q(1, -1)

    @pytest.mark.parametrize("p,g", [
        (R2.q_pow(-8192), R2.q),
        (R2.q_pow(8191) * R2.Q(0, 8191), R2.qinv),
    ])
    def test_monomial_divexact_out_of_range_raises(self, p, g):
        with pytest.raises(EngineError):
            quotient(p, g)

    def test_constructor_out_of_range_raises(self):
        with pytest.raises(EngineError):
            MultiLaurent(3, {(9000, 0, 0): 1})

    def test_range_ends_are_valid(self):
        low, high = monomial(R2, (-8192, 0, 8191)), monomial(R2, (8191, -8192, 0))
        assert (low * high).sorted_terms() == [((-1, -8192, 8191), 1)]

    @settings(max_examples=80)
    @given(st.integers(1, 4).flatmap(wide_laurents))
    def test_sorted_terms_in_tuple_order(self, p):
        terms = p.sorted_terms()
        exps = [e for e, _ in terms]
        assert exps == sorted(exps)
        assert len(terms) == len(p.terms)
        assert MultiLaurent(p.nvars, dict(terms)) == p

    @settings(max_examples=60)
    @given(st.integers(1, 3), st.data())
    def test_keys_agree_across_q_one(self, r, data):
        generic, q_one = LaurentRing(r), LaurentRing(r, q_one=True)
        assert generic.origin == q_one.origin and generic.guard == q_one.guard
        for _ in range(3):
            exps = (0,) + data.draw(st.tuples(*[st.integers(-4, 4)] * r))
            c = data.draw(st.integers(-3, 3).filter(bool))
            a, b = monomial(generic, exps, c), monomial(q_one, exps, c)
            assert a.terms == b.terms
            assert (a * a + a).terms == (b * b + b).terms
        for k in range(r):
            assert generic.Q(k, 2).terms == q_one.Q(k, 2).terms
        ones = (1,) * r
        assert monomial(q_one, (5,) + ones).terms == monomial(generic, (0,) + ones).terms



# Two elements of one class from different spaces (contexts, rings or
# variable counts), whose terms would otherwise merge into a meaningless sum.
CROSS_SPACE_PAIRS = {
    "MultiLaurent": lambda: (LaurentRing(1).q, LaurentRing(2).q),
    "HeckeElem": lambda: (HeckeContext(3, 2).T(1), HeckeContext(4, 3).T(2)),
    "LieElem": lambda: (
        LieContext(Shape((2, 2))).basis(1, 2, 0),
        LieContext(Shape((1, 1, 1))).basis(1, 2, 0),
    ),
    "SymPoly": lambda: (phi(1, 2, +1, LaurentRing(2)), phi(1, 2, +1, LaurentRing(3))),
}


@pytest.mark.parametrize("op", [operator.add, operator.sub], ids=["add", "sub"])
@pytest.mark.parametrize("name", CROSS_SPACE_PAIRS)
def test_elements_of_different_spaces_do_not_mix(name, op):
    a, b = CROSS_SPACE_PAIRS[name]()
    assert type(a) is type(b) and a != b
    with pytest.raises(ValueError, match="different spaces|mixed variable arities"):
        op(a, b)


# A ring scalar is exact: a float is rejected, not read as the binary
# fraction it stores (0.1 is 3602879701896397/36028797018963968).
@pytest.mark.parametrize("make", [
    lambda: LaurentRing(2).from_fraction(0.1),
    lambda: LaurentRing(2).one.scale(0.5),
], ids=["from_fraction", "scale"])
def test_a_float_is_not_a_ring_scalar(make):
    with pytest.raises(TypeError, match="float is not an exact rational"):
        make()


@pytest.mark.parametrize("name", ["HeckeElem", "LieElem", "SymPoly"])
def test_scale_takes_only_a_scalar_of_the_ring(name):
    a, _ = CROSS_SPACE_PAIRS[name]()
    # an engine element is not read as a ring element, however it is keyed
    with pytest.raises(TypeError, match="is not a scalar"):
        a.scale(a)
    ring = a.ctx.ring if hasattr(a, "ctx") else a.ring
    with pytest.raises(ValueError, match="mixed variable arities"):
        a.scale(LaurentRing(ring.r + 1).one)
    assert a.scale(2) == a + a == a.scale(ring.from_fraction(2))
    assert a.scale(Fraction(1, 2)).scale(2) == a
    assert a.scale(0).is_zero and (a - a).is_zero
