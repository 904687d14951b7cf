from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycloschur import combinatorics
from cycloschur import symfun as symfun_module
from cycloschur.coeff import EngineError, LaurentRing, MultiLaurent, qint
from cycloschur.combinatorics import Shape, enumerate_multipartitions
from cycloschur.symfun import (
    SymPoly,
    char_product_check,
    embed,
    expand_in_schur_basis,
    monomial_sym,
    phi,
    power_sum,
    schur_poly,
    single_component_multipartition,
    weyl_character,
)
from cycloschur.suites.symfun import (
    verify_char_products,
    verify_characters,
    verify_phi_q1,
    verify_phi_recursions,
)

from coeff_helpers import monomial

R1 = LaurentRing(1)
R2 = LaurentRing(2)


def poly(nvars, ring, entries):
    return SymPoly(ring, nvars, {tuple(e): ring.from_fraction(c) for e, c in entries.items()})


class TestMonomialSym:
    def test_e1(self):
        assert monomial_sym((1,), 3, R1) == poly(3, R1, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})

    def test_p2(self):
        assert monomial_sym((2,), 2, R1) == poly(2, R1, {(2, 0): 1, (0, 2): 1})

    def test_e2(self):
        assert monomial_sym((1, 1), 2, R1) == poly(2, R1, {(1, 1): 1})

    def test_too_long(self):
        with pytest.raises(ValueError):
            monomial_sym((1, 1, 1), 2, R1)


class TestPhi:
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_degree_one(self, sign, k):
        assert phi(1, k, sign, R1) == monomial_sym((1,), k, R1)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    def test_one_variable(self, sign, t):
        expected = SymPoly(R1, 1, {(t,): R1.one})
        assert phi(t, 1, sign, R1) == expected

    def test_t2_k2_plus(self):
        expected = monomial_sym((2,), 2, R1) + monomial_sym((1, 1), 2, R1).scale(
            R1.one - R1.q_pow(-2)
        )
        assert phi(2, 2, 1, R1) == expected

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_t0_constant(self, sign, k):
        expected = SymPoly.constant(R1, k, R1.q_pow(-sign * k + sign) * qint(k, R1))
        assert phi(0, k, sign, R1) == expected

    def test_recursions_small(self):
        checks = verify_phi_recursions(3, 3, R1)
        assert checks and all(c["ok"] for c in checks)

    def test_q1_power_sums(self):
        checks = verify_phi_q1(4, 3, LaurentRing(1, q_one=True))
        assert checks and all(c["ok"] for c in checks)

    @pytest.mark.parametrize("r", [1, 2])
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_q1_degree_zero_is_power_sum(self, r, sign, k):
        # p_0(x_1..x_k) = k, the value of q^{-+k+-1} [k] at q = 1
        ring = LaurentRing(r, q_one=True)
        assert phi(0, k, sign, ring) == power_sum(0, k, ring)
        assert power_sum(0, k, ring) == SymPoly.constant(ring, k, ring.from_fraction(k))


class TestSchur:
    def test_single_box(self):
        assert schur_poly((1,), 3, R1) == monomial_sym((1,), 3, R1)

    def test_two_in_two_vars(self):
        # three tableaux: 11, 12, 22
        assert schur_poly((2,), 2, R1) == poly(2, R1, {(2, 0): 1, (1, 1): 1, (0, 2): 1})

    def test_too_long_is_zero(self):
        assert schur_poly((1, 1, 1), 2, R1).is_zero

    def test_jacobi_trudi_cross_check(self):
        # s_{(2,1)} in 3 vars = m_{21} + 2 m_{111}
        expected = monomial_sym((2, 1), 3, R1) + monomial_sym((1, 1, 1), 3, R1).scale(
            R1.from_fraction(2)
        )
        assert schur_poly((2, 1), 3, R1) == expected

    def test_positions(self):
        # Schur in the last 2 of 3 slots
        s = schur_poly((1,), 3, R1, positions=(1, 2))
        assert s == poly(3, R1, {(0, 1, 0): 1, (0, 0, 1): 1})

    def test_expand_in_schur_basis_roundtrip(self):
        p = schur_poly((2,), 3, R1) * schur_poly((1,), 3, R1)
        expansion = expand_in_schur_basis(p, R1)
        assert expansion == {(3,): R1.one, (2, 1): R1.one}

    def test_expand_in_schur_basis_q_dependent_coefficients(self):
        # the leading exponent (1, 1) of the second summand carries two ring
        # terms, both of which belong to its coefficient
        a, b = R1.q, R1.one - R1.q_pow(-2)
        p = schur_poly((2,), 2, R1).scale(a) + schur_poly((1, 1), 2, R1).scale(b)
        assert expand_in_schur_basis(p, R1) == {(2,): a, (1, 1): b}


class TestWeylCharacter:
    def test_empty(self):
        shape = Shape((2, 2))
        assert weyl_character(((), ()), shape, R2) == SymPoly.constant(R2, 4, R2.one)

    def test_single_box_first_component(self):
        shape = Shape((2, 2))
        ch = weyl_character(((1,), ()), shape, R2)
        assert ch == poly(4, R2, {(1, 0, 0, 0): 1, (0, 1, 0, 0): 1, (0, 0, 1, 0): 1, (0, 0, 0, 1): 1})

    def test_single_box_second_component(self):
        shape = Shape((2, 2))
        ch = weyl_character(((), (1,)), shape, R2)
        assert ch == poly(4, R2, {(0, 0, 1, 0): 1, (0, 0, 0, 1): 1})

    def test_block_symmetry_and_factorization(self):
        checks = verify_characters(Shape((2, 2)), 3, R2)
        assert checks and all(c["ok"] for c in checks)


class TestCharProduct:
    def test_pieri_r1(self):
        shape = Shape((3,))
        report = char_product_check(((1,),), ((1,),), shape, R1)
        assert report["verified"]
        assert report["lr"] == [
            {"nu": [[1, 1]], "coeff": 1},
            {"nu": [[2]], "coeff": 1},
        ]

    def test_empty_mu(self):
        shape = Shape((2, 2))
        report = char_product_check(((2,), (1,)), ((), ()), shape, R2)
        assert report["verified"]
        assert report["lr"] == [{"nu": [[2], [1]], "coeff": 1}]

    def test_cross_component(self):
        shape = Shape((2, 2))
        report = char_product_check(((1,), ()), ((), (1,)), shape, R2)
        assert report["verified"]
        assert report["lr"] == [{"nu": [[1], [1]], "coeff": 1}]

    def test_products_with_oracle_small(self):
        checks = verify_char_products(Shape((2, 2)), 3, R2)
        assert checks and all(c["ok"] for c in checks)

    def test_suite_computes_each_character_and_size_once(self, monkeypatch):
        # the character checks and the product checks share one character
        # cache, and the products list each size's multipartitions once
        calls = {"weyl_character": [], "enumerate_multipartitions": []}

        def counting(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name].append(args[0])
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counting(symfun_module, "weyl_character")
        counting(combinatorics, "enumerate_multipartitions")
        shape, chars = Shape((1, 2, 1)), {}
        checks = verify_characters(shape, 3, LaurentRing(3), chars)
        checks += verify_char_products(shape, 3, LaurentRing(3), chars)
        assert all(c["ok"] for c in checks)
        assert sorted(calls["weyl_character"]) == sorted(chars)
        assert calls["enumerate_multipartitions"] == [0, 1, 2, 3] * 2


class TestHelpers:
    def test_single_component(self):
        assert single_component_multipartition((2, 1), 2, 3) == ((), (2, 1), ())

    def test_embed(self):
        p = monomial_sym((1,), 2, R1)
        e = embed(p, 4, (1, 3))
        assert e == poly(4, R1, {(0, 1, 0, 0): 1, (0, 0, 0, 1): 1})

    def test_power_sum(self):
        assert power_sum(3, 2, R1) == poly(2, R1, {(3, 0): 1, (0, 3): 1})

    def test_extended_weyl_character_long_component(self):
        # a shape-(1,1) multipartition with a 2-row first component still has
        # a character (entries can sit in component 2)
        shape = Shape((1, 1))
        lam = ((1, 1), ())
        assert lam in enumerate_multipartitions(2, shape, extended=True)
        ch = weyl_character(lam, shape, R2)
        # column of two boxes forces the strictly increasing filling (1,1),(1,2)
        assert ch == poly(2, R2, {(1, 1): 1})


class RefSymPoly:
    """The tuple-keyed SymPoly that preceded the flat one: exponent tuple ->
    MultiLaurent coefficient, with its own zero-cleaning loops."""

    def __init__(self, nvars, terms):
        clean = {}
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if not coeff.is_zero:
                if exps in clean:
                    s = clean[exps] + coeff
                    if s.is_zero:
                        del clean[exps]
                    else:
                        clean[exps] = s
                else:
                    clean[exps] = coeff
        self.nvars = nvars
        self.terms = clean

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            if e in out:
                s = out[e] + c
                if s.is_zero:
                    del out[e]
                else:
                    out[e] = s
            else:
                out[e] = c
        return RefSymPoly(self.nvars, out)

    def __neg__(self):
        return RefSymPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                if e in out:
                    s = out[e] + c
                    if s.is_zero:
                        del out[e]
                    else:
                        out[e] = s
                elif not c.is_zero:
                    out[e] = c
        return RefSymPoly(self.nvars, out)

    def scale(self, coeff):
        return RefSymPoly(self.nvars, {e: c * coeff for e, c in self.terms.items()})

    def times_var(self, slot):
        out = {}
        for e, c in self.terms.items():
            e2 = list(e)
            e2[slot] += 1
            out[tuple(e2)] = c
        return RefSymPoly(self.nvars, out)

    def swap_vars(self, i, j):
        out = {}
        for e, c in self.terms.items():
            e2 = list(e)
            e2[i], e2[j] = e2[j], e2[i]
            out[tuple(e2)] = c
        return RefSymPoly(self.nvars, out)

    def embed(self, nvars, positions):
        out = {}
        for e, c in self.terms.items():
            big = [0] * nvars
            for j, exp in enumerate(e):
                big[positions[j]] = exp
            out[tuple(big)] = c
        return RefSymPoly(nvars, out)

    def evaluate(self, values, ring):
        total = ring.zero
        for e, c in self.terms.items():
            term = c
            for i, exp in enumerate(e):
                if exp:
                    term = term * values[i] ** exp
            total = total + term
        return total

    def sorted_terms(self):
        return sorted(self.terms.items())


RINGS = [LaurentRing(2), LaurentRing(2, q_one=True)]


@st.composite
def coeffs(draw, ring):
    # Fraction coefficients and negative exponents; a q_one ring pins q^0
    out = ring.zero
    for _ in range(draw(st.integers(0, 3))):
        exps = tuple(draw(st.integers(-3, 3)) for _ in range(ring.nvars))
        c = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 5)))
        out = out + monomial(ring, exps, c)
    return out


@st.composite
def sympoly_terms(draw, ring, nvars=3):
    n = draw(st.integers(0, 4))
    return {tuple(draw(st.integers(0, 2)) for _ in range(nvars)): draw(coeffs(ring))
            for _ in range(n)}


def assert_flat(p):
    for (exps, key), c in p.terms.items():
        assert type(exps) is tuple and len(exps) == p.nvars and type(key) is int
        assert c and (type(c) is int or (type(c) is Fraction and c.denominator != 1))


@pytest.mark.parametrize("ring", RINGS, ids=["generic", "q_one"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_flat_sympoly_matches_multilaurent_reference(ring, data):
    ta, tb = data.draw(sympoly_terms(ring)), data.draw(sympoly_terms(ring))
    c = data.draw(coeffs(ring))
    a, b = SymPoly(ring, 3, ta), SymPoly(ring, 3, tb)
    ra, rb = RefSymPoly(3, ta), RefSymPoly(3, tb)
    assert a.sorted_terms() == ra.sorted_terms()
    pairs = [
        (a + b, ra + rb),
        (a - b, ra - rb),
        (a - a, ra - ra),
        (a * b, ra * rb),
        (a.scale(c), ra.scale(c)),
        (a.times_var(1), ra.times_var(1)),
        (a.swap_vars(0, 2), ra.swap_vars(0, 2)),
        (embed(a, 5, (4, 0, 2)), ra.embed(5, (4, 0, 2))),
    ]
    for got, want in pairs:
        assert_flat(got)
        assert got.sorted_terms() == want.sorted_terms()
    values = [data.draw(coeffs(ring)) for _ in range(3)]
    assert a.evaluate(values) == ra.evaluate(values, ring)


class TestPackedRange:
    def test_product_out_of_range(self):
        x = SymPoly(R1, 1, {(1,): R1.Q(0, 8191)})
        lower = x * SymPoly(R1, 1, {(0,): R1.Q(0, -1)})
        assert lower.sorted_terms() == [((1,), R1.Q(0, 8190))]
        with pytest.raises(EngineError, match="packed key range"):
            x * x

    def test_scale_out_of_range(self):
        x = SymPoly(R1, 1, {(1,): R1.q_pow(-8192)})
        assert x.scale(R1.q).sorted_terms() == [((1,), R1.q_pow(-8191))]
        with pytest.raises(EngineError, match="packed key range"):
            x.scale(R1.qinv)


def test_constructors_store_flat_terms():
    shape = Shape((2, 2))
    polys = [
        phi(3, 3, 1, R2),
        phi(0, 2, -1, R2),
        weyl_character(((2,), (1,)), shape, R2),
        schur_poly((2, 1), 3, R2),
        monomial_sym((2, 1), 3, R2),
        power_sum(2, 3, R2),
    ]
    for p in polys:
        assert p.terms
        assert_flat(p)
        assert not any(isinstance(c, MultiLaurent) for c in p.terms.values())
