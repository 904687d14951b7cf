import pytest

from cycloschur.coeff import LaurentRing, qint
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

R1 = LaurentRing(1)
R2 = LaurentRing(2)


def poly(nvars, ring, entries):
    return SymPoly(nvars, {tuple(e): ring.from_int(c) for e, c in entries.items()})


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
        expected = SymPoly(1, {(t,): R1.one})
        assert phi(t, 1, sign, R1) == expected

    def test_t2_k2_plus(self):
        expected = monomial_sym((2,), 2, R1) + monomial_sym((1, 1), 2, R1).scale(
            R1.one - R1.q_pow(-2)
        )
        assert phi(2, 2, 1, R1) == expected

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_t0_constant(self, sign, k):
        expected = SymPoly.constant(k, R1.q_pow(-sign * k + sign) * qint(k, R1))
        assert phi(0, k, sign, R1) == expected

    def test_recursions_small(self):
        checks = verify_phi_recursions(3, 3, R1)
        assert checks and all(c["ok"] for c in checks)

    def test_q1_power_sums(self):
        checks = verify_phi_q1(4, 3, LaurentRing(1, q_one=True))
        assert checks and all(c["ok"] for c in checks)


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
            R1.from_int(2)
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


class TestWeylCharacter:
    def test_empty(self):
        shape = Shape((2, 2))
        assert weyl_character(((), ()), shape, R2) == SymPoly.constant(4, R2.one)

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
