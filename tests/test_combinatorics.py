import pytest

from cycloschur.coeff import LaurentRing
from cycloschur.combinatorics import (
    Shape,
    compositions_of,
    diagram,
    enumerate_compositions,
    enumerate_multipartitions,
    flatten,
    jm_position,
    lr_coefficient,
    partitions_of,
    residue,
    semistandard_tableaux,
    size,
    strip,
    tableau_weight,
)

from api_helpers import small_multipartitions

R2 = LaurentRing(2)


def multipartition_in_small_set(lam, shape):
    """Predicate: does lam lie in Lambda^+_{n,r}(m) (all lengths <= m_k)?"""
    return all(len(strip(lam[k])) <= shape.m[k] for k in range(shape.r))


def composition_of_multipartition(lam, shape):
    """Pad a multipartition into composition form; fails if some length
    exceeds m_k.  The weight at which its tableau is unique."""
    if not multipartition_in_small_set(lam, shape):
        raise ValueError(f"{lam} does not fit into shape {shape.m}")
    return tuple(
        tuple(lam[k][i] if i < len(lam[k]) else 0 for i in range(shape.m[k]))
        for k in range(shape.r)
    )


def test_shape_is_an_immutable_value():
    shape = Shape([2, 1])
    assert shape.m == (2, 1)
    assert repr(shape) == "Shape(m=(2, 1))"
    assert shape == Shape((2, 1)) and hash(shape) == hash(Shape((2, 1)))
    assert shape != Shape((1, 2)) and shape != (2, 1)
    with pytest.raises(AttributeError):
        shape.m = (3,)
    for bad in ((), (2, 0)):
        with pytest.raises(ValueError):
            Shape(bad)


class TestGamma:
    @pytest.mark.parametrize(
        "m", [(1,), (3,), (1, 1), (2, 2), (3, 2, 1), (2, 2, 2, 2), (4, 4, 4)]
    )
    def test_bijection(self, m):
        shape = Shape(m)
        seen = set()
        pos = 0
        for k in range(1, shape.r + 1):
            for i in range(1, shape.m[k - 1] + 1):
                pos += 1  # gamma((i, k)) = m_1 + ... + m_{k-1} + i
                assert shape.node(pos) == (i, k)
                seen.add(pos)
        assert seen == set(shape.positions())

    def test_junctions(self):
        shape = Shape((2, 3, 1))
        assert shape.junction(2) == 1
        assert shape.junction(5) == 2
        assert shape.junction(1) is None
        assert shape.junction(6) is None  # (m_r, r) is not a junction


class TestCompositions:
    def test_n0(self):
        shape = Shape((2, 1))
        assert enumerate_compositions(0, shape) == [((0, 0), (0,))]

    def test_n1_shape11(self):
        shape = Shape((1, 1))
        assert set(enumerate_compositions(1, shape)) == {((1,), (0,)), ((0,), (1,))}

    def test_n2_shape11_count_matches_bruteforce(self):
        shape = Shape((1, 1))
        # stars-and-bars oracle: brute force over all small vectors
        oracle = [
            (a, b) for a in range(3) for b in range(3) if a + b == 2
        ]
        got = enumerate_compositions(2, shape)
        assert len(got) == len(oracle) == 3

    def test_no_duplicates_and_total(self):
        shape = Shape((2, 2))
        got = enumerate_compositions(3, shape)
        assert len(got) == len(set(got))
        assert all(sum(flatten(mu)) == 3 for mu in got)


class TestMultipartitions:
    def test_n1(self):
        shape = Shape((2, 2))
        for got in (small_multipartitions(1, shape), enumerate_multipartitions(1, shape)):
            assert set(got) == {((1,), ()), ((), (1,))}

    def test_n2_r1(self):
        shape = Shape((2,))
        assert set(enumerate_multipartitions(2, shape)) == {((2,),), ((1, 1),)}

    def test_length_filter(self):
        shape = Shape((1,))
        # the last component is bounded by m_r in the extended set too
        assert set(small_multipartitions(2, shape)) == {((2,),)}
        assert set(enumerate_multipartitions(2, shape)) == {((2,),)}

    def test_extended_set(self):
        # extended bound is (n, ..., n, m_r): component 1 may exceed m_1
        shape = Shape((1, 1))
        small = set(small_multipartitions(2, shape))
        ext = set(enumerate_multipartitions(2, shape))
        assert (((1, 1), ()),) [0] in ext - small
        assert small < ext
        assert all(multipartition_in_small_set(lam, shape) for lam in small)

    def test_matches_definition_as_shifted_small_set(self):
        # extended set equals the plain set for the shape (n, ..., n, m_r)
        shape = Shape((1, 2))
        n = 3
        wide = Shape((n, 2))
        direct = {
            tuple(strip(p) for p in lam)
            for lam in small_multipartitions(n, wide)
        }
        assert set(enumerate_multipartitions(n, shape)) == direct


class TestResidue:
    def test_corner(self):
        assert residue((1, 1, 1), R2) == R2.Q(0)

    def test_row(self):
        assert residue((1, 2, 1), R2) == R2.q_pow(2) * R2.Q(0)

    def test_second_component(self):
        assert residue((2, 1, 2), R2) == R2.q_pow(-2) * R2.Q(1)


class TestJmPosition:
    def test_examples(self):
        shape = Shape((1, 1))
        assert jm_position(((1,), (0,)), (1, 1), shape) == 1
        assert jm_position(((0,), (1,)), (1, 1), shape) == 0
        shape2 = Shape((1, 1))
        assert jm_position(((2,), (1,)), (1, 2), shape2) == 3

    def test_range(self):
        shape = Shape((2, 2))
        for mu in enumerate_compositions(3, shape):
            for l in range(1, 3):
                for j in range(1, 3):
                    assert 0 <= jm_position(mu, (j, l), shape) <= 3


class TestTableaux:
    def test_single_box(self):
        shape = Shape((2, 2))
        lam = ((1,), ())
        tabs = semistandard_tableaux(lam, shape, weight=((1, 0), (0, 0)))
        assert len(tabs) == 1
        assert tabs[0] == ((((1, 1),),), ())

    def test_weight_equals_shape_unique(self):
        shape = Shape((2, 2))
        for lam in small_multipartitions(3, shape):
            mu = composition_of_multipartition(lam, shape)
            tabs = semistandard_tableaux(lam, shape, weight=mu)
            assert len(tabs) == 1

    def test_component_condition_kills(self):
        shape = Shape((2, 2))
        lam = ((), (1,))
        assert semistandard_tableaux(lam, shape, weight=((1, 0), (0, 0))) == []

    def test_weights_consistent(self):
        shape = Shape((2, 2))
        lam = ((2,), (1,))
        for tab in semistandard_tableaux(lam, shape):
            mu = tableau_weight(tab, shape)
            assert sum(flatten(mu)) == size(lam)
            assert semistandard_tableaux(lam, shape, weight=mu)

    def test_count_symmetric_within_component(self):
        # permuting the entries of mu inside one component fixes the count
        shape = Shape((2, 2))
        lam = ((2,), (1,))
        a = len(semistandard_tableaux(lam, shape, weight=((1, 1), (1, 0))))
        b = len(semistandard_tableaux(lam, shape, weight=((1, 1), (0, 1))))
        assert a == b

    def test_diagram_row_major(self):
        assert diagram(((2, 1), (1,))) == [
            (1, 1, 1),
            (1, 2, 1),
            (2, 1, 1),
            (1, 1, 2),
        ]


class TestLR:
    def test_pieri(self):
        assert lr_coefficient(((1,),), ((1,),), ((2,),)) == 1
        assert lr_coefficient(((1,),), ((1,),), ((1, 1),)) == 1

    def test_empty_factor(self):
        lam = ((2, 1),)
        assert lr_coefficient(lam, ((),), lam) == 1
        assert lr_coefficient(lam, ((),), ((3,),)) == 0

    def test_classical_multiplicity_two(self):
        assert lr_coefficient(((2, 1),), ((2, 1),), ((3, 2, 1),)) == 2

    def test_symmetry(self):
        parts = partitions_of(2) + partitions_of(3)
        for lam in parts:
            for mu in parts:
                for nu in partitions_of(sum(lam) + sum(mu)):
                    assert lr_coefficient((lam,), (mu,), (nu,)) == lr_coefficient(
                        (mu,), (lam,), (nu,)
                    )

    def test_size_mismatch(self):
        assert lr_coefficient(((1,), ()), ((1,), ()), ((1,), (1,))) == 0

    def test_componentwise_product(self):
        lam = ((1,), (1,))
        mu = ((1,), ())
        nu = ((2,), (1,))
        assert lr_coefficient(lam, mu, nu) == 1
        nu2 = ((1, 1), (1,))
        assert lr_coefficient(lam, mu, nu2) == 1


class TestPartitions:
    def test_counts(self):
        # p(n) for n = 0..8
        expected = [1, 1, 2, 3, 5, 7, 11, 15, 22]
        for n, count in enumerate(expected):
            assert len(partitions_of(n)) == count

    def test_bounded(self):
        assert partitions_of(4, max_len=2) == [(4,), (3, 1), (2, 2)]

    def test_compositions_of(self):
        assert list(compositions_of(2, 2)) == [(0, 2), (1, 1), (2, 0)]
