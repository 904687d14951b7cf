import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycloschur.coeff import EngineError, at_q
from cycloschur.combinatorics import Shape
from cycloschur.liealg import (
    LieContext,
    LieElem,
    all_basis_labels,
    jacobi_defect,
    mat_commutator,
    mat_unit,
)
from cycloschur.suites import lie as lie_suite
from cycloschur.suites.lie import (
    _first_violations,
    generator_labels,
    verify_antisymmetry,
    verify_eval_map,
    verify_gr,
    verify_jacobi,
    verify_vtau,
)

from api_helpers import lie_bracket, lie_I, lie_X


def junction_Q(lctx, pos):
    """The parameter attached to a junction position, else None."""
    k = lctx.shape.junction(pos)
    return None if k is None else lctx.ring.Q(k)


def vtau_at(lctx, label, tau):
    """The V_tau matrix of a basis label at a numeric tau."""
    return at_q(lctx.vtau_basis_matrix(label), tau)


def eval_matrix(lctx, label):
    """The evaluation map onto gl_m on a basis label: its V_0 matrix."""
    return vtau_at(lctx, label, 0)


def eval_map(lctx, x):
    """The evaluation map onto gl_m on an element: its V_0 matrix."""
    return at_q(lctx.vtau_rep(x), 0)


def corrupt(lctx, label, extra, at=None):
    """Put ``label``'s V_tau matrix plus the ring element ``extra`` at the
    entry ``at`` (the label's own entry by default) in the context's one
    matrix cache.  ``extra`` is a polynomial in tau, the ring's q, that
    vanishes exactly at the taus whose checks must still pass."""
    i, j = at or (label[0] - 1, label[1] - 1)
    lctx._vtau[label] = mat_sub(lctx.vtau_basis_matrix(label), mat_unit(lctx, i, j, -extra))


@pytest.fixture(scope="module")
def lctx():
    # shape (2,2): junction at position 2 with parameter Q_1
    return LieContext(Shape((2, 2)))


class TestBracketTable:
    def test_diagonal_commute(self, lctx):
        assert lie_bracket(lie_I(lctx, 1, 2), lie_I(lctx, 3, 1)).is_zero
        assert lie_bracket(lie_I(lctx, 2, 0), lie_I(lctx, 2, 5)).is_zero

    def test_I_on_X(self, lctx):
        # [I_{jl,s}, X^+_{ik,t}] = a X^+_{ik,s+t}
        x, x3 = lie_X(lctx, +1, 1, 1), lie_X(lctx, +1, 1, 3)
        assert lie_bracket(lie_I(lctx, 1, 2), x) == x3
        assert lie_bracket(lie_I(lctx, 2, 2), x) == x3.scale(-lctx.ring.one)
        assert lie_bracket(lie_I(lctx, 3, 2), x).is_zero

    def test_L3_interior(self, lctx):
        # away from the junction: [X^+_t, X^-_s] = I_p - I_{p+1} at degree s+t
        got = lie_bracket(lie_X(lctx, +1, 1, 1), lie_X(lctx, -1, 1, 2))
        assert got == lie_I(lctx, 1, 3) - lie_I(lctx, 2, 3)

    def test_L3_junction(self, lctx):
        got = lie_bracket(lie_X(lctx, +1, 2, 1), lie_X(lctx, -1, 2, 1))
        J2 = lie_I(lctx, 2, 2) - lie_I(lctx, 3, 2)
        J3 = lie_I(lctx, 2, 3) - lie_I(lctx, 3, 3)
        assert got == J3 - J2.scale(lctx.ring.Q(1))

    def test_L4_far_commute(self, lctx):
        assert lie_bracket(lie_X(lctx, +1, 1, 0), lie_X(lctx, +1, 3, 2)).is_zero
        assert lie_bracket(lie_X(lctx, -1, 1, 1), lie_X(lctx, -1, 3, 0)).is_zero

    def test_L5_degree_shift(self, lctx):
        lhs = lie_bracket(lie_X(lctx, +1, 1, 2), lie_X(lctx, +1, 2, 0))
        rhs = lie_bracket(lie_X(lctx, +1, 1, 1), lie_X(lctx, +1, 2, 1))
        assert lhs == rhs

    def test_ladder_builds_long_roots(self, lctx):
        assert lie_bracket(lie_X(lctx, +1, 1, 0), lie_X(lctx, +1, 2, 3)) == lctx.basis(1, 3, 3)
        assert lie_bracket(lie_X(lctx, -1, 2, 0), lie_X(lctx, -1, 1, 3)) == lctx.basis(3, 1, 3)

    def test_bilinear_antisymmetric_random(self, lctx):
        rng = random.Random(5)
        labels = all_basis_labels(lctx, 3)
        for _ in range(25):
            a, b = rng.choice(labels), rng.choice(labels)
            c1 = lctx.ring.from_fraction(rng.randint(1, 4))
            c2 = lctx.ring.from_fraction(rng.randint(1, 4))
            x = lctx.basis(*a).scale(c1)
            y = lctx.basis(*b).scale(c2)
            assert lie_bracket(x, y) == lctx.bracket_basis(a, b).scale(c1 * c2)
            assert (lie_bracket(x, y) + lie_bracket(y, x)).is_zero
        for c in verify_antisymmetry(lctx, deg_cap=2):
            assert c["ok"], c

    def test_degree_raise_bounded_by_junction_count(self):
        # two junctions crossed: the bracket picks up terms two degrees up
        lctx3 = LieContext(Shape((1, 1, 1)))
        br = lie_bracket(lctx3.basis(1, 3, 0), lctx3.basis(3, 1, 0))
        degrees = {t for (_, _, t) in br.grouped()}
        assert degrees == {0, 1, 2}
        lead = [lab for lab in br.grouped() if lab[2] == 0]
        assert set(lead) == {(1, 1, 0), (3, 3, 0)}


def _hand_written_lowering(lctx, g, b):
    """[X^-_{a,s}, E[p,q;t]] from its own hand-written closed form: the
    reference for the minus-transpose identity."""
    gp, gq, s = g
    p, q, t = b
    one = lctx.ring.one
    out = {}

    def add(label, coeff):
        out[label] = out.get(label, lctx.ring.zero) + coeff

    a = gq
    if p == q:
        if p == a:
            add((a + 1, a, t + s), one)
        elif p == a + 1:
            add((a + 1, a, t + s), -one)
    elif p > q:
        if a == p:
            add((p + 1, q, t + s), one)
        if a == q - 1:
            add((p, q - 1, t + s), -one)
    else:
        ell = q - p
        Q = junction_Q(lctx, a)
        if ell == 1 and a == p:
            if Q is None:
                add((p, p, t + s), -one)
                add((p + 1, p + 1, t + s), one)
            else:
                add((p, p, t + s), Q)
                add((p + 1, p + 1, t + s), -Q)
                add((p, p, t + s + 1), -one)
                add((p + 1, p + 1, t + s + 1), one)
        elif ell > 1 and a == p:
            if Q is None:
                add((p + 1, q, t + s), one)
            else:
                add((p + 1, q, t + s), -Q)
                add((p + 1, q, t + s + 1), one)
        elif ell > 1 and a == q - 1:
            if Q is None:
                add((p, q - 1, t + s), -one)
            else:
                add((p, q - 1, t + s), Q)
                add((p, q - 1, t + s + 1), -one)
    return {label: c for label, c in out.items() if not c.is_zero}


@pytest.mark.parametrize("m", [(2, 2, 2), (1, 2, 1), (3,), (2, 2), (1, 1, 1, 1), (1, 3)])
def test_lowering_is_the_minus_transpose_of_raising(m):
    lctx = LieContext(Shape(m))
    lowering = [g for g in generator_labels(lctx, 2) if g[1] == g[0] - 1]
    nonzero = 0
    for g in lowering:
        for b in all_basis_labels(lctx, 2):
            expected = _hand_written_lowering(lctx, g, b)
            assert lctx._gen_on_basis(g, b).grouped() == expected, (g, b)
            nonzero += bool(expected)
    assert nonzero


class TestJacobi:
    def test_repeated_element(self, lctx):
        a, b = (1, 3, 1), (2, 2, 0)
        assert jacobi_defect(lctx, a, a, b).is_zero

    def test_all_diagonal(self, lctx):
        assert jacobi_defect(lctx, (1, 1, 1), (2, 2, 2), (4, 4, 0)).is_zero

    def test_random_sample(self, lctx):
        checks = verify_jacobi(lctx, deg_cap=2, sample=300, seed=11)
        assert all(c["ok"] for c in checks)

    def test_sampled_larger_shape(self):
        lctx6 = LieContext(Shape((3, 3)))
        checks = verify_jacobi(lctx6, deg_cap=2, sample=150, seed=3)
        assert all(c["ok"] for c in checks)


class TestVtau:
    def test_I_diagonal_action(self, lctx):
        tau = Fraction(3, 2)
        M = vtau_at(lctx, (2, 2, 2), tau)
        assert M == mat_unit(lctx, 1, 1, tau**2)
        assert M == {((1, 1), lctx._origin): Fraction(9, 4)}

    def test_X_minus_action(self, lctx):
        tau = Fraction(2)
        M = vtau_at(lctx, (3, 2, 1), tau)  # X^-_{2,1}
        assert M == {((2, 1), lctx._origin): 2}
        assert type(M[(2, 1), lctx._origin]) is int

    def test_junction_raiser(self, lctx):
        tau = Fraction(1, 2)
        M = vtau_at(lctx, (2, 3, 0), tau)
        assert M == mat_unit(lctx, 1, 2, lctx.ring.from_fraction(tau) - lctx.ring.Q(1))
        # over Z[tau], tau in the q slot: tau - Q_1
        assert lctx.vtau_basis_matrix((2, 3, 0)) == mat_unit(
            lctx, 1, 2, lctx.ring.q - lctx.ring.Q(1))

    def test_long_label_closed_form(self, lctx):
        tau = Fraction(3)
        M = vtau_at(lctx, (1, 4, 2), tau)
        # (1, 4) crosses the junction of Q_1 at position 2
        expected = (lctx.ring.from_fraction(tau) - lctx.ring.Q(1)).scale(tau**2)
        assert M == mat_unit(lctx, 0, 3, expected)
        assert lctx.psi_vtau(1, 4) == lctx.ring.q - lctx.ring.Q(1)
        assert lctx.psi_vtau(4, 1) == lctx.psi_vtau(1, 2) == lctx.ring.one

    def test_homomorphism_suite(self, lctx):
        checks = verify_vtau(lctx, deg_cap=2, taus=(Fraction(2), Fraction(-1, 3)))
        assert all(c["ok"] for c in checks)


class TestGr:
    def test_suite(self, lctx):
        checks = verify_gr(lctx, deg_cap=2)
        assert all(c["ok"] for c in checks)

    def test_r1_exact_current_algebra(self):
        lctx4 = LieContext(Shape((4,)))
        checks = verify_gr(lctx4, deg_cap=2)
        names = {c["check"] for c in checks}
        assert "gr-exact-current" in names
        assert all(c["ok"] for c in checks)


class TestEvalMap:
    def test_kills_positive_degree(self, lctx):
        M = eval_matrix(lctx, (1, 2, 1))
        assert not M

    def test_junction_value(self, lctx):
        M = eval_matrix(lctx, (2, 3, 0))
        assert M == mat_unit(lctx, 1, 2, -lctx.ring.Q(1))

    def test_levi_and_homomorphism(self, lctx):
        checks = verify_eval_map(lctx, deg_cap=2)
        assert all(c["ok"] for c in checks)

    def test_commutator_matches_by_hand(self, lctx):
        a = (1, 2, 0)
        b = (2, 1, 0)
        lhs = eval_map(lctx, lctx.bracket_basis(a, b))
        rhs = mat_commutator(lctx, eval_matrix(lctx, a), eval_matrix(lctx, b))
        assert lhs == rhs

    @pytest.mark.parametrize("m", [(2, 2), (1, 2, 1), (2, 2, 2), (3, 3)])
    @pytest.mark.parametrize("ask", ["eval", "fraction"])
    def test_v0_is_the_evaluation_table(self, m, ask):
        # the evaluation map written out: matrix units on the degree-zero
        # generators, -Q_k at a raiser from junction k, and zero in positive
        # degree, every value an int; V_0 asked as V_tau at tau = 0 and at
        # tau = Fraction(0), each on a fresh context
        lctx_m = LieContext(Shape(m))
        for p, q, t in generator_labels(lctx_m, 3):
            if ask == "eval":
                M = eval_matrix(lctx_m, (p, q, t))
            else:
                M = vtau_at(lctx_m, (p, q, t), Fraction(0))
            k = lctx_m.shape.junction(p) if q == p + 1 else None
            if t:
                expected = {}
            elif k is None:
                expected = mat_unit(lctx_m, p - 1, q - 1, 1)
            else:
                expected = mat_unit(lctx_m, p - 1, q - 1, -lctx_m.ring.Q(k))
            assert M == expected, (p, q, t)
            assert all(type(v) is int for v in M.values())

    def test_kills_positive_degree_checked_at_deg_zero(self):
        # at deg_cap 0 the check still covers the degree-1 generators
        lctx4 = LieContext(Shape((2, 2)))
        assert all(c["ok"] for c in verify_eval_map(lctx4, deg_cap=0))
        corrupt(lctx4, (1, 2, 1), lctx4.ring.one)
        checks = verify_eval_map(lctx4, deg_cap=0)
        (kill,) = _by_name(checks, "eval-kills-positive-degree")
        assert not kill["ok"]


# -- sparse matrices against a dense reference ---------------------------------

LCTX = LieContext(Shape((1, 1)))
RING = LCTX.ring


@st.composite
def coeffs(draw):
    # few monomials and small numbers, so that sums and products cancel often
    # and products of Fractions come out integral
    out = RING.zero
    for _ in range(draw(st.integers(1, 2))):
        c = draw(st.sampled_from([-2, -1, 1, 2, Fraction(1, 2), Fraction(-3, 2)]))
        out = out + RING.Q(1, draw(st.integers(-1, 1))).scale(c)
    return out


@st.composite
def sparse_pairs(draw):
    m = draw(st.integers(1, 4))
    keys = st.tuples(st.integers(0, m - 1), st.integers(0, m - 1))
    nonzero = coeffs().filter(lambda c: not c.is_zero)
    entries = st.dictionaries(keys, nonzero, max_size=m * m)
    return m, draw(entries), draw(entries)


def flat(A, lctx=LCTX):
    """A matrix {(i, j): MultiLaurent} in the engine's flat form."""
    out = {}
    for (i, j), c in A.items():
        out.update(mat_unit(lctx, i, j, c))
    return out


def assert_normal(M):
    # zero-free, integral values as ints
    assert all(c and (type(c) is int or c.denominator != 1) for c in M.values())


def dense(A, m):
    return [[A.get((i, j), RING.zero) for j in range(m)] for i in range(m)]


def sparse(D):
    return {
        (i, j): c for i, row in enumerate(D) for j, c in enumerate(row) if not c.is_zero
    }


def dense_mul(D, E):
    m = len(D)
    out = [[RING.zero for _ in range(m)] for _ in range(m)]
    for i in range(m):
        for j in range(m):
            for k in range(m):
                out[i][j] = out[i][j] + D[i][k] * E[k][j]
    return out


def reference_product(lctx, A, B):
    """The flat product A B, entry (i, k) of A against entry (k, j) of B:
    the reference for ``mat_commutator``."""
    out = {}
    for ((i, k), ka), a in A.items():
        for ((l, j), kb), b in B.items():
            if k == l:
                key = ((i, j), ka + kb - lctx._origin)
                out[key] = out.get(key, 0) + a * b
    return {key: c for key, c in out.items() if c}


def mat_sub(A, B):
    out = dict(A)
    for key, c in B.items():
        out[key] = out.get(key, 0) - c
    return {key: c for key, c in out.items() if c}


def dense_add(D, E):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(D, E)]


def dense_sub(D, E):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(D, E)]


def dense_scale(D, c):
    return [[a * c for a in row] for row in D]


class TestSparseMatrices:
    @settings(max_examples=150, deadline=None)
    @given(sparse_pairs())
    def test_matches_dense_reference(self, case):
        m, A, B = case
        DA, DB = dense(A, m), dense(B, m)
        AB, BA = dense_mul(DA, DB), dense_mul(DB, DA)
        FA, FB = flat(A), flat(B)
        got = mat_commutator(LCTX, FA, FB)
        assert got == flat(sparse(dense_sub(AB, BA)))
        assert got == mat_sub(reference_product(LCTX, FA, FB), reference_product(LCTX, FB, FA))
        assert_normal(got)

    @settings(max_examples=50, deadline=None)
    @given(sparse_pairs(), st.one_of(st.just(RING.zero), coeffs()), coeffs())
    def test_scale_matches_dense_reference(self, case, c, c2):
        # the image of c E[1,1;0] + c2 E[2,2;0] under a map sending the two
        # labels to A and B: each basis matrix scaled by its coefficient
        m, A, B = case
        lctx = LieContext(Shape((1, 1)))
        x = lctx.basis(1, 1, 0, c) + lctx.basis(2, 2, 0, c2)
        lctx._vtau.update({(1, 1, 0): flat(A), (2, 2, 0): flat(B)})
        got = lctx.vtau_rep(x)
        assert got == flat(sparse(dense_add(dense_scale(dense(A, m), c),
                                            dense_scale(dense(B, m), c2))))
        assert_normal(got)

    # sums of (2, 2, 2) V_tau matrices, so entries carry Q's and Fractions
    # and many pairs meet in both a row and a column index
    @pytest.mark.parametrize("tau", [Fraction(0), Fraction(1), Fraction(-1, 3), Fraction(5, 2)])
    def test_commutator_of_vtau_sums(self, tau):
        lctx = LieContext(Shape((2, 2, 2)))
        labels = all_basis_labels(lctx, 1)
        rng = random.Random(0)

        def random_sum():
            x = LieElem(lctx, {})
            for label in rng.sample(labels, 3):
                x = x + lctx.basis(*label, Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
            return at_q(lctx.vtau_rep(x), tau)

        for _ in range(60):
            A, B = random_sum(), random_sum()
            got = mat_commutator(lctx, A, B)
            assert got == mat_sub(reference_product(lctx, A, B), reference_product(lctx, B, A))
            assert_normal(got)

    @settings(max_examples=50, deadline=None)
    @given(sparse_pairs())
    def test_self_difference_is_empty(self, case):
        _, A, _ = case
        FA = flat(A)
        assert mat_commutator(LCTX, FA, FA) == {}


# -- the matrix checks can fail ---------------------------------------------------


def _by_name(checks, name):
    return [c for c in checks if c["check"] == name]


class TestChecksCanFail:
    def test_corrupt_eval_entry(self):
        lctx4 = LieContext(Shape((2, 2)))
        corrupt(lctx4, (1, 2, 0), lctx4.ring.one)
        checks = verify_eval_map(lctx4, deg_cap=1)
        (hom,) = _by_name(checks, "eval-homomorphism")
        assert not hom["ok"]
        assert hom["detail"].startswith("violation at ")
        (levi,) = _by_name(checks, "eval-levi-embedding")
        assert not levi["ok"]
        assert levi["detail"] == "violation at (1, 2, 0)"
        (kill,) = _by_name(checks, "eval-kills-positive-degree")
        assert kill["ok"] and "detail" not in kill

    def test_corrupt_positive_degree_eval_entry(self):
        lctx4 = LieContext(Shape((2, 2)))
        corrupt(lctx4, (1, 2, 1), lctx4.ring.one)
        checks = verify_eval_map(lctx4, deg_cap=0)
        (kill,) = _by_name(checks, "eval-kills-positive-degree")
        assert not kill["ok"]
        assert kill["detail"] == "violation at (1, 2, 1)"

    def test_corrupt_vtau_matrix(self):
        lctx4 = LieContext(Shape((2, 2)))
        tau = Fraction(2)
        # 3 tau + 1 vanishes at tau = -1/3 only
        corrupt(lctx4, (1, 2, 0), lctx4.ring.q.scale(3) + lctx4.ring.one)
        checks = verify_vtau(lctx4, deg_cap=1, taus=(tau, Fraction(-1, 3)))
        homs = _by_name(checks, "vtau-homomorphism")
        assert [c["ok"] for c in homs] == [False, True]
        assert homs[0]["detail"].startswith("violation at ")
        closed = _by_name(checks, "vtau-basis-closed-form")
        assert [c["ok"] for c in closed] == [False, True]
        assert closed[0]["detail"] == "violation at (1, 2, 0)"
        assert "detail" not in closed[1]

    def test_each_gr_check_names_its_own_first_failure(self):
        # a degree-0 term under a degree-2 bracket breaks only the filtration,
        # a wrong degree-0 term in a degree-0 bracket only the leading term.
        # Each mutant goes into both orders, the second negated, so that the
        # bracket stays antisymmetric.  The wrong term sits on [E_14, E_41]
        # itself: put on [E_34, E_43], it would reach [E_14, E_41] through
        # the recursion but not [E_41, E_14], and break antisymmetry there.
        lctx4 = LieContext(Shape((2, 2)))
        low, wrong = ((1, 2, 1), (2, 3, 1)), ((1, 4, 0), (4, 1, 0))
        for a, b in (low, wrong):
            br = lctx4.bracket_basis(a, b) + lctx4.basis(1, 1, 0)
            lctx4._bb_cache[a, b] = br
            lctx4._bb_cache[b, a] = -br
        checks = verify_gr(lctx4, deg_cap=2)
        (filtration,) = _by_name(checks, "gr-filtration")
        (leading,) = _by_name(checks, "gr-leading-term")
        assert filtration == {
            "check": "gr-filtration",
            "params": {"shape": (2, 2), "deg_cap": 2},
            "ok": False,
            "detail": str(low),
        }
        assert not leading["ok"]
        assert leading["detail"] == str(((1, 4, 0), (4, 1, 0)))


# -- the flat engine against the MultiLaurent one it replaced -----------------


class MultiLaurentLie:
    """The brackets, V_tau and evaluation matrices with MultiLaurent
    coefficients: elements {label: MultiLaurent}, matrices {(i, j):
    MultiLaurent}, as computed before the engine stored them flat."""

    def __init__(self, lctx):
        self.lctx = lctx
        self.ring = lctx.ring
        self._bb = {}
        self._vtau = {}
        self._eval = {}

    @staticmethod
    def _acc(out, key, c):
        s = out.get(key)
        s = c if s is None else s + c
        if s.is_zero:
            out.pop(key, None)
        else:
            out[key] = s

    def _combine(self, out, x, coeff):
        for lab, c in x.items():
            self._acc(out, lab, c * coeff)

    def gen_on_basis(self, g, b):
        gp, gq, s = g
        p, q, t = b
        if gq == gp - 1:
            raised = self.gen_on_basis((gq, gp, s), (q, p, t))
            return {(v, u, d): -c for (u, v, d), c in raised.items()}
        one = self.ring.one
        out = {}
        if gp == gq:
            a = gp
            if p == q:
                return {}
            if a == p:
                self._acc(out, (p, q, t + s), one)
            if a == q:
                self._acc(out, (p, q, t + s), -one)
            return out
        a = gp
        if p == q:
            if p == a:
                self._acc(out, (a, a + 1, t + s), -one)
            elif p == a + 1:
                self._acc(out, (a, a + 1, t + s), one)
            return out
        if p < q:
            if a == p - 1:
                self._acc(out, (p - 1, q, t + s), one)
            if a == q:
                self._acc(out, (p, q + 1, t + s), -one)
            return out
        ell = p - q
        Q = junction_Q(self.lctx, a)
        if ell == 1 and a == p - 1:
            if Q is None:
                self._acc(out, (p - 1, p - 1, t + s), one)
                self._acc(out, (p, p, t + s), -one)
            else:
                self._acc(out, (p - 1, p - 1, t + s), -Q)
                self._acc(out, (p, p, t + s), Q)
                self._acc(out, (p - 1, p - 1, t + s + 1), one)
                self._acc(out, (p, p, t + s + 1), -one)
        elif ell > 1 and a == p - 1:
            if Q is None:
                self._acc(out, (p - 1, q, t + s), one)
            else:
                self._acc(out, (p - 1, q, t + s), -Q)
                self._acc(out, (p - 1, q, t + s + 1), one)
        elif ell > 1 and a == q:
            if Q is None:
                self._acc(out, (p, q + 1, t + s), -one)
            else:
                self._acc(out, (p, q + 1, t + s), Q)
                self._acc(out, (p, q + 1, t + s + 1), -one)
        return out

    def bracket_basis(self, a, b):
        cached = self._bb.get((a, b))
        if cached is not None:
            return cached
        if abs(a[0] - a[1]) <= 1:
            out = self.gen_on_basis(a, b)
        elif abs(b[0] - b[1]) <= 1:
            out = {lab: -c for lab, c in self.gen_on_basis(b, a).items()}
        else:
            p, q, t = a
            step = 1 if p < q else -1
            g, a1 = (p, p + step, 0), (p + step, q, t)
            out = {}
            for lab, c in self.bracket_basis(a1, b).items():
                self._combine(out, self.gen_on_basis(g, lab), c)
            for lab, c in self.gen_on_basis(g, b).items():
                self._combine(out, self.bracket_basis(a1, lab), -c)
        self._bb[a, b] = out
        return out

    def commutator(self, A, B):
        out = {}
        for (i, k), a in A.items():
            for (k2, j), b in B.items():
                if k == k2:
                    self._acc(out, (i, j), a * b)
        for (i, k), b in B.items():
            for (k2, j), a in A.items():
                if k == k2:
                    self._acc(out, (i, j), -(b * a))
        return out

    def vtau_basis_matrix(self, label, tau):
        cached = self._vtau.get((label, tau))
        if cached is not None:
            return cached
        ring = self.ring
        p, q, t = label
        tau_t = ring.from_fraction(tau**t) if t else ring.one
        if abs(p - q) <= 1:
            Q = junction_Q(self.lctx, p) if q == p + 1 else None
            coeff = tau_t if Q is None else (ring.from_fraction(tau) - Q) * tau_t
            M = {} if coeff.is_zero else {(p - 1, q - 1): coeff}
        else:
            step = 1 if p < q else -1
            M = self.commutator(
                self.vtau_basis_matrix((p, p + step, 0), tau),
                self.vtau_basis_matrix((p + step, q, t), tau),
            )
        self._vtau[label, tau] = M
        return M

    def eval_basis_matrix(self, label):
        cached = self._eval.get(label)
        if cached is not None:
            return cached
        p, q, t = label
        if abs(p - q) <= 1:
            Q = junction_Q(self.lctx, p) if q == p + 1 else None
            M = {} if t else {(p - 1, q - 1): self.ring.one if Q is None else -Q}
        else:
            step = 1 if p < q else -1
            M = self.commutator(
                self.eval_basis_matrix((p, p + step, 0)),
                self.eval_basis_matrix((p + step, q, t)),
            )
        self._eval[label] = M
        return M


@pytest.mark.parametrize("m", [(3,), (1, 2, 1), (2, 2, 2)])
def test_flat_engine_matches_multilaurent_reference(m):
    lctx = LieContext(Shape(m))
    ref = MultiLaurentLie(lctx)
    labels = all_basis_labels(lctx, 2)
    nonzero = 0
    for a in labels:
        for b in labels:
            want = ref.bracket_basis(a, b)
            assert lctx.bracket_basis(a, b).grouped() == want, (a, b)
            nonzero += bool(want)
        for g in generator_labels(lctx, 2):
            assert lctx._gen_on_basis(g, a).grouped() == ref.gen_on_basis(g, a), (g, a)
        want = flat(ref.eval_basis_matrix(a), lctx)
        assert eval_matrix(lctx, a) == want, a
        for tau in DEFAULT_TAUS:
            want = flat(ref.vtau_basis_matrix(a, tau), lctx)
            assert vtau_at(lctx, a, tau) == want, (a, tau)
    assert nonzero


def _assert_vtau_matches_reference(lctx, ref, labels, tau):
    for a in labels:
        assert vtau_at(lctx, a, tau) == flat(ref.vtau_basis_matrix(a, tau), lctx), (a, tau)


VTAU_SHAPES = [(2, 2), (1, 2, 1), (2, 2, 2)]


@pytest.mark.parametrize("m", VTAU_SHAPES)
def test_vtau_over_z_tau_is_integral_and_reads_as_the_reference(m):
    # every label up to degree 3: int values over Z[tau], and V_0 and the
    # default V_tau read off them
    lctx = LieContext(Shape(m))
    ref = MultiLaurentLie(lctx)
    labels = all_basis_labels(lctx, 3)
    for a in labels:
        assert all(type(c) is int for c in lctx.vtau_basis_matrix(a).values()), a
    for tau in (Fraction(0), *DEFAULT_TAUS):
        _assert_vtau_matches_reference(lctx, ref, labels, tau)
    for a in labels:
        assert eval_matrix(lctx, a) == flat(ref.eval_basis_matrix(a), lctx), a


@pytest.mark.parametrize("m", VTAU_SHAPES)
@settings(max_examples=15, deadline=None)
@given(tau=st.fractions(min_value=-9, max_value=9, max_denominator=12))
def test_vtau_over_z_tau_reads_as_the_reference_at_a_drawn_tau(m, tau):
    lctx = LieContext(Shape(m))
    _assert_vtau_matches_reference(lctx, MultiLaurentLie(lctx), all_basis_labels(lctx, 3), tau)


@pytest.mark.parametrize("m", [(2, 2), (1, 2, 1), (2, 2, 2)])
def test_matrices_are_keyed_by_index_pair_and_ring_key(m):
    # the (head, key) layout of every flat element: head (i, j), key an int
    lctx = LieContext(Shape(m))
    tau = Fraction(-1, 3)
    labels = all_basis_labels(lctx, 1)
    gens = [vtau_at(lctx, g, tau) for g in generator_labels(lctx, 1)]
    x = lctx.basis(1, 3, 1, lctx.ring.Q(1)) + lctx.basis(lctx.m, 1, 0, Fraction(3, 2))
    mats = [vtau_at(lctx, a, tau) for a in labels]
    mats += [lctx.vtau_basis_matrix(a) for a in labels]
    mats += [eval_matrix(lctx, a) for a in labels]
    mats += [lctx.vtau_rep(x), at_q(lctx.vtau_rep(x), tau)]
    mats += [mat_unit(lctx, 0, lctx.m - 1, lctx.ring.Q(1, -2))]
    for A, B in itertools.product(gens, repeat=2):
        mats.append(mat_commutator(lctx, A, B))
    values = set()
    for M in mats:
        for entry, c in M.items():
            head, key = entry
            i, j = head
            assert 0 <= i < lctx.m and 0 <= j < lctx.m, entry
            assert type(i) is type(j) is type(key) is int, entry
            assert type(c) in (int, Fraction) and c, (entry, c)
            values.add(type(c))
    assert values == {int, Fraction}


class TestPackedRange:
    # shape (2,2): the raiser at the junction position 2 carries Q_1
    def test_scale_out_of_range(self, lctx):
        x = lctx.basis(1, 2, 0, lctx.ring.Q(1, 8191))
        lower = x.scale(lctx.ring.Q(1, -1))
        assert lower.grouped() == {(1, 2, 0): lctx.ring.Q(1, 8190)}
        with pytest.raises(EngineError, match="packed key range"):
            x.scale(lctx.ring.Q(1))

    def test_bracket_out_of_range(self, lctx):
        # [E_23, E_32] carries a Q_1 term, which overflows Q_1^8191
        x = lctx.basis(2, 3, 0, lctx.ring.Q(1, 8191))
        with pytest.raises(EngineError, match="packed key range"):
            lie_bracket(x, lctx.basis(3, 2, 0))
        y = lctx.basis(2, 3, 0, lctx.ring.Q(1, -8192))
        with pytest.raises(EngineError, match="packed key range"):
            lie_bracket(y, lctx.basis(3, 2, 0, lctx.ring.Q(1, -1)))

    def test_matrix_image_out_of_range(self, lctx):
        # the V_tau and evaluation matrices of E_23 carry Q_1 as well
        x = lctx.basis(2, 3, 0, lctx.ring.Q(1, 8191))
        with pytest.raises(EngineError, match="packed key range"):
            lctx.vtau_rep(x)
        with pytest.raises(EngineError, match="packed key range"):
            eval_map(lctx, x)
        A = mat_unit(lctx, 0, 1, lctx.ring.Q(1, 8191))
        with pytest.raises(EngineError, match="packed key range"):
            mat_commutator(lctx, A, eval_matrix(lctx, (2, 3, 0)))

    def test_exponent_past_the_slot(self, lctx):
        with pytest.raises(EngineError, match="packed key range"):
            lctx.basis(1, 1, 0, lctx.ring.Q(1, 8192))


class TestNoInstances:
    def test_jacobi_over_no_triples_fails(self, lctx):
        (c,) = verify_jacobi(lctx, deg_cap=2, sample=0)
        assert c == {
            "check": "jacobi",
            "params": {"shape": (2, 2), "deg_cap": 2, "triples": 0},
            "ok": False,
            "detail": "no instances",
        }

    def test_first_violation_over_nothing_fails(self):
        (c,) = _first_violations([("x", {})], [], iter(()))
        assert not c["ok"] and c["detail"] == "no instances"
        (c,) = _first_violations([("x", {})], [1, 2], iter(()))
        assert c["ok"] and "detail" not in c
        (c,) = _first_violations([("x", {})], [1, 2], iter([(0, 2)]))
        assert not c["ok"] and c["detail"] == "violation at 2"
        # ``detail`` names the instance, and a violation outweighs an
        # empty ``examined``
        (c,) = _first_violations([("x", {})], [], iter([(0, 2)]), str)
        assert not c["ok"] and c["detail"] == "2"

    def test_first_violations_stop_once_every_check_failed(self):
        pulled = []

        def violations():
            # check 1 fails at every odd x, check 0 at every even one
            for x in range(1, 6):
                pulled.append(x)
                yield x % 2, x

        checks = [("x", {}), ("y", {}), ("z", {})]
        got = _first_violations(checks, [1], violations())
        assert [c.get("detail") for c in got] == ["violation at 2", "violation at 1", None]
        assert pulled == [1, 2, 3, 4, 5]
        pulled.clear()
        got = _first_violations(checks[:2], [1], violations())
        assert [c.get("detail") for c in got] == ["violation at 2", "violation at 1"]
        assert pulled == [1, 2]

    def test_label_checks_over_no_labels_fail(self, lctx, monkeypatch):
        monkeypatch.setattr(lie_suite, "all_basis_labels", lambda lctx, deg_cap: [])
        checks = verify_antisymmetry(lctx) + verify_jacobi(lctx) + verify_gr(lctx)
        assert [c["check"] for c in checks] == [
            "bracket-antisymmetry", "jacobi", "gr-filtration", "gr-leading-term"]
        assert all(not c["ok"] and c["detail"] == "no instances" for c in checks)


# -- antisymmetry proven once, then unordered pairs and strict triples ----------

TAUS = (Fraction(2), Fraction(-1, 3))
# the default taus of ``verify_vtau``
DEFAULT_TAUS = (Fraction(2), Fraction(-1, 3), Fraction(5, 7))


# the checks over single labels, each of them a walk of the suite's one walker
SINGLE_LABEL = {"vtau-basis-closed-form", "eval-kills-positive-degree", "eval-levi-embedding"}


def _walked_checks(lctx, deg_cap):
    """Every check of ``_product_order_details``, with antisymmetry: the
    pairwise checks, exhaustive Jacobi and the checks over single labels."""
    checks = verify_antisymmetry(lctx, deg_cap=deg_cap)
    checks += verify_jacobi(lctx, deg_cap=deg_cap)
    checks += verify_vtau(lctx, deg_cap=deg_cap, taus=TAUS)
    checks += verify_gr(lctx, deg_cap=deg_cap)
    checks += verify_eval_map(lctx, deg_cap=deg_cap)
    return checks


def _pairwise_checks(lctx, deg_cap):
    """Every check over pairs of labels, and exhaustive Jacobi."""
    return [c for c in _walked_checks(lctx, deg_cap) if c["check"] not in SINGLE_LABEL]


def _first_in_product(out, key, instances, violated):
    bad = next((x for x in instances if violated(x)), None)
    out[key] = (None if bad is None else f"violation at {bad}", None)


def _per_tau_details(lctx, deg_cap, taus):
    """{("vtau-homomorphism", str(tau)): (detail or None, None)} as found by
    walking the whole product of generators at each tau alone, on the
    context's V_tau matrices read at that tau."""
    out = {}
    gens = generator_labels(lctx, deg_cap)
    for tau in taus:
        rep = {g: vtau_at(lctx, g, tau) for g in gens}
        _first_in_product(out, ("vtau-homomorphism", str(tau)), itertools.product(gens, gens),
                          lambda ab: at_q(lctx.vtau_rep(lctx.bracket_basis(*ab)), tau)
                          != mat_commutator(lctx, rep[ab[0]], rep[ab[1]]))
    return out


def _product_order_details(lctx, deg_cap):
    """{(check, tau): (detail or None, ordered triples examined)} for the
    pairwise checks and Jacobi as found by walking the whole product of
    labels, as the suite did before it proved antisymmetry first, and for
    the checks over single labels as found at each tau alone, on matrices
    read at that tau: the reference for the suite's walks over Z[tau]."""
    labels = all_basis_labels(lctx, deg_cap)
    out = _per_tau_details(lctx, deg_cap, TAUS)
    image = {a: eval_matrix(lctx, a) for a in labels}
    _first_in_product(out, ("eval-homomorphism", None), itertools.product(labels, labels),
                      lambda ab: eval_map(lctx, lctx.bracket_basis(*ab))
                      != mat_commutator(lctx, image[ab[0]], image[ab[1]]))
    m = lctx.m
    ring = lctx.ring
    for tau in TAUS:
        # E[p,q;t] hits v_q as tau^t times (tau - Q_k) for each junction k
        # at the positions p..q-1
        def off_closed_form(pqt, tau=tau):
            p, q, t = pqt
            coeff = ring.from_fraction(tau**t)
            for pos in range(p, q):
                if junction_Q(lctx, pos) is not None:
                    coeff = coeff * (ring.from_fraction(tau) - junction_Q(lctx, pos))
            return vtau_at(lctx, pqt, tau) != mat_unit(lctx, p - 1, q - 1, coeff)

        _first_in_product(out, ("vtau-basis-closed-form", str(tau)), itertools.product(
            range(1, m + 1), range(1, m + 1), range(deg_cap + 1)), off_closed_form)
    positive = [g for g in generator_labels(lctx, max(deg_cap, 1)) if g[2] >= 1]
    _first_in_product(out, ("eval-kills-positive-degree", None), positive,
                      lambda g: eval_matrix(lctx, g) != {})
    levi = []
    for k in range(1, lctx.shape.r + 1):
        block = [pos + 1 for pos in lctx.shape.block(k)]
        levi += [(pos, pos, 0) for pos in block]
        levi += [g for pos in block[:-1] for g in ((pos, pos + 1, 0), (pos + 1, pos, 0))]
    _first_in_product(out, ("eval-levi-embedding", None), levi,
                      lambda g: eval_matrix(lctx, g) != mat_unit(lctx, g[0] - 1, g[1] - 1, 1))
    psi = {(p, q): lctx.psi_gr(p, q) for p in range(1, m + 1) for q in range(1, m + 1)}
    names = {"gr-filtration": None, "gr-leading-term": None}
    if lctx.shape.r == 1:
        names["gr-exact-current"] = None
    for p, q, s, u, v, t in itertools.product(
        range(1, m + 1), range(1, m + 1), range(deg_cap + 1),
        range(1, m + 1), range(1, m + 1), range(deg_cap + 1),
    ):
        pair = ((p, q, s), (u, v, t))
        br = lctx.bracket_basis(*pair)
        lead = {}
        for term, coeff in br.terms.items():
            d = term[0][2]
            if d < s + t:
                names["gr-filtration"] = names["gr-filtration"] or str(pair)
            elif d == s + t:
                lead[term] = coeff
        if "gr-exact-current" in names and lead != br.terms:
            names["gr-exact-current"] = names["gr-exact-current"] or str(pair)
        expected = lctx.zero()
        if q == u:
            expected = expected + lctx.basis(p, v, s + t, psi[p, v])
        if v == p:
            expected = expected - lctx.basis(u, q, s + t, psi[u, q])
        if LieElem(lctx, lead).scale(psi[p, q] * psi[u, v]) != expected:
            names["gr-leading-term"] = names["gr-leading-term"] or str(pair)
    out.update({(name, None): (detail, None) for name, detail in names.items()})
    bad = []
    count = 0
    for abc in itertools.product(labels, repeat=3):
        count += 1
        if not jacobi_defect(lctx, *abc).is_zero:
            bad.append(abc)
            if len(bad) == 3:
                break
    out["jacobi", None] = (f"violations at {bad}" if bad else None, count)
    return out


def _details(checks):
    return {
        (c["check"], c["params"].get("tau")): (c.get("detail"), c["params"].get("triples"))
        for c in checks
        if c["check"] != "bracket-antisymmetry"
    }


class TestAntisymmetryFirst:
    def test_violation_is_memoized_per_label_tuple(self):
        lctx4 = LieContext(Shape((2, 2)))
        labels = all_basis_labels(lctx4, 1)
        assert lctx4.antisymmetry_violation(labels) is None
        assert lctx4._antisymmetry == {tuple(labels): None}
        assert lctx4.antisymmetry_violation(tuple(labels)) is None
        assert len(lctx4._antisymmetry) == 1

    def test_violation_names_the_pair_in_label_order(self):
        # the mutant sits on the later order of the pair; the pair is named
        # with its first label first, and [a, a] != 0 counts too
        lctx4 = LieContext(Shape((2, 2)))
        a, b = (1, 2, 0), (3, 3, 0)
        lctx4._bb_cache[b, a] = lctx4.bracket_basis(b, a) + lctx4.basis(1, 1, 0)
        assert lctx4.antisymmetry_violation([a, b]) == (a, b)
        assert lctx4.antisymmetry_violation([b, a]) == (b, a)
        lctx4._bb_cache[b, b] = lctx4.basis(1, 1, 0)
        assert lctx4.antisymmetry_violation([b]) == (b, b)

    @pytest.mark.parametrize("m", [(2, 2), (3,)])
    def test_broken_antisymmetry_fails_every_pairwise_check(self, m):
        # one order of one generator pair; (1, 2, 0) is no inner label of the
        # recursion, so the mutant reaches no other bracket
        lctx = LieContext(Shape(m))
        a, b = (1, 2, 0), (2, 1, 0)
        lctx._bb_cache[a, b] = lctx.bracket_basis(a, b) + lctx.basis(1, 1, 0)
        checks = _pairwise_checks(lctx, deg_cap=1)
        names = [c["check"] for c in checks]
        gr = ["gr-filtration", "gr-leading-term"] + (["gr-exact-current"] if len(m) == 1 else [])
        assert names == ["bracket-antisymmetry", "jacobi", "vtau-homomorphism",
                         "vtau-homomorphism", *gr, "eval-homomorphism"]
        assert not any(c["ok"] for c in checks)
        assert checks[0]["detail"] == f"violation at {(a, b)}"
        for c in checks[1:]:
            assert c["detail"] == f"antisymmetry violation at {(a, b)}", c
        assert checks[1]["params"]["triples"] == len(all_basis_labels(lctx, 1)) ** 3

    @pytest.mark.parametrize("m", [(2, 2), (3,)])
    @pytest.mark.parametrize("mutants,survivors", [
        # a wrong leading term, a degree-0 term under a degree-2 bracket and a
        # degree-1 term in a degree-0 bracket: every family fails
        ([(((1, 2, 0), (2, 2, 0)), (1, 1, 0)),
          (((1, 2, 1), (1, 1, 1)), (1, 1, 0)),
          (((1, 1, 0), (1, 2, 0)), (2, 2, 1))], set()),
        # a degree-0 term under a degree-1 bracket with the last label only
        ([(("last-lowering", "last"), (1, 1, 0))], {"gr-leading-term"}),
        # index-disjoint pairs, which the pairwise walks skip while their
        # bracket is empty: a wrong leading term in degree 0, and a degree-0
        # term under a degree-1 bracket
        ([(((1, 1, 0), (3, 3, 0)), (2, 2, 0))], {"gr-filtration", "gr-exact-current"}),
        ([(((1, 1, 1), (3, 3, 0)), (2, 2, 0))], {"gr-leading-term"}),
    ])
    def test_symmetric_mutants_are_found_where_the_product_walk_finds_them(
        self, m, mutants, survivors
    ):
        # each mutant in both orders, the second negated.  Neither (1, 2, t),
        # (m, m - 1, 0) nor a diagonal label is an inner label of the
        # recursion, so no other bracket changes.
        lctx = LieContext(Shape(m))
        deg_cap = 1
        n = lctx.m
        named = {"last": (n, n, deg_cap), "last-lowering": (n, n - 1, 0)}
        for (x, y), extra in mutants:
            x, y = named.get(x, x), named.get(y, y)
            br = lctx.bracket_basis(x, y) + lctx.basis(*extra)
            lctx._bb_cache[x, y] = br
            lctx._bb_cache[y, x] = -br
        assert lctx.antisymmetry_violation(all_basis_labels(lctx, deg_cap)) is None
        checks = _walked_checks(lctx, deg_cap)
        got = _details(checks)
        assert got == _product_order_details(lctx, deg_cap)
        failed = {name for (name, _), (detail, _) in got.items() if detail}
        # the mutants touch no matrix, so the checks over single labels pass
        assert failed == {name for name, _ in got} - survivors - SINGLE_LABEL
        assert checks[0]["ok"]

    @pytest.mark.parametrize("m", [(2, 2), (3,)])
    def test_a_lost_bracket_on_a_shared_index_is_found(self, m):
        # [E_{1,2;0}, E_{2,2;0}] emptied in both orders: an empty bracket
        # whose labels share an index is still compared with gl_m[x]
        lctx = LieContext(Shape(m))
        a, b = (1, 2, 0), (2, 2, 0)
        lctx._bb_cache[a, b] = lctx._bb_cache[b, a] = lctx.zero()
        got = _details(_walked_checks(lctx, 1))
        assert got == _product_order_details(lctx, 1)
        assert got["gr-leading-term", None] == (str((a, b)), None)
        assert got["gr-filtration", None] == (None, None)

    @pytest.mark.parametrize("m", [(2, 2), (3,)])
    def test_a_matrix_entry_off_the_label_is_found(self, m):
        # E_{3,3} gains an entry 3 tau + 1 at (1, 2): 1 in V_0, 7 in V_2 and
        # none in V_{-1/3}.  [E_{1,1}, E_{3,3}] is empty and the labels share
        # no index, but the matrices now meet
        lctx = LieContext(Shape(m))
        deg_cap = 1
        corrupt(lctx, (3, 3, 0), lctx.ring.q.scale(3) + lctx.ring.one, at=(0, 1))
        checks = _walked_checks(lctx, deg_cap)
        got = _details(checks)
        want = _product_order_details(lctx, deg_cap)
        assert got == want
        pair = ((1, 1, 0), (3, 3, 0))
        assert lctx.bracket_basis(*pair).is_zero
        for key in [("eval-homomorphism", None), ("vtau-homomorphism", str(TAUS[0]))]:
            assert got[key] == want[key] == (f"violation at {pair}", None)
        assert got["vtau-homomorphism", str(TAUS[1])] == (None, None)
        # the closed form of E_{3,3} fails off its label, and V_0 of the
        # Levi generator E_{3,3} is no matrix unit
        assert got["vtau-basis-closed-form", str(TAUS[0])] == ("violation at (3, 3, 0)", None)
        assert got["vtau-basis-closed-form", str(TAUS[1])] == (None, None)
        assert got["eval-levi-embedding", None] == ("violation at (3, 3, 0)", None)
        assert got["eval-kills-positive-degree", None] == (None, None)

    @pytest.mark.parametrize("m", [(2, 2), (3,)])
    @pytest.mark.parametrize("label", [(1, 2, 0), (2, 1, 1)])
    def test_a_corruption_vanishing_at_zero_passes_every_eval_check(self, m, label):
        # 5 tau added at a generator's own entry: V_0 is untouched, and
        # every V_tau at a default tau changes
        lctx = LieContext(Shape(m))
        corrupt(lctx, label, lctx.ring.q.scale(5))
        got = _details(_walked_checks(lctx, 1))
        assert got == _product_order_details(lctx, 1)
        failed = {key for key, (detail, _) in got.items() if detail}
        assert failed == {(name, str(tau)) for name in ("vtau-homomorphism",
                                                        "vtau-basis-closed-form")
                          for tau in TAUS}

    @pytest.mark.parametrize("m", [(2, 2), (3,)])
    @pytest.mark.parametrize("label,eval_check", [
        ((1, 2, 0), "eval-levi-embedding"), ((2, 1, 1), "eval-kills-positive-degree")])
    def test_a_corruption_vanishing_at_minus_a_third_passes_only_there(
        self, m, label, eval_check
    ):
        # 3 tau + 1 added at a generator's own entry: V_{-1/3} is untouched,
        # and V_0 gains 1 there
        lctx = LieContext(Shape(m))
        corrupt(lctx, label, lctx.ring.q.scale(3) + lctx.ring.one)
        got = _details(_walked_checks(lctx, 1))
        assert got == _product_order_details(lctx, 1)
        failed = {key for key, (detail, _) in got.items() if detail}
        assert failed == {("vtau-homomorphism", str(TAUS[0])),
                          ("vtau-basis-closed-form", str(TAUS[0])),
                          ("eval-homomorphism", None), (eval_check, None)}
        assert got[eval_check, None] == (f"violation at {label}", None)

    def test_homomorphism_checks_build_only_the_pairs_that_can_fail(self, monkeypatch):
        # 108 labels (5,886 pairs) at degree 2 and 64 generators (2,080
        # pairs, walked once for three taus) at degree 3: the rest have an
        # empty bracket and matrices that meet in no index
        calls = []

        def counting(lctx, A, B):
            calls.append(None)
            return mat_commutator(lctx, A, B)

        monkeypatch.setattr(lie_suite, "mat_commutator", counting)
        lctx = LieContext(Shape((2, 2, 2)))
        assert all(c["ok"] for c in verify_eval_map(lctx, deg_cap=2))
        assert len(calls) == 1791
        calls.clear()
        assert all(c["ok"] for c in verify_vtau(lctx, deg_cap=3))
        assert len(calls) == 588

    @pytest.mark.parametrize("m", [(2, 2), (3,)])
    @pytest.mark.parametrize("label", [(1, 2, 0), (2, 1, 1), (2, 2, 0)])
    def test_a_raised_tau_degree_fails_at_every_tau(self, m, label):
        # tau^{t+1} in place of tau^t at one generator: the generator is
        # scaled by tau, which no default tau undoes
        lctx = LieContext(Shape(m))
        (entry,) = lctx.vtau_basis_matrix(label)
        lctx._vtau[label] = mat_unit(lctx, *entry[0], lctx.ring.q_pow(label[2] + 1))
        homs = _by_name(verify_vtau(lctx, deg_cap=1), "vtau-homomorphism")
        want = _per_tau_details(lctx, 1, DEFAULT_TAUS)
        assert {(c["params"]["tau"], c.get("detail")) for c in homs} == {
            (tau, detail) for (_, tau), (detail, _) in want.items()}
        assert len(homs) == 3 and not any(c["ok"] for c in homs)

    @pytest.mark.parametrize("m", [(2, 2), (3,), (1, 2, 1)])
    def test_a_corruption_vanishing_at_two_passes_only_there(self, m):
        lctx = LieContext(Shape(m))
        corrupt(lctx, (1, 2, 0), lctx.ring.q - lctx.ring.from_fraction(2))
        checks = verify_vtau(lctx, deg_cap=1)
        homs = _by_name(checks, "vtau-homomorphism")
        want = _per_tau_details(lctx, 1, DEFAULT_TAUS)
        assert [c["ok"] for c in homs] == [True, False, False]
        for c in homs:
            assert (c.get("detail"), None) == want["vtau-homomorphism", c["params"]["tau"]]
        closed = _by_name(checks, "vtau-basis-closed-form")
        assert [c.get("detail") for c in closed] == [None] + ["violation at (1, 2, 0)"] * 2

    def test_exhaustive_jacobi_walks_the_strict_triples(self, monkeypatch):
        seen = []

        def recording(lctx, a, b, c):
            seen.append((a, b, c))
            return jacobi_defect(lctx, a, b, c)

        monkeypatch.setattr(lie_suite, "jacobi_defect", recording)
        lctx = LieContext(Shape((1, 2)))
        (c,) = verify_jacobi(lctx, deg_cap=1)
        labels = all_basis_labels(lctx, 1)
        assert c["ok"] and c["params"]["triples"] == len(labels) ** 3
        assert seen == list(itertools.combinations(labels, 3))

    def test_clean_reports_match_the_product_walk(self):
        lctx = LieContext(Shape((1, 2)))
        checks = _walked_checks(lctx, deg_cap=1)
        assert all(c["ok"] for c in checks)
        assert _details(checks) == _product_order_details(lctx, 1)

    def test_one_label_has_one_ordered_triple(self):
        (c,) = verify_jacobi(LieContext(Shape((1,))), deg_cap=0)
        assert c == {
            "check": "jacobi",
            "params": {"shape": (1,), "deg_cap": 0, "triples": 1},
            "ok": True,
        }
