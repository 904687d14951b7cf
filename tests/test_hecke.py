from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cycloschur.hecke as hecke_mod
from cycloschur.combinatorics import Shape
from cycloschur.hecke import (
    EngineError,
    HeckeContext,
    divided_t_bracket,
    elem_to_json,
    m_mu,
    perm_inversions,
    phi_jm,
    reduced_word,
    t_bracket,
    t_paren,
    t_paren_factorial,
    verify_bracket_com_rel,
    verify_commute_LT,
    verify_divided_brackets,
    verify_hecke,
    verify_jm_normal_form,
    verify_L_commutes_bracket,
    verify_m_mu_T,
    young_subgroup_sum,
)
from cycloschur.reporting import failures


@pytest.fixture(scope="module")
def ctx3():
    return HeckeContext(3, 2)


@pytest.fixture(scope="module")
def ctx4():
    return HeckeContext(4, 2)


class TestPermutations:
    def test_reduced_word_roundtrip(self, ctx4):
        import itertools

        for w in itertools.permutations(range(4)):
            word = reduced_word(w)
            assert len(word) == perm_inversions(w)
            elem = ctx4.Tword(word)
            if word:
                ((c, w2),) = elem.terms.keys()
                assert c == (0, 0, 0, 0)
                assert w2 == w
            else:
                assert elem == ctx4.one()


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
        for c in verify_jm_normal_form(ctx3):
            assert c["ok"], c

    def test_normalize_idempotent_on_words(self, ctx3):
        words = [
            (ctx3.ring.one, [("T", 1), ("L", 2, 2), ("T", 2), ("T", 0)]),
            (ctx3.ring.q, [("T", 2), ("T", 1), ("L", 1, 1)]),
        ]
        elem = ctx3.normalize(words)
        # renormalizing the normal form term by term is the identity
        rebuilt = ctx3.zero()
        for (c, w), coeff in elem.terms.items():
            atoms = [("L", j + 1, e) for j, e in enumerate(c) if e]
            atoms += [("T", i) for i in ctx3.reduced_word(w)]
            rebuilt = rebuilt + ctx3.normalize([(coeff, atoms)])
        assert rebuilt == elem


@st.composite
def short_words(draw, ctx):
    length = draw(st.integers(0, 4))
    atoms = []
    for _ in range(length):
        kind = draw(st.integers(0, 2))
        if kind == 0:
            atoms.append(("T", draw(st.integers(0, ctx.n - 1))))
        elif kind == 1:
            atoms.append(("L", draw(st.integers(1, ctx.n)), draw(st.integers(1, 2))))
        else:
            atoms.append(("T", draw(st.integers(1, ctx.n - 1))))
    coeff = ctx.ring.q_pow(draw(st.integers(-1, 1))).scale(draw(st.integers(1, 3)))
    return (coeff, atoms)


class TestAlgebraAxioms:
    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_associative(self, data):
        ctx = HeckeContext(3, 2)
        x = ctx.normalize([data.draw(short_words(ctx))])
        y = ctx.normalize([data.draw(short_words(ctx))])
        z = ctx.normalize([data.draw(short_words(ctx))])
        assert (x * y) * z == x * (y * z)

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_normalize_linear(self, data):
        ctx = HeckeContext(3, 2)
        w1 = data.draw(short_words(ctx))
        w2 = data.draw(short_words(ctx))
        both = ctx.normalize([w1, w2])
        assert both == ctx.normalize([w1]) + ctx.normalize([w2])

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_results_store_no_zero_coefficient(self, data):
        # the operations build their term dicts without a cleaning pass
        ctx = HeckeContext(3, 2)
        x = ctx.normalize([data.draw(short_words(ctx))])
        y = ctx.normalize([data.draw(short_words(ctx))])
        results = [
            x + y, x - y, x - x, -x, x * y, x.scale(ctx.ring.qq_comm()),
            x.shift_L(2, 1), ctx.lmul_gen(1, x), ctx.rmul_gen(x, 2),
        ]
        for elem in results:
            assert not any(c.is_zero for c in elem.terms.values())
        assert (x - x).terms == {}


class TestMmu:
    def test_trivial_weight(self):
        ctx = HeckeContext(1, 2)
        shape = Shape((1, 1))
        assert m_mu(ctx, ((0,), (1,)), shape) == ctx.one()

    def test_single_box_first_component(self):
        ctx = HeckeContext(1, 2)
        shape = Shape((1, 1))
        expected = ctx.L(1) - ctx.scalar(ctx.ring.Q(1))
        assert m_mu(ctx, ((1,), (0,)), shape) == expected

    def test_row_two(self):
        ctx = HeckeContext(2, 1)
        shape = Shape((2,))
        expected = ctx.one() + ctx.T(1).scale(ctx.ring.q)
        assert m_mu(ctx, ((2, 0),), shape) == expected

    def test_m_mu_T(self, ctx3):
        for c in verify_m_mu_T(ctx3, Shape((2, 2))):
            assert c["ok"], c

    def test_young_sum_size(self):
        ctx = HeckeContext(4, 1)
        elem = young_subgroup_sum(ctx, ((2, 2),))
        assert len(elem.terms) == 4


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


class TestDividedBrackets:
    def test_d0(self, ctx3):
        prod, h = divided_t_bracket(ctx3, 1, 2, 0, +1)
        assert prod == ctx3.one() and h == ctx3.one()

    def test_mu_less_than_d(self, ctx3):
        prod, h = divided_t_bracket(ctx3, 0, 1, 2, +1)
        assert prod.is_zero and h.is_zero

    def test_reconstruction_mismatch_is_an_engine_error(self, monkeypatch):
        ctx = HeckeContext(3, 2)
        real = hecke_mod.stacked_bracket
        monkeypatch.setattr(hecke_mod, "stacked_bracket", lambda *a: real(*a).scale(2))
        with pytest.raises(EngineError, match="divided bracket mismatch"):
            divided_t_bracket(ctx, 0, 2, 1, +1)

    def test_d1(self, ctx3):
        prod, h = divided_t_bracket(ctx3, 0, 2, 1, +1)
        assert prod == t_bracket(ctx3, 0, 2, +1)
        assert h == prod  # (T;N,1)^+! = 1

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
        shape = Shape((2, 2))
        mu = ((2, 0), (1, 0))
        mm = m_mu(ctx3, mu, shape)
        assert ctx3.rmul_gen(mm, 1) == mm.scale(ctx3.ring.q)


class TestPhiJm:
    def test_degree_one(self, ctx3):
        assert phi_jm(ctx3, 1, +1, [2, 1]) == ctx3.L(2) + ctx3.L(1)

    def test_empty(self, ctx3):
        assert phi_jm(ctx3, 2, +1, []).is_zero

    def test_commutes_with_m_mu(self, ctx3):
        shape = Shape((2, 2))
        mu = ((1, 1), (1, 0))
        mm = m_mu(ctx3, mu, shape)
        p = phi_jm(ctx3, 2, +1, [2, 1])
        assert mm * p == p * mm


class TestJson:
    def test_roundtrip_shape(self, ctx3):
        # canonical order: L-vector lex first, then permutation
        data = elem_to_json(ctx3.T(1) + ctx3.L(2, 2))
        assert data[0]["L"] == [0, 0, 0] and data[0]["w"] == [2, 1, 3]
        assert data[1]["L"] == [0, 2, 0] and data[1]["w"] == [1, 2, 3]


@pytest.mark.slow
class TestSuiteSmall:
    def test_full_suite_n3_r2(self):
        ctx = HeckeContext(3, 2)
        checks = verify_hecke(ctx, Shape((2, 2)), t_comm=3, t_mmult=2, t_etc=2, dmax=2)
        bad = failures(checks)
        assert not bad, bad[:3]
