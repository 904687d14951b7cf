import gc
import json
import os
import weakref
from fractions import Fraction
from functools import partial
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycloschur import schurops
from cycloschur.cli import main
from cycloschur.coeff import EngineError, LaurentRing, MultiLaurent, qfactorial
from cycloschur.combinatorics import Shape
from cycloschur.coeff import ml_to_json
from cycloschur.hecke import m_mu_mul, t_bracket, x_mu_mul
from cycloschur.schurops import (
    I,
    K,
    SchurContext,
    X,
    ow,
    ow_commutator,
    ow_mul,
    ow_neg,
    ow_scale,
)
from cycloschur.suites import schur as schur_suite
from cycloschur.suites.schur import (
    divided_power_image,
    hw_eigenvalue_pair,
    ow_qcomm,
    q1_relation_words,
    relation_words,
    run_relations,
    verify_divided_powers,
    verify_hw_eigenvalues,
    verify_q1,
    verify_relations,
    word_J,
    word_ktilde,
)

from coeff_helpers import monomial


def m_mu(ctx, mu):
    """The element m_mu, as ``m_mu_mul`` applied to 1."""
    return m_mu_mul(ctx, mu, ctx.one())


def json_terms(elem):
    """Every term of elem as JSON in report order, all of them converted:
    the reference for failure details, which keep the first three."""
    return [{"L": list(c), "w": [x + 1 for x in w], "coeff": ml_to_json(coeff)}
            for (c, w), coeff in elem.sorted_terms()]


def block_detail(mu, nu, value):
    """The ``first_difference`` detail of the block (mu, nu) whose
    difference D has m_nu * D = value."""
    return {
        "witness_weight": [list(c) for c in mu],
        "target_weight": [list(c) for c in nu],
        "lhs_minus_rhs": json_terms(value)[:3],
    }


@pytest.fixture(scope="module")
def sctx22():
    return SchurContext(2, Shape((2, 2)))


@pytest.fixture(scope="module")
def sctx32():
    return SchurContext(3, Shape((2, 2)))


class TestApplyGen:
    def test_K_scalar(self, sctx22):
        mu = ((1, 0), (1, 0))
        nu, h = sctx22.apply_gen(K(+1, 1), mu)
        assert nu == mu
        assert h == sctx22.hctx.scalar(sctx22.ring.q)

    def test_I_zero_entry(self, sctx22):
        mu = ((0, 0), (2, 0))
        nu, h = sctx22.apply_gen(I(+1, 1, 1), mu)
        assert nu == mu and h.is_zero

    def test_I_eigen_action(self, sctx22):
        # I^+_{(1,1),0} acts on m_mu by q^{-e}[e] with e the weight entry
        mu = ((2, 0), (0, 0))
        value = sctx22.apply_seq((I(+1, 1, 0),), mu)
        from cycloschur.coeff import qint

        ring = sctx22.ring
        expected = m_mu(sctx22.hctx, mu).scale(ring.q_pow(-2) * qint(2, ring))
        assert value == expected

    def test_X_plus_zero_successor(self, sctx22):
        mu = ((2, 0), (0, 0))
        nu, h = sctx22.apply_gen(X(+1, 1, 0), mu)
        assert nu is None and h.is_zero

    def test_X_plus_moves_weight(self, sctx22):
        mu = ((1, 1), (0, 0))
        nu, h = sctx22.apply_gen(X(+1, 1, 0), mu)
        assert nu == ((2, 0), (0, 0))
        assert h == t_bracket(sctx22.hctx, 1, 1, +1)  # q^{-1+1} [T;1,1]^+ = 1

    def test_X_minus_junction_factor(self, sctx22):
        # position 2 is the junction between the two components
        mu = ((1, 1), (0, 0))
        nu, h = sctx22.apply_gen(X(-1, 2, 0), mu)
        assert nu == ((1, 0), (1, 0))
        hc = sctx22.hctx
        expected = (hc.L(2) - hc.scalar(sctx22.ring.Q(1))) * t_bracket(hc, 2, 1, -1)
        assert h == expected

    def test_closed_form_matches_induction(self, sctx22):
        # building the table of X_t, t > 0, checks it against the inductive
        # definition on every weight; it must not raise
        assert sctx22.table((X(+1, 1, 2),))
        assert sctx22.table((X(-1, 2, 2),))


class TestApplyWord:
    def test_empty_word_is_identity(self, sctx22):
        mu = ((1, 0), (1, 0))
        assert sctx22.apply_seq((), mu) == m_mu(sctx22.hctx, mu)

    def test_KK_inverse(self, sctx22):
        ring = sctx22.ring
        detail = sctx22.op_equal(ow(ring, K(+1, 2), K(-1, 2)), ow(ring))
        assert detail is None, detail

    def test_K_plus_not_K_minus(self, sctx22):
        ring = sctx22.ring
        assert sctx22.op_equal(ow(ring, K(+1, 1)), ow(ring, K(-1, 1))) is not None

    def test_R1_square(self, sctx22):
        ring = sctx22.ring
        lhs = ow(ring, K(+1, 3), K(+1, 3))
        rhs = ow(ring) + ow_scale(ow(ring, I(-1, 3, 0)), ring.qq_comm())
        detail = sctx22.op_equal(lhs, rhs)
        assert detail is None, detail

    def test_word_J_zero_degree_definition(self, sctx22):
        # J_0 against its K-corollary form on each weight
        ring = sctx22.ring
        rhs = ow(ring, I(+1, 1, 0)) + ow_neg(ow(ring, K(-1, 1), K(-1, 1), I(-1, 2, 0)))
        detail = sctx22.op_equal(word_J(ring, 1, 0), rhs)
        assert detail is None, detail

    def test_ktilde_commutator_with_J(self, sctx22):
        # R6 at (t,s) = (0,0) away from the junction: [X+_1, X-_1] = Ktilde+ J_0
        ring = sctx22.ring
        lhs = ow_commutator(ring, ow(ring, X(+1, 1, 0)), ow(ring, X(-1, 1, 0)))
        rhs = ow_mul(ring, word_ktilde(ring, +1, 1), word_J(ring, 1, 0))
        detail = sctx22.op_equal(lhs, rhs)
        assert detail is None, detail


class TestDividedPowers:
    def test_d1_integral(self, sctx32):
        mu = ((1, 1), (1, 0))
        quotient = divided_power_image(sctx32, 1, +1, 0, 1, mu)
        assert quotient == sctx32.apply_seq((X(+1, 1, 0),), mu)

    def test_d2_divides(self, sctx32):
        mu = ((0, 2), (1, 0))
        quotient = divided_power_image(sctx32, 1, +1, 0, 2, mu)
        assert quotient is not None
        assert not quotient.is_zero

    def test_overshoot_vanishes(self, sctx32):
        mu = ((1, 1), (1, 0))
        quotient = divided_power_image(sctx32, 1, +1, 0, 2, mu)
        assert quotient.is_zero

    @pytest.mark.parametrize("q_one", [False, True])
    def test_quotient_times_divisor_is_the_image(self, q_one):
        # every divided power at n = 3, m = (2, 2): the A-form quotient times
        # [d]! (d! at q = 1) gives back the image, and some are nonzero
        sctx = SchurContext(3, Shape((2, 2)), q_one=q_one)
        gamma_prime = range(1, sctx.shape.total)
        nonzero = 0
        for pos, sign, t, d, mu in product(gamma_prime, (+1, -1), (0, 1), (1, 2, 3), sctx.weights):
            value = sctx.apply_seq(tuple([X(sign, pos, t)] * d), mu)
            quotient = divided_power_image(sctx, pos, sign, t, d, mu)
            assert quotient.scale(qfactorial(d, sctx.ring)) == value
            nonzero += not quotient.is_zero
        assert nonzero > 0

    def test_power_formula_with_cofactor(self, sctx32):
        # (X^+_t)^d (m_mu) = [d]! q^{-d mu_{i+1} + d^2} m_{mu + d alpha}
        #                     (L_{N+1}...L_{N+d})^t  H^+(N, mu_{i+1}, d)
        from cycloschur.combinatorics import flatten, jm_position, unflatten
        from cycloschur.hecke import divided_t_bracket

        sctx = sctx32
        pos, t, d = 1, 1, 2
        mu = ((0, 2), (1, 0))
        value = sctx.apply_seq(tuple([X(+1, pos, t)] * d), mu)
        N = jm_position(mu, sctx.shape.node(pos), sctx.shape)
        succ = flatten(mu)[pos]
        _, cofactor = divided_t_bracket(sctx.hctx, N, succ, d, +1)
        flat = list(flatten(mu))
        flat[pos - 1] += d
        flat[pos] -= d
        target = unflatten(flat, sctx.shape)
        expected = m_mu(sctx.hctx, target)
        for j in range(1, d + 1):
            expected = expected * sctx.hctx.L(N + j, t)
        expected = (expected * cofactor).scale(
            qfactorial(d, sctx.ring) * sctx.ring.q_pow(-d * succ + d * d)
        )
        assert value == expected


class TestRunRelations:
    def test_records_a_false_relation(self, sctx22):
        # R4-plus with the sign of the exponent e = sign * a flipped
        ring = sctx22.ring
        a = sctx22.cartan(1, 1)
        lhs = ow_qcomm(ring, I(+1, 1, 0), X(+1, 1, 0), -a)
        rhs = ow_scale(ow(ring, X(+1, 1, 0)), ring.from_fraction(a))
        (check,) = run_relations(sctx22, [("R4-plus", {"x": 1}, lhs, rhs)])
        assert check["ok"] is False
        assert check["params"] == {"x": 1}
        assert check["detail"]["witness_weight"] == [[0, 1], [0, 1]]

    def test_failure_detail_of_a_corrupted_rhs(self, sctx22):
        # R3-KXK with q^{a+1} for q^a on the right: the witness is the first
        # weight on which X^+_1 is alive, the target is mu + alpha_1, and the
        # terms are those of m_nu * (lhs - rhs) from the expanded reference
        ring = sctx22.ring
        a = sctx22.cartan(1, 1)
        x = X(+1, 1, 0)
        lhs = ow(ring, K(+1, 1), x, K(-1, 1))
        rhs = ow_scale(ow(ring, x), ring.q_pow(a + 1))
        (check,) = run_relations(sctx22, [("R3-KXK", {"x": 1, "jl": 1}, lhs, rhs)])
        assert check["ok"] is False
        mu = next(
            mu for mu in sctx22.weights
            if not expanded_reference(sctx22, ow(ring, x), mu).is_zero
        )
        nu = sctx22.add_alpha(mu, 1, +1)
        diff = expanded_reference(sctx22, lhs, mu) - expanded_reference(sctx22, rhs, mu)
        assert check["detail"] == block_detail(mu, nu, diff)

    def test_passing_relation_has_no_detail(self, sctx22):
        ring = sctx22.ring
        lhs = ow(ring, K(+1, 2), K(-1, 2))
        (check,) = run_relations(sctx22, [("R1-K-inverse", {"pos": 2}, lhs, ow(ring))])
        assert check == {"check": "R1-K-inverse", "params": {"pos": 2}, "ok": True}

    def test_a_repeated_relation_is_decided_once(self, sctx22, monkeypatch):
        # each check keeps its own name and params; a relation that repeats
        # the lhs alone, with another rhs, is decided again
        ring = sctx22.ring
        lhs, wrong = ow(ring, K(+1, 1)), ow(ring, K(-1, 1))
        relations = [
            ("first", {"p": 1}, lhs, wrong),
            ("second", {"p": 2}, ow(ring, K(+1, 1)), ow(ring, K(-1, 1))),
            ("third", {"p": 3}, lhs, lhs),
            ("fourth", {"p": 4}, lhs, wrong),
        ]
        calls = []
        real = SchurContext.op_equal
        monkeypatch.setattr(SchurContext, "op_equal",
                            lambda self, a, b: calls.append(1) or real(self, a, b))
        checks = run_relations(sctx22, relations)
        assert len(calls) == 3
        assert [(c["check"], c["params"], c["ok"]) for c in checks] == [
            ("first", {"p": 1}, False), ("second", {"p": 2}, False),
            ("third", {"p": 3}, True), ("fourth", {"p": 4}, False),
        ]
        assert checks[0]["detail"] == checks[1]["detail"] == checks[3]["detail"]

    def test_x_induction_failure_carries_the_detail(self, monkeypatch):
        # doubling phi_jm breaks the inductive definition of X_1 through I_1
        real = schurops.phi_jm
        monkeypatch.setattr(schurops, "phi_jm", lambda *a: real(*a).scale(2))
        sctx = SchurContext(2, Shape((2, 2)))
        with pytest.raises(EngineError) as info:
            sctx.table((X(+1, 1, 1),))
        message = str(info.value)
        assert message.startswith(f"closed form and inductive definition disagree for {X(+1, 1, 1)}")
        detail = json.loads(message.split(": ", 1)[1])
        assert set(detail) == {"witness_weight", "target_weight", "lhs_minus_rhs"}
        assert detail["lhs_minus_rhs"]


def chain(sctx, labels, mu):
    """The sequence applied to m_mu as (nu, h), h multiplied out label by
    label from apply_gen with no sequence table; (None, 0) when it dies."""
    nu, h = mu, sctx.hctx.one()
    for label in reversed(labels):
        nu, h1 = sctx.apply_gen(label, nu)
        if nu is None:
            return None, h1
        h = h1 * h
    return nu, h


def expanded_blocks(sctx, word, mu):
    """{nu: sum_s c_s * (m_nu * h_s)} over the sequences s of the word that
    send m_mu to weight nu, from ``chain``."""
    blocks = {}
    for coeff, labels in word:
        nu, h = chain(sctx, labels, mu)
        if nu is not None:
            value = (m_mu(sctx.hctx, nu) * h).scale(
                MultiLaurent._make(sctx.ring.nvars, coeff))
            blocks[nu] = blocks[nu] + value if nu in blocks else value
    return blocks


def expanded_reference(sctx, word, mu):
    """The word applied to m_mu, summed over its blocks in H."""
    return sum(expanded_blocks(sctx, word, mu).values(), sctx.hctx.zero())


class TestRightFactors:
    @pytest.mark.parametrize("q_one,words", [
        (False, relation_words), (True, q1_relation_words),
    ])
    def test_difference_matches_expanded_reference(self, q_one, words):
        sctx = SchurContext(2, Shape((1, 2)), q_one=q_one)
        hctx, zero = sctx.hctx, ()
        nonzero = 0
        for _name, _params, lhs, rhs in words(sctx, 1):
            for a, b in ((lhs, rhs), (lhs, zero), (rhs, zero)):
                blocks = sctx.block_difference(a, b)
                for mu in sctx.weights:
                    left, right = expanded_blocks(sctx, a, mu), expanded_blocks(sctx, b, mu)
                    row = {
                        nu: m_mu_mul(hctx, nu, hctx.from_terms(out))
                        for nu, out in blocks.get(mu, {}).items()
                    }
                    for nu in left.keys() | right.keys() | row.keys():
                        expected = left.get(nu, hctx.zero()) - right.get(nu, hctx.zero())
                        assert row.get(nu, hctx.zero()) == expected
                    total = sum(row.values(), hctx.zero())
                    assert total == expanded_reference(sctx, a, mu) - expanded_reference(
                        sctx, b, mu
                    )
                    nonzero += b is zero and not total.is_zero
        assert nonzero > 200

    def test_m_nu_kills_differing_right_factors(self):
        # R6-diagonal at the junction position 1 of m = (1, 2): the right
        # factors of the two sides differ at nu = mu, m_nu times them agree
        sctx = SchurContext(2, Shape((1, 2)))
        assert sctx.shape.junction(1) == 1
        ((lhs, rhs),) = [
            (lhs, rhs)
            for name, params, lhs, rhs in relation_words(sctx, 1)
            if name == "R6-diagonal" and params == {"pos": 1, "t": 0, "s": 0}
        ]
        mu = ((2,), (0, 0))
        blocks = sctx.block_difference(lhs, rhs)
        assert set(blocks[mu]) == {mu}
        diff = sctx.hctx.from_terms(blocks[mu][mu])
        assert not diff.is_zero
        assert (m_mu(sctx.hctx, mu) * diff).is_zero
        assert sctx.first_difference(blocks) is None
        assert sctx.op_equal(lhs, rhs) is None

    def test_table_is_the_product_and_caches_prefixes(self):
        sctx = SchurContext(3, Shape((2, 2)))
        labels = (X(-1, 2, 1), I(+1, 2, 1), X(+1, 1, 0))
        mu = ((0, 3), (0, 0))
        nu, h = sctx.table(labels)[mu]
        step, prod = chain(sctx, labels, mu)
        assert nu == step == ((1, 1), (1, 0))
        assert h == prod and not h.is_zero
        # the table of labels[:-1] and those of the single labels
        for key in (labels[:2], labels[:1], labels[1:2], labels[2:]):
            assert key in sctx._seq_cache
        assert sctx._seq_cache[labels[:2]][((1, 2), (0, 0))][0] == nu
        assert sctx.apply_seq(labels, mu) == m_mu(sctx.hctx, nu) * prod

    def test_tables_hold_exactly_the_live_weights(self):
        sctx = SchurContext(3, Shape((2, 2)))
        labels = (X(-1, 2, 1), I(+1, 2, 1), X(+1, 1, 0))
        sctx.table(labels)
        # the sequence, its prefixes and single labels, and the words of the
        # X_1 induction check
        assert len(sctx._seq_cache) > 5
        for seq, table in sctx._seq_cache.items():
            live = {}
            for mu in sctx.weights:
                nu, h = chain(sctx, seq, mu)
                if not h.is_zero:
                    live[mu] = (nu, h)
            assert table == live

    def test_dead_sequence(self, sctx22):
        # X^+_1 on a weight whose successor entry is zero
        assert ((2, 0), (0, 0)) not in sctx22.table((X(+1, 1, 0),))
        assert sctx22.apply_seq((X(+1, 1, 0),), ((2, 0), (0, 0))).is_zero
        # (X^+_1)^3 moves three nodes, more than n = 2: dead on every weight
        assert sctx22.table((X(+1, 1, 0),) * 3) == {}
        assert sctx22.table((X(+1, 1, 0),) * 2)


def counting_mul(monkeypatch, hctx):
    """Record the factors of every ``hctx.mul`` call, by content."""
    calls = []
    real = hctx.mul

    def mul(a, b):
        calls.append((frozenset(a.terms.items()), frozenset(b.terms.items())))
        return real(a, b)

    monkeypatch.setattr(hctx, "mul", mul)
    return calls


class TestMemos:
    @pytest.mark.parametrize("q_one,words", [
        (False, relation_words), (True, q1_relation_words),
    ])
    def test_one_mul_per_distinct_factor_pair(self, monkeypatch, q_one, words):
        sctx = SchurContext(3, Shape((2, 2)), q_one=q_one)
        calls = counting_mul(monkeypatch, sctx.hctx)
        sequences = {
            labels
            for _name, _params, lhs, rhs in words(sctx, 1)
            for _coeff, labels in lhs + rhs
        }
        for labels in sequences:
            sctx.table(labels)
        assert len(calls) == len(set(calls)) == len(sctx._products) > 100
        # every table value is the one object with its terms
        values = [h for table in sctx._seq_cache.values() for _nu, h in table.values()]
        assert len({id(h) for h in values}) == len(set(values)) < len(values)
        # each table entry is still the product of its sequence's generators
        for labels, table in sctx._seq_cache.items():
            for mu, (nu, h) in table.items():
                assert chain(sctx, labels, mu) == (nu, h)

    def test_block_verdict_is_keyed_by_ordered_parts_and_block(self):
        # T_1 - q is killed by x_(2,1) = 1 + q T_1, not by x_(1,2) = 1 + q T_2
        sctx = SchurContext(3, Shape((2, 2)))
        hc, ring = sctx.hctx, sctx.ring
        nu21, nu12 = ((2, 1), (0, 0)), ((1, 2), (0, 0))
        mu = sctx.weights[0]

        def row(nu, D):
            out = {}
            D.accumulate(ring.one.terms, out)
            return {mu: {nu: out}}

        D = hc.T(1) - hc.scalar(ring.q)
        assert sctx.first_difference(row(nu21, D)) is None
        value = m_mu_mul(hc, nu12, D)
        assert sctx.first_difference(row(nu12, D)) == block_detail(mu, nu12, value)
        # the witness carries m_nu D, not the x_nu D that decided it
        assert value != x_mu_mul(hc, (1, 2), D)
        # another block under the parts (2, 1) is decided afresh
        D2 = hc.T(1) + hc.one()
        assert sctx.first_difference(row(nu21, D2)) == block_detail(
            mu, nu21, m_mu_mul(hc, nu21, D2))
        assert set(hc._kills) == {((2, 1), D), ((1, 2), D), ((2, 1), D2)}

    def test_cancelled_block_is_skipped(self, sctx22):
        hc, ring = sctx22.hctx, sctx22.ring
        mu = sctx22.weights[0]
        out = {}
        hc.T(1).accumulate(ring.one.terms, out)
        hc.T(1).accumulate(ring.one.terms, out, -1)
        assert sctx22.first_difference({mu: {mu: out}}) is None

    def test_memos_die_with_their_context(self, monkeypatch):
        labels = (X(-1, 2, 1), I(+1, 2, 1), X(+1, 1, 0))
        sctx = SchurContext(3, Shape((2, 2)))
        sctx.table(labels)
        assert sctx.op_equal(ow(sctx.ring, K(+1, 1)), ow(sctx.ring, K(-1, 1))) is not None
        assert sctx._products and sctx.hctx._kills
        ref = weakref.ref(sctx.hctx)
        del sctx
        gc.collect()
        assert ref() is None
        # a new context shares nothing and multiplies every pair again
        fresh = SchurContext(3, Shape((2, 2)))
        assert not (fresh._factors or fresh._products or fresh.hctx._kills)
        calls = counting_mul(monkeypatch, fresh.hctx)
        fresh.table(labels)
        assert len(calls) == len(fresh._products) > 0


class TestBlocks:
    def test_cross_block_cancellation_is_a_difference(self):
        # r = 1, n = 2, m = (2): m_{(1,1)} = 1 and m_{(2,0)} = 1 + q T_1, so
        # the components 1 + q T_1 at (1,1) and -1 at (2,0) sum to zero in H
        # but differ in both blocks of M^{(1,1)} + M^{(2,0)}
        sctx = SchurContext(2, Shape((2,)))
        hc, ring = sctx.hctx, sctx.ring
        a, b = ((1, 1),), ((2, 0),)
        comps = {a: hc.one() + hc.T(1).scale(ring.q), b: -hc.one()}
        total = sum((m_mu_mul(hc, nu, h) for nu, h in comps.items()), hc.zero())
        assert total.is_zero
        row = {}
        for nu, h in comps.items():
            h.accumulate(ring.one.terms, row.setdefault(nu, {}))
        mu = a
        assert sctx.first_difference({mu: row}) == block_detail(mu, a, comps[a])
        assert sctx.first_difference({mu: {b: row[b]}}) == block_detail(mu, b, -comps[a])

    def test_accumulate_is_scale(self, sctx22):
        hc, ring = sctx22.hctx, sctx22.ring
        h = hc.L(1, 2) * hc.T(1) + hc.scalar(ring.Q(1))
        coeff = ring.q_pow(3) - ring.Q(0) * ring.from_fraction(2)
        out = {}
        h.accumulate(coeff.terms, out)
        h.accumulate(coeff.terms, out, -1)
        assert hc.from_terms(out).is_zero
        out = {}
        h.accumulate(coeff.terms, out)
        h.accumulate(ring.one.terms, out)
        assert hc.from_terms(out) == h.scale(coeff) + h


RINGS = (LaurentRing(2), LaurentRing(2, q_one=True))


@st.composite
def ring_elements(draw, ring):
    """The unit, or zero to three monomials in q, Q_0, Q_1 with small
    rational coefficients."""
    if draw(st.integers(0, 3)) == 0:
        return ring.one
    out = ring.zero
    for _ in range(draw(st.integers(0, 3))):
        exps = [draw(st.integers(-3, 3)) for _ in range(ring.nvars)]
        num = draw(st.integers(-3, 3))
        out = out + monomial(ring, exps, Fraction(num, draw(st.integers(1, 2))))
    return out


@st.composite
def ml_words(draw, ring):
    """An operator word as (MultiLaurent, labels) pairs, unit and zero
    coefficients too."""
    word = []
    for _ in range(draw(st.integers(0, 3))):
        positions = draw(st.lists(st.integers(1, 3), max_size=2))
        word.append((draw(ring_elements(ring)), tuple(K(+1, p) for p in positions)))
    return word


def flat(word):
    return tuple((c.terms, labels) for c, labels in word)


class TestWordCoefficients:
    """Operator words carry the flat terms of their coefficients; their
    arithmetic is that of ``MultiLaurent``."""

    @pytest.mark.parametrize("ring", RINGS)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_arithmetic_matches_multilaurent(self, ring, data):
        a, b = data.draw(ml_words(ring)), data.draw(ml_words(ring))
        c = data.draw(ring_elements(ring))
        product = ow_mul(ring, flat(a), flat(b))
        # the terms whose coefficient comes out zero are dropped
        assert product == tuple(
            (p.terms, la + lb) for ca, la in a for cb, lb in b if not (p := ca * cb).is_zero
        )
        assert ow_scale(flat(a), c) == tuple(
            (p.terms, la) for ca, la in a if not (p := ca * c).is_zero
        )
        assert ow_neg(flat(a)) == tuple(((-ca).terms, la) for ca, la in a)
        for coeff, _labels in product + ow_scale(flat(a), c):
            assert coeff and all(v != 0 and (type(v) is int or v.denominator != 1)
                                 for v in coeff.values())

    def test_unit_factor_gives_the_other_dict(self):
        ring = RINGS[0]
        c = ring.q_pow(2) + ring.Q(0)
        ((scaled, _),) = ow_scale(ow(ring, K(+1, 1)), c)
        assert scaled is c.terms
        ((product, _),) = ow_mul(ring, ow(ring, K(-1, 1)), ((c.terms, ()),))
        assert product is c.terms
        ((product, _),) = ow_mul(ring, ((c.terms, ()),), ow(ring, K(-1, 1)))
        assert product is c.terms
        ((scaled, _),) = ow_scale(((c.terms, ()),), ring.one)
        assert scaled is c.terms

    def test_zero_coefficients_are_dropped(self):
        ring = RINGS[0]
        word = ow(ring, K(+1, 1)) + ow_scale(ow(ring, K(+1, 2)), ring.from_fraction(0))
        assert word == ow(ring, K(+1, 1))
        assert ow_mul(ring, word, ow_scale(ow(ring, K(+1, 3)), ring.zero)) == ()
        assert ow_scale(word, ring.zero) == ()

    def test_unit_word(self):
        ring = RINGS[0]
        assert ow(ring, K(+1, 1)) == ((ring.one.terms, (K(+1, 1),)),)

    def test_product_out_of_range_raises(self):
        ring = RINGS[0]
        high = ow_scale(ow(ring, K(+1, 1)), ring.q_pow(8000))
        with pytest.raises(EngineError, match="packed key range"):
            ow_mul(ring, high, high)
        with pytest.raises(EngineError, match="packed key range"):
            ow_scale(high, ring.Q(0) * ring.q_pow(200))
        low = ow_scale(ow(ring), ring.Q(1, -8000))
        with pytest.raises(EngineError, match="packed key range"):
            ow_commutator(ring, low, low)


def reference_rhs(sctx, name, params):
    """The rhs of an R3, R4, CI-CX or q1-L2 relation, built with ``+`` and
    ``ow_scale`` on ring elements, or None for another family."""
    ring, w = sctx.ring, partial(ow, sctx.ring)
    px, pj, t = params.get("x"), params.get("jl"), params.get("t")
    if name == "q1-L2":
        a, sign, s = sctx.cartan(px, pj), params["sign"], params["s"]
        return ow_scale(w(X(sign, px, s + t)), ring.from_fraction(sign * a))
    if name == "R3-KXK":
        xsign, a = params["xsign"], sctx.cartan(px, pj)
        return ow_scale(w(X(xsign, px, t)), ring.q_pow(xsign * a))
    if not name.startswith(("R4-", "CI-CX-")):
        return None
    xsign, a, sign = (1 if "plus" in name else -1), sctx.cartan(px, pj), params["sign"]
    if name.startswith("R4-"):
        return ow_scale(w(X(xsign, px, t)), ring.from_fraction(xsign * a))
    s, e = params["s"], xsign * sign * a
    f = e if name.endswith("form1") else -e
    word = ow_scale(w(X(xsign, px, t + s)), ring.q_pow(f * (s - 1)).scale(xsign * a))
    for p in range(1, s):
        pair = (X(xsign, px, t + p), I(sign, pj, s - p))
        pair = pair if name.endswith("form1") else pair[::-1]
        coeff = (ring.qq_comm() * ring.q_pow(f * (p - 1))).scale(e)
        word += ow_scale(w(*pair), coeff)
    return word


class TestLiteralWords:
    """The two-label words and the coefficients the relation families write
    as literals equal their definitions through ``+``, ``ow_mul``,
    ``ow_neg`` and ``ow_scale``."""

    @pytest.mark.parametrize("m", [(2, 2), (1, 2, 1)])
    @pytest.mark.parametrize("q_one,words", [
        (False, relation_words), (True, q1_relation_words),
    ])
    def test_literals_match_their_definitions(self, monkeypatch, m, q_one, words):
        sctx = SchurContext(2, Shape(m), q_one=q_one)
        ring = sctx.ring
        twists, qcomms = set(), set()
        real_twist, real_qcomm = schur_suite.ow_twist, schur_suite.ow_qcomm

        def twist(ring_, a, b, e):
            twists.add((a, b, e))
            return real_twist(ring_, a, b, e)

        def qcomm(ring_, a, b, e):
            qcomms.add((a, b, e))
            return real_qcomm(ring_, a, b, e)

        monkeypatch.setattr(schur_suite, "ow_twist", twist)
        monkeypatch.setattr(schur_suite, "ow_qcomm", qcomm)
        compared = 0
        for name, params, lhs, rhs in words(sctx, 2):
            assert all(c for c, _labels in lhs + rhs)
            want = reference_rhs(sctx, name, params)
            if want is not None:
                assert rhs == want, (name, params)
                compared += 1
        assert compared > (100 if q_one else 1000)
        assert len(twists) > 100 and (q_one or len(qcomms) > 100)
        w = partial(ow, ring)
        for a, b, e in twists:
            want = w(a, b) + ow_neg(ow_scale(w(b, a), ring.q_pow(e)))
            assert real_twist(ring, a, b, e) == want
            if e == 0:
                assert want == ow_commutator(ring, w(a), w(b)) == (
                    ow_mul(ring, w(a), w(b)) + ow_neg(ow_mul(ring, w(b), w(a))))
        for a, b, e in qcomms:
            want = (ow_scale(w(a, b), ring.q_pow(e))
                    + ow_neg(ow_scale(w(b, a), ring.q_pow(-e))))
            assert real_qcomm(ring, a, b, e) == want


# The CI-CX forms 1 and 2 coincide for e = 0 or s = 1; run_relations
# decides each such pair once (288 of the 864 CI-CX checks on this argv)
# and still records both forms with their own params.  The run has one
# usable CPU, so that both parts of the suite decide in this process.
def test_repeated_relations_are_decided_once(monkeypatch, capsys):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    calls = []
    real = SchurContext.op_equal
    monkeypatch.setattr(SchurContext, "op_equal",
                        lambda self, a, b: calls.append(1) or real(self, a, b))
    argv = ["verify", "--suite", "schur", "-n", "2", "-r", "2", "-m", "2,2", "--deg", "2"]
    assert main(argv) == 0
    checks = json.loads(capsys.readouterr().out)["suites"]["schur"]["checks"]
    assert len(calls) == 2075
    forms = {}
    for c in checks:
        if c["check"].startswith("CI-CX-"):
            name, form = c["check"].rsplit("-", 1)
            forms.setdefault((name, json.dumps(c["params"], sort_keys=True)), []).append(form)
    assert len(forms) == 432
    assert all(f == ["form1", "form2"] for f in forms.values())


class TestHwEigenvalues:
    def test_zero_row(self):
        ring = LaurentRing(2)
        a, b = hw_eigenvalue_pair(0, 1, 1, 2, +1, ring)
        assert a.is_zero and b.is_zero

    def test_geometric_sum_example(self):
        # t=1, lam=2, j=1, l=1: the residue sum Q_0 (1 + q^2) = Q_0 q [2]
        from cycloschur.coeff import qint

        ring = LaurentRing(2)
        a, b = hw_eigenvalue_pair(2, 1, 1, 1, +1, ring)
        expected = ring.Q(0) * ring.q * qint(2, ring)
        assert a == expected and b == expected

    def test_suite_generic_and_q1(self):
        for ring in (LaurentRing(2), LaurentRing(2, q_one=True)):
            checks = verify_hw_eigenvalues(ring, lam_max=3, j_max=2, t_max=3)
            assert checks and all(c["ok"] for c in checks)

    def test_q1_closed_form_is_Q_times_row(self):
        ring = LaurentRing(2, q_one=True)
        a, b = hw_eigenvalue_pair(3, 2, 2, 2, +1, ring)
        assert a == b == ring.Q(1, 2).scale(3)


# Words drop their zero-coefficient terms, and with them every label
# sequence that only such terms used.  The closed form of each X_t must
# still be checked against its inductive definition: the labels checked
# are those checked while words kept their zero terms.  Every row of a
# block difference has one target weight, so dropped terms cannot reorder
# the blocks that first_difference walks.
@pytest.mark.parametrize("argv,tmax", [
    (["--suite", "schur", "-n", "2", "-r", "2", "-m", "2,2", "--deg", "2"], 5),
    (["--suite", "schur", "-n", "3", "-r", "2", "-m", "2,2", "--deg", "2"], 5),
    (["--suite", "q1", "-n", "3", "-r", "2", "-m", "2,2"], 4),
])
def test_every_x_induction_is_still_checked(monkeypatch, capsys, argv, tmax):
    checked = set()
    real = SchurContext._check_x_induction

    def counted(self, label):
        checked.add(label)
        return real(self, label)

    real_blocks = SchurContext.block_difference
    targets = set()

    def counted_blocks(self, a, b):
        blocks = real_blocks(self, a, b)
        targets.update(len(row) for row in blocks.values())
        return blocks

    monkeypatch.setattr(SchurContext, "_check_x_induction", counted)
    monkeypatch.setattr(SchurContext, "block_difference", counted_blocks)
    assert main(["verify", *argv]) == 0
    capsys.readouterr()
    assert targets == {1}
    assert checked == {
        X(sign, pos, t) for sign in (1, -1) for pos in (1, 2, 3) for t in range(1, tmax + 1)
    }


@pytest.mark.slow
class TestSuites:
    def test_relations_small(self):
        sctx = SchurContext(2, Shape((2, 2)))
        checks = verify_relations(sctx, deg=1)
        bad = [c for c in checks if not c["ok"]]
        assert not bad, bad[:3]

    def test_q1_small(self):
        sctx = SchurContext(2, Shape((2, 2)), q_one=True)
        checks = verify_q1(sctx, deg=1)
        bad = [c for c in checks if not c["ok"]]
        assert not bad, bad[:3]

    def test_divided_powers_small(self):
        sctx = SchurContext(2, Shape((2, 2)))
        checks = verify_divided_powers(sctx, dmax=2)
        bad = [c for c in checks if not c["ok"]]
        assert not bad, bad[:3]
