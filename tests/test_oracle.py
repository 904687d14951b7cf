"""An independent model of the Hecke engine: the affine Hecke algebra acting
on Laurent polynomials in x_1, ..., x_n, L_j by multiplication with x_j and
T_i by the Demazure-Lusztig operator

    T_i f = q s_i f + (q - q^-1) x_{i+1} (f - s_i f) / (x_{i+1} - x_i)

(Lusztig, "Affine Hecke algebras and their graded version", JAMS 2, 1989).
The action is faithful, and at q = 1 it is the action of the extended affine
symmetric group.  Every element commutes with the symmetric Laurent
polynomials, over which the n! Artin monomials x^c, 0 <= c_j < j, are a
basis, so an element is zero exactly when it kills those monomials.

The engine's coefficients are evaluated at rational points with
``coeff.specialize``.  Nothing here uses the engine's normal form, its
multiplication or its packed keys: an element is read through
``HeckeElem.grouped`` as terms c L^a T_w, and T_w is split into generators
by the model itself.  A value that vanishes could vanish at one point by
accident, so a "not zero" verdict is confirmed at two points.
"""

import itertools
import random
from fractions import Fraction
from functools import lru_cache
from operator import add

import pytest

from cycloschur import combinatorics as comb
from cycloschur.coeff import specialize
from cycloschur.combinatorics import Shape
from cycloschur.hecke import (
    HeckeContext,
    _x_mu_collapse_kills,
    iota,
    m_mu_kills,
    m_mu_mul,
    x_mu_mul,
    young_parts,
)
from cycloschur.suites.hecke import young_generators


def _acc(out, exps, c):
    """Add c x^exps into the polynomial ``out``, keeping it zero-free."""
    v = out.get(exps, 0) + c
    if v:
        out[exps] = v
    else:
        out.pop(exps, None)


@lru_cache(maxsize=None)
def _t_monomial(i, exps, q):
    """T_i x^exps, as (exponents, coefficient) pairs.  With u = x_i, v =
    x_{i+1}, a and b their exponents, lo = min(a, b) and d = |a - b|:
    (u^a v^b - u^b v^a) / (v - u) = sign sum_{k<d} u^{lo+d-1-k} v^{lo+k},
    sign = +1 for b > a and -1 for a > b."""
    a, b = exps[i - 1], exps[i]
    head, tail = exps[:i - 1], exps[i + 1:]
    out = {}
    _acc(out, head + (b, a) + tail, q)
    qq = q - 1 / q
    if a != b and qq:
        lo, d = min(a, b), abs(a - b)
        c = qq if b > a else -qq
        for k in range(d):
            # times x_{i+1}
            _acc(out, head + (lo + d - 1 - k, lo + k + 1) + tail, c)
    return tuple(out.items())


def apply_t(i, poly, q):
    out = {}
    for exps, c in poly.items():
        for e, v in _t_monomial(i, exps, q):
            _acc(out, e, c * v)
    return out


def shifted(poly, a, scale=1):
    """x^a * scale * poly."""
    return {tuple(e + s for e, s in zip(exps, a)): scale * c for exps, c in poly.items()}


def t_word(w):
    """Generators i_1, ..., i_p with T_w = T_{i_1} ... T_{i_p}.  T_i T_w
    swaps the values i - 1 and i of w, and shortens w when they are
    inverted, so each step peels off such a left descent."""
    w = list(w)
    word = []
    while True:
        for i in range(1, len(w)):
            p1, p2 = w.index(i - 1), w.index(i)
            if p1 > p2:
                break
        else:
            return tuple(word)
        word.append(i)
        w[p1], w[p2] = i, i - 1


def terms_at(elem, point):
    """The element at the point as operator terms (a, word, value), each
    the operator f -> value x^a T_word f."""
    out = []
    for (a, w), coeff in elem.grouped().items():
        value = specialize(coeff, point)
        if value:
            out.append((a, t_word(w), value))
    return out


@lru_cache(maxsize=None)
def _t_word_monomial(word, exps, q):
    """T_{i_1} ... T_{i_p} x^exps for word = (i_1, ..., i_p), as pairs."""
    if not word:
        return ((exps, 1),)
    out = {}
    for e, c in _t_word_monomial(word[1:], exps, q):
        for e2, v in _t_monomial(word[0], e, q):
            _acc(out, e2, c * v)
    return tuple(out.items())


@pytest.fixture(autouse=True, scope="module")
def _clear_memos():
    # the memos of the model hold only while this module runs
    yield
    _t_monomial.cache_clear()
    _t_word_monomial.cache_clear()


def act(terms, poly, q):
    out = {}
    for a, word, value in terms:
        for exps, c in poly.items():
            c *= value
            for e, v in _t_word_monomial(word, exps, q):
                _acc(out, tuple(map(add, e, a)) if any(a) else e, c * v)
    return out


def artin_monomials(n):
    return [tuple(c) for c in itertools.product(*(range(j) for j in range(1, n + 1)))]


def images(ops, n, q):
    """The composite of ``ops`` (operator term lists, the rightmost applied
    first) on each Artin monomial."""
    out = []
    for c in artin_monomials(n):
        poly = {c: Fraction(1)}
        for terms in reversed(ops):
            poly = act(terms, poly, q)
        out.append(poly)
    return out


def is_zero(ops, n, q):
    return not any(images(ops, n, q))


def points(ctx, seed):
    """Two seeded rational points for the ring of ``ctx``; q = 1 at q_one."""
    rng = random.Random(seed)
    out = []
    for _ in range(2):
        point = {"q": Fraction(1) if ctx.ring.q_one else Fraction(rng.choice((5, 7, 11)), 13)}
        for k in range(ctx.r):
            point[f"Q{k}"] = Fraction(rng.choice((-19, -7, 11, 23, 31)), rng.choice((17, 29, 37)))
        out.append(point)
    return out


def random_element(ctx, rng, terms=3):
    """A sum of one to ``terms`` terms c L^a T_w, with a random permutation
    w, L exponents 0..2 and c a sum of one or two Laurent monomials."""
    ring = ctx.ring
    out = ctx.zero()
    for _ in range(rng.randint(1, terms)):
        w = list(range(ctx.n))
        rng.shuffle(w)
        a = [rng.randint(0, 2) for _ in range(ctx.n)]
        coeff = ring.zero
        for _ in range(rng.randint(1, 2)):
            exps = [rng.randint(-1, 1) for _ in range(ring.nvars)]
            coeff = coeff + ring.monomial(exps, Fraction(rng.choice((-3, -1, 1, 2)),
                                                         rng.choice((1, 2))))
        out = out + ctx.term(a, w, coeff)
    return out


def young_sum(parts, n, q):
    """x_mu = sum over u in S_mu of q^{l(u)} T_u, enumerated block by block."""
    blocks = []
    off = 0
    for part in parts:
        blocks.append(range(off, off + part))
        off += part
    out = []
    zero = (0,) * n
    for perms in itertools.product(*(itertools.permutations(b) for b in blocks)):
        u = tuple(v for perm in perms for v in perm)
        length = sum(a > b for j, a in enumerate(u) for b in u[j + 1:])
        out.append((zero, t_word(u), q ** length))
    return out


def l_product(mu, shape, n, point):
    """prod_{1 <= k < r} prod_{i <= a_k} (x_i - Q_k), a_k the size of the
    first k components of mu, as multiplication operator terms."""
    poly = {(0,) * n: Fraction(1)}
    a_k = 0
    for k in range(1, shape.r):
        a_k += sum(mu[k - 1])
        for i in range(a_k):
            unit = tuple(int(j == i) for j in range(n))
            times_x = shifted(poly, unit)
            for exps, c in poly.items():
                _acc(times_x, exps, -point[f"Q{k}"] * c)
            poly = times_x
    return [(exps, (), c) for exps, c in poly.items()]


CONTEXTS = [(3, 2, False), (3, 2, True), (4, 2, False), (4, 1, True)]


class TestModel:
    """The operators satisfy the defining relations of the affine model."""

    @pytest.mark.parametrize("q", [Fraction(3, 7), Fraction(1)])
    def test_relations(self, q):
        n = 3
        rng = random.Random(0)
        for _ in range(5):
            f = {}
            for _ in range(4):
                _acc(f, tuple(rng.randint(-2, 3) for _ in range(n)), Fraction(rng.randint(1, 5)))
            for i in (1, 2):
                # (T_i - q)(T_i + q^-1) f = 0
                g = apply_t(i, f, q)
                lhs = apply_t(i, g, q)
                for exps, c in g.items():
                    _acc(lhs, exps, (1 / q - q) * c)
                for exps, c in f.items():
                    _acc(lhs, exps, -c)
                assert lhs == {}
                # T_i x_i T_i = x_{i+1}
                unit_i = tuple(int(j == i - 1) for j in range(n))
                unit_next = tuple(int(j == i) for j in range(n))
                assert apply_t(i, shifted(apply_t(i, f, q), unit_i), q) == shifted(f, unit_next)
                # T_i commutes with the other x_j
                for j in range(n):
                    if j not in (i - 1, i):
                        unit = tuple(int(k == j) for k in range(n))
                        assert apply_t(i, shifted(f, unit), q) == shifted(apply_t(i, f, q), unit)
            # the braid relation
            assert apply_t(1, apply_t(2, apply_t(1, f, q), q), q) == apply_t(
                2, apply_t(1, apply_t(2, f, q), q), q)

    def test_t_word_reads_the_engine_generators(self):
        ctx = HeckeContext(4, 1)
        for i in range(1, 4):
            ((_, w),) = ctx.T(i).grouped()
            assert t_word(w) == (i,)
        assert t_word(tuple(range(4))) == ()

    def test_a_nonzero_element_is_seen(self):
        # 1 and T_1 - q differ from zero at every point, and x_(1,2) does not
        # kill T_1 - q while x_(2,1) does
        ctx = HeckeContext(3, 2)
        for point in points(ctx, 0):
            q = point["q"]
            diff = terms_at(ctx.T(1) - ctx.scalar(ctx.ring.q), point)
            assert not is_zero([terms_at(ctx.one(), point)], 3, q)
            assert not is_zero([diff], 3, q)
            assert is_zero([young_sum((2, 1), 3, q), diff], 3, q)
            assert not is_zero([young_sum((1, 2), 3, q), diff], 3, q)


def _agree(ctx, seed, engine, ops):
    """engine (an element) and the composite ``ops(point)`` act alike at
    both points."""
    for point in points(ctx, seed):
        assert images([terms_at(engine, point)], ctx.n, point["q"]) == images(
            ops(point), ctx.n, point["q"])


@pytest.mark.parametrize("n,r,q_one", CONTEXTS)
class TestProducts:
    def test_lmul_gen(self, n, r, q_one):
        ctx = HeckeContext(n, r, q_one=q_one)
        rng = random.Random(1)
        for _ in range(8):
            x = random_element(ctx, rng)
            i = rng.randint(1, n - 1)
            _agree(ctx, 1, ctx.lmul_gen(i, x),
                   lambda p: [[((0,) * n, (i,), Fraction(1))], terms_at(x, p)])

    def test_mul(self, n, r, q_one):
        ctx = HeckeContext(n, r, q_one=q_one)
        rng = random.Random(2)
        for _ in range(8 if n == 3 else 3):
            a, b = random_element(ctx, rng), random_element(ctx, rng)
            _agree(ctx, 2, a * b, lambda p: [terms_at(a, p), terms_at(b, p)])

    def test_iota(self, n, r, q_one):
        # iota(c L^a T_w) = c T_{w^-1} L^a, and T_{w^-1} runs the word of w
        # backwards
        ctx = HeckeContext(n, r, q_one=q_one)
        rng = random.Random(3)
        for _ in range(6):
            D = random_element(ctx, rng)
            for point in points(ctx, 3):
                q = point["q"]
                expected = []
                for c in artin_monomials(n):
                    out = {}
                    for a, word, value in terms_at(D, point):
                        image = shifted({c: Fraction(1)}, a, value)
                        for i in word:
                            image = apply_t(i, image, q)
                        for exps, v in image.items():
                            _acc(out, exps, v)
                    expected.append(out)
                assert images([terms_at(iota(ctx, D), point)], n, q) == expected


def weights(n, shape, blocks=None):
    """One weight mu per distinct Young blocks and component sizes, which
    fix x_mu and the L product; only the ``blocks`` when given."""
    out = {}
    for mu in comb.enumerate_compositions(n, shape):
        parts = young_parts(mu)
        if blocks is None or parts in blocks:
            out.setdefault((parts, tuple(map(sum, mu))), mu)
    return list(out.values())


def operands(ctx, mu, rng, rounds):
    """Random operands D, each with (T_i - q) D for an s_i in S_mu, which
    x_mu kills since x_mu T_i = q x_mu."""
    q = ctx.scalar(ctx.ring.q)
    gens = young_generators(mu)
    out = []
    for _ in range(rounds):
        D = random_element(ctx, rng, terms=2)
        out.append(D)
        if gens:
            out.append((ctx.T(rng.choice(gens)) - q) * D)
    return out


# (n, shape, random operands per weight, the Young blocks used or None for
# all): the collapse decides the blocks (3), (1, 3) and (3, 1), the sweep the
# rest.  The block (4) is left out: its Young sum of 24 words would about
# double the time this module takes.
MU_CASES = [
    (3, Shape((3,)), 3, None), (3, Shape((1, 2)), 2, None), (3, Shape((2, 2)), 1, None),
    (4, Shape((4,)), 1, {(1, 3), (2, 2), (3, 1)}),
]


@pytest.mark.parametrize("q_one", [False, True])
@pytest.mark.parametrize("n,shape,rounds,blocks", MU_CASES)
class TestYoungSums:
    def test_x_mu_mul_and_m_mu_mul(self, n, shape, rounds, blocks, q_one):
        ctx = HeckeContext(n, shape.r, q_one=q_one)
        rng = random.Random(4)
        for mu in weights(n, shape, blocks):
            parts = young_parts(mu)
            D = random_element(ctx, rng, terms=2)
            _agree(ctx, 4, x_mu_mul(ctx, parts, D),
                   lambda p: [young_sum(parts, n, p["q"]), terms_at(D, p)])
            _agree(ctx, 4, m_mu_mul(ctx, mu, D),
                   lambda p: [young_sum(parts, n, p["q"]), l_product(mu, shape, n, p),
                              terms_at(D, p)])

    def test_kill_verdicts(self, n, shape, rounds, blocks, q_one):
        # the sweep, the collapse and m_mu_kills against the model: killed
        # means zero at both points, not killed nonzero at one of them at least
        ctx = HeckeContext(n, shape.r, q_one=q_one)
        rng = random.Random(5)
        seen = set()
        for mu in weights(n, shape, blocks):
            parts = young_parts(mu)
            for D in operands(ctx, mu, rng, rounds):
                killed = all(
                    is_zero([young_sum(parts, n, p["q"]), l_product(mu, shape, n, p),
                             terms_at(D, p)], n, p["q"])
                    for p in points(ctx, 5)
                )
                assert x_mu_mul(ctx, parts, D).is_zero == killed
                assert _x_mu_collapse_kills(ctx, parts, D) == killed
                assert m_mu_kills(ctx, mu, D) == killed
                seen.add(killed)
        assert seen == {True, False}
