"""Weight-by-weight models of the cyclotomic q-Schur algebra generators.

A generator never materializes as a matrix: applied to the cyclic vector
m_mu it returns a target weight nu and a right factor h with value
m_nu * h.  The generators are right H-linear (the Schur algebra is
sum Hom_H(M^mu, M^nu) with M^nu = m_nu H), so a label sequence maps m_mu to
m_nu * h with h the product of its generators' right factors, and a word
maps m_mu to sum_nu m_nu * H_nu.  ``seq_factor`` caches the pair (nu, h) of
each label sequence at each weight, sharing prefixes; ``right_factors``
collects the H_nu of a word.  Operator equality is decided pointwise over
all weights of Lambda_{n,r}(m) through the exact Hecke engine: two words
agree at mu when sum_nu m_nu * (A_nu - B_nu) is zero, so m_nu is multiplied
in once per target weight whose right factors differ.  Differing right
factors alone do not decide: m_nu can kill the difference (it does in
R6-diagonal at a junction, through its (L_N - Q_k) factors).

Generator labels are tuples:
    ("K", sign, pos)        sign in {+1, -1}, pos in 1..m
    ("I", sign, pos, t)     t >= 0
    ("X", sign, pos, t)     pos in 1..m-1 (the gamma linearization of
                            Gamma'(m); junctions between components are the
                            positions m_1 + ... + m_k)
An operator word is a tuple of (coefficient, label sequence) pairs.
"""

from __future__ import annotations

from . import combinatorics as comb
from .hecke import EngineError, HeckeContext, m_mu_mul, phi_jm, t_bracket


def K(sign, pos):
    return ("K", sign, pos)


def I(sign, pos, t):
    return ("I", sign, pos, t)


def X(sign, pos, t):
    return ("X", sign, pos, t)


class SchurContext:
    """Fixes (n, r, m) and carries the Hecke engine plus caches."""

    def __init__(self, n, shape, q_one=False):
        self.n = n
        self.shape = shape
        self.hctx = HeckeContext(n, shape.r, q_one=q_one)
        self.ring = self.hctx.ring
        self.weights = comb.enumerate_compositions(n, shape)
        self._gen_cache = {}
        self._seq_cache = {}
        self._x_verified = set()

    # -- weights --------------------------------------------------------

    def entry(self, mu, pos):
        i, k = self.shape.node(pos)
        return mu[k - 1][i - 1]

    def add_alpha(self, mu, pos, delta):
        """mu + delta * alpha_pos, or None if an entry would go negative."""
        flat = list(comb.flatten(mu))
        flat[pos - 1] += delta
        flat[pos] -= delta
        if flat[pos - 1] < 0 or flat[pos] < 0:
            return None
        return comb.unflatten(flat, self.shape)

    # -- single generators ------------------------------------------------

    def apply_gen(self, label, mu):
        """Value on the cyclic generator: returns (nu, h) with image m_nu * h,
        or (None, 0) when the target weight leaves Lambda_{n,r}(m)."""
        key = (label, mu)
        cached = self._gen_cache.get(key)
        if cached is not None:
            return cached
        kind = label[0]
        ring = self.ring
        shape = self.shape
        if kind == "K":
            _, sign, pos = label
            out = (mu, self.hctx.scalar(ring.q_pow(sign * self.entry(mu, pos))))
        elif kind == "I":
            _, sign, pos, t = label
            entry = self.entry(mu, pos)
            if entry == 0:
                out = (mu, self.hctx.zero())
            else:
                i, k = shape.node(pos)
                N = comb.jm_position(mu, (i, k), shape)
                args = list(range(N, N - entry, -1))
                h = phi_jm(self.hctx, t, sign, args).scale(ring.q_pow(sign * (t - 1)))
                out = (mu, h)
        elif kind == "X":
            _, sign, pos, t = label
            i, k = shape.node(pos)
            N = comb.jm_position(mu, (i, k), shape)
            # X^+ moves a node from position pos + 1 to pos (side 1), X^- one
            # from pos to pos + 1 (side 0); `moved` counts the nodes at the
            # source and L_{N + side} is the source's JM element at the step
            side = (1 + sign) // 2
            moved = comb.flatten(mu)[pos - 1 + side]
            nu = self.add_alpha(mu, pos, sign)
            if nu is None:
                out = (None, self.hctx.zero())
            else:
                h = t_bracket(self.hctx, N, moved, sign)
                jk = shape.junction(pos)
                # left multiplications by L-polynomials shift exponent keys
                if sign < 0 and jk is not None:
                    h = h.shift_L(N, 1) - h.scale(ring.Q(jk))
                if t:
                    h = h.shift_L(N + side, t)
                out = (nu, h.scale(ring.q_pow(1 - moved)))
            if t > 0:
                self._check_x_induction(label, mu, out)
        else:
            raise ValueError(f"unknown label {label!r}")
        self._gen_cache[key] = out
        return out

    def _check_x_induction(self, label, mu, out):
        """The inductive definition of X_t as a commutator with I_1 must agree
        with the closed form; a mismatch means an engine bug."""
        key = (label, mu)
        if key in self._x_verified:
            return
        self._x_verified.add(key)
        _, sign, pos, t = label
        ring = self.ring
        # X^{sign}_t = sign [I^{sign}_1, X^{sign}_{t-1}]
        word = ow_commutator(ow(ring, I(sign, pos, 1)), ow(ring, X(sign, pos, t - 1)))
        word = ow_scale(word, ring.from_int(sign))
        nu, h = out
        closed = {} if nu is None else {nu: h}
        if not self.factor_difference(self.right_factors(word, mu), closed).is_zero:
            raise EngineError(
                f"closed form and inductive definition disagree for {label} at {mu}"
            )

    # -- words ------------------------------------------------------------

    def expand(self, nu, h):
        if nu is None or h.is_zero:
            return self.hctx.zero()
        return m_mu_mul(self.hctx, nu, self.shape, h)

    def seq_factor(self, labels, mu):
        """The sequence applied to m_mu (rightmost label first) as (nu, h)
        with value m_nu * h, or (None, None) when it vanishes.  Cached per
        (labels, mu); labels[:-1] is looked up at the intermediate weight, so
        sequences that share a prefix share its factor."""
        key = (labels, mu)
        cached = self._seq_cache.get(key)
        if cached is not None:
            return cached
        if not labels:
            out = (mu, self.hctx.one())
        else:
            out = (None, None)
            nu1, h1 = self.apply_gen(labels[-1], mu)
            if nu1 is not None and not h1.is_zero:
                nu, rest = self.seq_factor(labels[:-1], nu1)
                if nu is not None:
                    h = rest * h1
                    if not h.is_zero:
                        out = (nu, h)
        self._seq_cache[key] = out
        return out

    def right_factors(self, word, mu):
        """The word applied to m_mu as {nu: H_nu}, the value being
        sum_nu m_nu * H_nu; an H_nu may be zero after cancellation."""
        out = {}
        for coeff, labels in word:
            if coeff.is_zero:
                continue
            nu, h = self.seq_factor(labels, mu)
            if nu is None:
                continue
            h = h.scale(coeff)
            out[nu] = out[nu] + h if nu in out else h
        return out

    def apply_seq(self, labels, mu):
        """The sequence applied to m_mu, expanded in the Hecke algebra."""
        return self.expand(*self.seq_factor(labels, mu))

    def word_difference(self, a, b, mu):
        """Word a minus word b applied to m_mu, expanded in the Hecke algebra
        as sum_nu m_nu * (A_nu - B_nu) over the weights nu whose right
        factors differ; word b = () gives the value of word a."""
        return self.factor_difference(
            self.right_factors(a, mu), self.right_factors(b, mu)
        )

    def factor_difference(self, fa, fb):
        """sum_nu m_nu * (fa[nu] - fb[nu]) for right factors {nu: H_nu}; m_nu
        is multiplied in only where the factors differ."""
        zero = self.hctx.zero()
        total = zero
        for nu in fa.keys() | fb.keys():
            diff = fa.get(nu, zero) - fb.get(nu, zero)
            total = total + self.expand(nu, diff)
        return total

    def op_equal(self, a, b):
        """Pointwise operator equality over every weight; returns
        (ok, witness weight or None)."""
        for mu in self.weights:
            if not self.word_difference(a, b, mu).is_zero:
                return False, mu
        return True, None

    def cartan(self, pos_x, pos_jl):
        if pos_jl == pos_x:
            return 1
        if pos_jl == pos_x + 1:
            return -1
        return 0


# ---------------------------------------------------------------------------
# operator words


def ow(ring, *labels):
    return ((ring.one, tuple(labels)),)


def ow_zero():
    return ()


def ow_scale(word, coeff):
    return tuple((c * coeff, labels) for c, labels in word)


def ow_neg(word):
    return tuple((-c, labels) for c, labels in word)


def ow_add(*words):
    out = []
    for w in words:
        out.extend(w)
    return tuple(out)


def ow_mul(a, b):
    return tuple(
        (ca * cb, la + lb) for ca, la in a for cb, lb in b
    )


def ow_commutator(a, b):
    return ow_add(ow_mul(a, b), ow_neg(ow_mul(b, a)))
