"""Weight-by-weight models of the cyclotomic q-Schur algebra generators.

The algebra is S = End_H(M), M the direct sum of the M^mu = m_mu H over
the weights (Dipper, James and Mathas, Math. Z. 229, 1998), so an operator
is the family of its blocks Hom_H(M^mu, M^nu).  A generator never
materializes as a matrix: applied to the cyclic vector m_mu it returns a
target weight nu and a right factor h with value m_nu * h.  The generators
are right H-linear, so a label sequence maps m_mu to m_nu * h with h the
product of its generators' right factors.  ``table`` gives a sequence's
{mu: (nu, h)} over the weights of Lambda_{n,r}(m) at which h is nonzero, a
dead weight never stored; it is built once, from the table of labels[:-1]
and the table of the last label.  The right factors are hash-consed per
context: a product h_rest * h_1 is multiplied once per pair of factors (by
content) and every right factor with the same terms is one object, so a
repeated pair is a dict hit decided by identity.  Building the table of
X_t, t > 0, checks its closed form against the inductive definition.

``op_equal`` decides an identity term-major: one table lookup per word term
adds c * h for word a and -c * h for word b into one flat term dict per
block (mu, nu), through ``HeckeElem.accumulate``.  Then, in weight order,
each nonzero block D = A_nu - B_nu is tested for m_nu * D == 0, and the
first block that fails is the witness.  The decision is per block of the
direct sum of the M^nu: the M^nu are not independent inside H, so a sum
over nu in H can cancel a difference.  Differing right factors alone do not
decide either: m_nu can kill the difference (it does in R6-diagonal at a
junction).  Each block is decided and, on failure, reported by
``hecke.m_mu_witness``, so only the first failing block is multiplied by the
whole m_nu.

Generator labels are tuples:
    ("K", sign, pos)        sign in {+1, -1}, pos in 1..m
    ("I", sign, pos, t)     t >= 0
    ("X", sign, pos, t)     pos in 1..m-1 (the gamma linearization of
                            Gamma'(m); junctions between components are the
                            positions m_1 + ... + m_k)
An operator word is a tuple of (coefficient, label sequence) pairs.  A
coefficient is the flat, zero-free packed-key term dict of a ring element,
``MultiLaurent.terms`` as it is, and never a ``MultiLaurent``: ``ow_mul``
and ``ow_scale`` multiply coefficients with ``coeff._mul_terms``, the
product loop of ``MultiLaurent.__mul__``, which raises ``EngineError`` for
an exponent out of range and hands back the other factor's dict for a unit
factor, and ``block_difference`` hands them to ``HeckeElem.accumulate``.
``ow_scale`` takes a ring element.  A word has no term with a zero
coefficient: ``ow_mul`` and ``ow_scale`` drop them (a Cartan entry 0 scales
whole right-hand sides by 0), so no table is built for them.  A word is a
plain tuple: words add by ``+``, the zero word is ``()``, and a caller may
also write one as a literal: the relation families in ``suites.schur``
write each two-label commutator, twist and q-commutator as
``((c, (a, b)), (c', (b, a)))`` over cached coefficient dicts, and drop a
zero coefficient themselves.
"""

from __future__ import annotations

import json

from . import combinatorics as comb
from .coeff import _mul_terms
from .hecke import EngineError, HeckeContext, m_mu_witness, phi_jm, t_bracket


def K(sign, pos):
    return ("K", sign, pos)


def I(sign, pos, t):
    return ("I", sign, pos, t)


def X(sign, pos, t):
    return ("X", sign, pos, t)


class SchurContext:
    """Fixes (n, r, m) and carries the Hecke engine, the sequence tables and
    the memos behind them, which live and die with the context."""

    def __init__(self, n, shape, q_one=False):
        self.n = n
        self.shape = shape
        self.hctx = HeckeContext(n, shape.r, q_one=q_one)
        self.ring = self.hctx.ring
        self.weights = comb.enumerate_compositions(n, shape)
        self._seq_cache = {}
        self._factors = {}  # right factor -> the one object with its terms
        self._products = {}  # (left factor, right factor) -> their product

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
        kind = label[0]
        ring = self.ring
        shape = self.shape
        if kind == "K":
            _, sign, pos = label
            return mu, self.hctx.scalar(ring.q_pow(sign * self.entry(mu, pos)))
        if kind == "I":
            _, sign, pos, t = label
            entry = self.entry(mu, pos)
            if entry == 0:
                return mu, self.hctx.zero()
            i, k = shape.node(pos)
            N = comb.jm_position(mu, (i, k), shape)
            args = list(range(N, N - entry, -1))
            return mu, phi_jm(self.hctx, t, sign, args).scale(ring.q_pow(sign * (t - 1)))
        if kind == "X":
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
                return None, self.hctx.zero()
            h = t_bracket(self.hctx, N, moved, sign)
            jk = shape.junction(pos)
            # left multiplications by L-polynomials shift exponent keys
            if sign < 0 and jk is not None:
                h = h.shift_L(N, 1) - h.scale(ring.Q(jk))
            if t:
                h = h.shift_L(N + side, t)
            return nu, h.scale(ring.q_pow(1 - moved))
        raise ValueError(f"unknown label {label!r}")

    def _check_x_induction(self, label):
        """The inductive definition of X_t as a commutator with I_1 must agree
        with the closed form in every block; a mismatch means an engine bug."""
        _, sign, pos, t = label
        ring = self.ring
        # X^{sign}_t = sign [I^{sign}_1, X^{sign}_{t-1}]
        word = ow_commutator(ring, ow(ring, I(sign, pos, 1)), ow(ring, X(sign, pos, t - 1)))
        detail = self.op_equal(ow_scale(word, ring.from_fraction(sign)), ow(ring, label))
        if detail is not None:
            raise EngineError(
                f"closed form and inductive definition disagree for {label}: "
                + json.dumps(detail)
            )

    # -- words ------------------------------------------------------------

    def table(self, labels):
        """The sequence applied to every m_mu (rightmost label first), as
        {mu: (nu, h)} with value m_nu * h, in weight order and only where h
        is nonzero.  Cached per sequence; sequences that share all but their
        last label share that prefix's table, and each product of right
        factors is taken once (``_product``)."""
        table = self._seq_cache.get(labels)
        if table is not None:
            return table
        table = {}
        if len(labels) > 1:
            rest = self.table(labels[:-1])
            for mu, (nu1, h1) in self.table(labels[-1:]).items():
                hit = rest.get(nu1)
                if hit is not None:
                    h = self._product(hit[1], h1)
                    if not h.is_zero:
                        table[mu] = (hit[0], h)
        elif labels:
            for mu in self.weights:
                nu, h = self.apply_gen(labels[0], mu)
                if not h.is_zero:
                    table[mu] = (nu, self._intern(h))
        else:
            one = self._intern(self.hctx.one())
            table = {mu: (mu, one) for mu in self.weights}
        self._seq_cache[labels] = table
        if len(labels) == 1 and labels[0][0] == "X" and labels[0][3] > 0:
            self._check_x_induction(labels[0])
        return table

    def _intern(self, h):
        """The one right factor of this context with the terms of h."""
        return self._factors.setdefault(h, h)

    def _product(self, left, right):
        """left * right, multiplied once per pair of factors and interned."""
        key = (left, right)
        h = self._products.get(key)
        if h is None:
            h = self._products[key] = self._intern(self.hctx.mul(left, right))
        return h

    def block_difference(self, a, b):
        """Word a minus word b on every weight, block by block: {mu: {nu:
        terms of A_nu - B_nu}}, where word a sends m_mu to sum_nu m_nu A_nu.
        A block's terms are summed by ``HeckeElem.accumulate`` and may
        cancel to zero."""
        blocks = {}
        for word, sign in ((a, 1), (b, -1)):
            for coeff, labels in word:
                for mu, (nu, h) in self.table(labels).items():
                    row = blocks.get(mu)
                    if row is None:
                        row = blocks[mu] = {}
                    out = row.get(nu)
                    if out is None:
                        out = row[nu] = {}
                    h.accumulate(coeff, out, sign)
        return blocks

    def first_difference(self, blocks):
        """The failure detail of the first block of ``block_difference``
        (weights mu in order) on which the operators differ, or None: the
        weight mu, the target weight nu and the ``m_mu_witness`` of the
        nonzero block D = A_nu - B_nu, the first terms of m_nu * D."""
        hctx = self.hctx
        for mu in self.weights:
            for nu, out in blocks.get(mu, {}).items():
                witness = m_mu_witness(hctx, nu, hctx.from_terms(out)) if out else None
                if witness is not None:
                    return {
                        "witness_weight": [list(c) for c in mu],
                        "target_weight": [list(c) for c in nu],
                        "lhs_minus_rhs": witness,
                    }
        return None

    def op_equal(self, a, b):
        """Operator equality, decided block by block over every weight: None
        when the operators agree, else the detail of ``first_difference``."""
        return self.first_difference(self.block_difference(a, b))

    def cartan(self, pos_x, pos_jl):
        if pos_jl == pos_x:
            return 1
        if pos_jl == pos_x + 1:
            return -1
        return 0


# ---------------------------------------------------------------------------
# operator words


def ow(ring, *labels):
    return ((ring.one.terms, tuple(labels)),)


def ow_scale(word, coeff):
    """The word times the ring element ``coeff`` (a ``MultiLaurent``),
    without the terms whose coefficient comes out zero."""
    return _nonzero((_mul_terms(c, coeff.terms, coeff.nvars), labels) for c, labels in word)


def ow_neg(word):
    return tuple(({k: -v for k, v in c.items()}, labels) for c, labels in word)


def ow_mul(ring, a, b):
    """The product of two words, without the terms whose coefficient comes
    out zero."""
    return _nonzero(
        (_mul_terms(ca, cb, ring.nvars), la + lb) for ca, la in a for cb, lb in b
    )


def _nonzero(terms):
    return tuple(term for term in terms if term[0])


def ow_commutator(ring, a, b):
    return ow_mul(ring, a, b) + ow_neg(ow_mul(ring, b, a))
