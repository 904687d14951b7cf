"""Symmetric polynomials with Laurent-polynomial coefficients.

Carries the degree-t family Phi_t^{+/-}, monomial and Schur bases,
Weyl-module characters as tableau generating functions, and the character
product formula with its Littlewood-Richardson expansion.

A ``SymPoly`` lives in a fixed ordered variable set of size ``nvars``; for
block-of-components variables the slot of x_{(i,k)} is gamma((i,k)) - 1, so
restricted variable sets like x^{(k)} u ... u x^{(r)} are just position
slices of the same ring.

Each ``SymPoly`` carries its ``LaurentRing`` and stores its terms flat, as
``liealg`` does: {(exponent tuple, key): coefficient}, with ``key`` the
packed key of a ``MultiLaurent`` monomial and a nonzero ``int`` or
``Fraction`` coefficient.  Products and ``scale`` add keys and test the
ring's ``guard`` mask (an exponent out of range raises ``EngineError``)
without allocating a ``MultiLaurent``, and so does ``evaluate``;
``SymPoly.grouped`` gives the {exponent tuple: MultiLaurent} view that
``sorted_terms``, ``repr`` and ``expand_in_schur_basis`` read.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import lru_cache
from operator import add

from . import combinatorics as comb
from .coeff import HeadTerms, MultiLaurent, _add_terms, _exact, _mul_terms, _overflow, qint


class SymPoly(HeadTerms):
    """Sparse polynomial in ``nvars`` variables, stored flat (see the module
    docstring); the constructor takes {exponent tuple: MultiLaurent}."""

    __slots__ = ("ring", "nvars", "terms")

    def __init__(self, ring, nvars, terms):
        if any(len(exps) != nvars for exps in terms):
            raise ValueError("exponent arity mismatch")
        self.ring = ring
        self.nvars = nvars
        self.terms = {(tuple(e), k): c for e, x in terms.items() for k, c in x.terms.items()}

    @classmethod
    def _make(cls, ring, nvars, clean_terms):
        # internal fast path: clean_terms must already be zero-free
        self = object.__new__(cls)
        self.ring = ring
        self.nvars = nvars
        self.terms = clean_terms
        return self

    @classmethod
    def zero(cls, ring, nvars):
        return cls._make(ring, nvars, {})

    @classmethod
    def constant(cls, ring, nvars, coeff):
        return cls(ring, nvars, {(0,) * nvars: coeff})

    @property
    def _space(self):
        return self.ring, self.nvars

    def _like(self, terms):
        return SymPoly._make(self.ring, self.nvars, terms)

    def __mul__(self, other):
        if self._space != other._space:
            raise ValueError("SymPoly operands from different spaces")
        origin, guard = self.ring.origin, self.ring.guard
        out = {}
        for (e1, k1), c1 in self.terms.items():
            k1 -= origin
            for (e2, k2), c2 in other.terms.items():
                key = k1 + k2
                if key & guard:
                    raise _overflow()
                k = (tuple(map(add, e1, e2)), key)
                c = c1 * c2
                s = out.get(k)
                if s is not None:
                    c += s
                    if not c:
                        del out[k]
                        continue
                out[k] = c if type(c) is int else _exact(c)
        return self._like(out)

    def _map_exps(self, nvars, f):
        # the polynomial with every exponent tuple e replaced by f(e), f injective
        terms = {(f(e), key): c for (e, key), c in self.terms.items()}
        return SymPoly._make(self.ring, nvars, terms)

    def times_var(self, slot):
        """Multiply by the variable in the given 0-based slot."""
        return self._map_exps(self.nvars, lambda e: e[:slot] + (e[slot] + 1,) + e[slot + 1:])

    def swap_vars(self, i, j):
        def swap(e):
            e = list(e)
            e[i], e[j] = e[j], e[i]
            return tuple(e)

        return self._map_exps(self.nvars, swap)

    def evaluate(self, values):
        """Substitute a MultiLaurent for every variable (exponents must be >= 0).
        Each power v_i^e is taken once per call."""
        if len(values) != self.nvars:
            raise ValueError("need one value per variable")
        nvars = self.ring.nvars
        powers = {}
        total = {}
        for e, coeff in self.grouped().items():
            term = coeff.terms
            for i, exp in enumerate(e):
                if exp:
                    power = powers.get((i, exp))
                    if power is None:
                        if values[i].nvars != nvars:
                            raise ValueError("mixed variable arities")
                        power = powers[i, exp] = (values[i] ** exp).terms
                    term = _mul_terms(term, power, nvars)
            total = _add_terms(total, term)
        return MultiLaurent._make(nvars, total)

    def __repr__(self):
        if not self.terms:
            return "SymPoly(0)"
        parts = [f"x^{list(e)}*[{c!r}]" for e, c in self.sorted_terms()]
        return " + ".join(parts)


def _tally(ring, nvars, exps):
    """The sum of the monomials x^e, e in exps, counted with multiplicity."""
    one = ring.origin
    return SymPoly._make(ring, nvars, {(e, one): c for e, c in Counter(exps).items()})


def embed(poly, nvars, positions):
    """Reinterpret a k-variable polynomial inside nvars variables, sending
    variable j to slot positions[j]."""
    if len(positions) != poly.nvars:
        raise ValueError("positions must match the polynomial arity")

    def place(e):
        big = [0] * nvars
        for p, exp in zip(positions, e):
            big[p] = exp
        return tuple(big)

    return poly._map_exps(nvars, place)


def monomial_sym(lam, k, ring):
    """Orbit sum m_lambda(x_1, ..., x_k)."""
    lam = comb.strip(lam)
    if len(lam) > k:
        raise ValueError("partition longer than the variable count")
    padded = tuple(lam) + (0,) * (k - len(lam))
    return _tally(ring, k, set(itertools.permutations(padded)))


@lru_cache(maxsize=None)
def phi(t, k, sign, ring):
    """The degree-t symmetric polynomial Phi_t^{sign} in k variables.

    Closed form: sum over partitions lam of t with at most k parts of
    (1 - q^{-+2})^{len(lam)-1} m_lam; the degenerate t = 0 value is the
    constant q^{-+k+-1} [k].  ``sign`` is +1 or -1.  Built once per ring
    value and arguments.
    """
    if k < 1:
        raise ValueError("need at least one variable")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if t == 0:
        return SymPoly.constant(ring, k, ring.q_pow(-sign * k + sign) * qint(k, ring))
    unit = ring.one - ring.q_pow(-2 * sign)
    out = SymPoly.zero(ring, k)
    for lam in comb.partitions_of(t, max_len=k):
        out = out + monomial_sym(lam, k, ring).scale(unit ** (len(lam) - 1))
    return out


def power_sum(t, k, ring):
    """p_t(x_1..x_k); Phi_t at q = 1."""
    return _tally(ring, k, ((0,) * i + (t,) + (0,) * (k - 1 - i) for i in range(k)))


@lru_cache(maxsize=None)
def schur_poly(lam, nvars, ring, positions=None):
    """Schur polynomial as the semistandard-tableau generating function.

    ``positions``, a tuple, selects the 0-based variable slots used for
    entries (default all of them); entries 1..len(positions) in a tableau
    contribute to the corresponding slots.  Returns 0 when the partition is
    longer than the number of selected variables.  Built once per partition,
    variable count, ring value and positions.
    """
    lam = comb.strip(lam)
    if positions is None:
        positions = tuple(range(nvars))
    nv = len(positions)
    if len(lam) > nv:
        return SymPoly.zero(ring, nvars)
    if not lam:
        return SymPoly.constant(ring, nvars, ring.one)
    weights = []
    row_vals = [[0] * w for w in lam]

    def rec(i, j):
        if i == len(lam):
            e = [0] * nvars
            for row in row_vals:
                for v in row:
                    e[positions[v - 1]] += 1
            weights.append(tuple(e))
            return
        lo = row_vals[i][j - 1] if j > 0 else 1
        if i > 0 and j < lam[i - 1]:
            lo = max(lo, row_vals[i - 1][j] + 1)
        for v in range(lo, nv + 1):
            row_vals[i][j] = v
            if j + 1 < lam[i]:
                rec(i, j + 1)
            else:
                rec(i + 1, 0)

    rec(0, 0)
    return _tally(ring, nvars, weights)


@lru_cache(maxsize=None)
def weyl_character(lam, shape, ring):
    """ch Delta(lam) = sum over weights mu of #T_0(lam, mu) x^mu, built once
    per multipartition, shape and ring value.  The empty shape has one
    tableau, of weight 0, so its character is 1."""
    weights = (
        comb.flatten(comb.tableau_weight(tab, shape))
        for tab in comb.semistandard_tableaux(lam, shape)
    )
    return _tally(ring, shape.total, weights)


def single_component_multipartition(part, k, r):
    """(0, ..., part, ..., 0) with part in component k (1-based)."""
    return tuple(comb.strip(part) if c == k else () for c in range(1, r + 1))


def expand_in_schur_basis(poly, ring):
    """Expand a symmetric polynomial in Schur polynomials of the same variables
    (the r = 1 Weyl basis); dict partition -> MultiLaurent coefficient."""
    residual = poly
    out = {}
    while not residual.is_zero:
        # the whole coefficient of the leading exponent tuple, all its ring keys
        groups = residual.grouped()
        exps = max(groups)
        lam = comb.strip(exps)
        if any(exps[i] < exps[i + 1] for i in range(len(exps) - 1)):
            raise ValueError(f"leading exponent {exps} not weakly decreasing")
        coeff = groups[exps]
        residual = residual - schur_poly(lam, poly.nvars, ring).scale(coeff)
        out[lam] = coeff
    return out


def char_product_check(lam, mu, shape, ring):
    """Verify ch Delta(lam) ch Delta(mu) = sum_nu LR^nu_{lam,mu} ch Delta(nu).

    Returns a report dict with the LR multiset and a ``verified`` flag; never
    silently passes a mismatch.
    """
    lam = tuple(comb.strip(p) for p in lam)
    mu = tuple(comb.strip(p) for p in mu)
    lhs = weyl_character(lam, shape, ring) * weyl_character(mu, shape, ring)
    rhs = SymPoly.zero(ring, shape.total)
    lr_terms = []
    for nu in comb.enumerate_multipartitions(comb.size(lam) + comb.size(mu), shape):
        c = comb.lr_coefficient(lam, mu, nu)
        if c:
            lr_terms.append((nu, c))
            rhs = rhs + weyl_character(nu, shape, ring).scale(c)
    return {
        "lambda": [list(p) for p in lam],
        "mu": [list(p) for p in mu],
        "lr": [{"nu": [list(p) for p in nu], "coeff": c} for nu, c in sorted(lr_terms)],
        "verified": lhs == rhs,
    }
