"""Symmetric polynomials with Laurent-polynomial coefficients.

Carries the degree-t family Phi_t^{+/-}, monomial and Schur bases,
Weyl-module characters as tableau generating functions, and the character
product formula with its Littlewood-Richardson expansion.

A ``SymPoly`` lives in a fixed ordered variable set of size ``nvars``; for
block-of-components variables the slot of x_{(i,k)} is gamma((i,k)) - 1, so
restricted variable sets like x^{(k)} u ... u x^{(r)} are just position
slices of the same ring.
"""

from __future__ import annotations

import itertools

from . import combinatorics as comb
from .coeff import MultiLaurent, ml_to_json, qint


class SymPoly:
    """Sparse polynomial: exponent tuple (length nvars) -> MultiLaurent coefficient."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=()):
        clean = {}
        items = terms.items() if hasattr(terms, "items") else terms
        for exps, coeff in items:
            exps = tuple(exps)
            if len(exps) != nvars:
                raise ValueError("exponent arity mismatch")
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

    @classmethod
    def _make(cls, nvars, clean_terms):
        self = object.__new__(cls)
        self.nvars = nvars
        self.terms = clean_terms
        return self

    @classmethod
    def zero(cls, nvars):
        return cls._make(nvars, {})

    @classmethod
    def constant(cls, nvars, coeff):
        if coeff.is_zero:
            return cls._make(nvars, {})
        return cls._make(nvars, {(0,) * nvars: coeff})

    @property
    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, SymPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset((e, hash(c)) for e, c in self.terms.items())))

    def __add__(self, other):
        if self.nvars != other.nvars:
            raise ValueError("mixed variable arities")
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
        return SymPoly._make(self.nvars, out)

    def __neg__(self):
        return SymPoly._make(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, MultiLaurent):
            return self.scale(other)
        if self.nvars != other.nvars:
            raise ValueError("mixed variable arities")
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
                else:
                    if not c.is_zero:
                        out[e] = c
        return SymPoly._make(self.nvars, out)

    def scale(self, coeff):
        if coeff.is_zero:
            return SymPoly._make(self.nvars, {})
        return SymPoly._make(self.nvars, {e: c * coeff for e, c in self.terms.items()})

    def times_var(self, slot):
        """Multiply by the variable in the given 0-based slot."""
        out = {}
        for e, c in self.terms.items():
            e2 = list(e)
            e2[slot] += 1
            out[tuple(e2)] = c
        return SymPoly._make(self.nvars, out)

    def swap_vars(self, i, j):
        out = {}
        for e, c in self.terms.items():
            e2 = list(e)
            e2[i], e2[j] = e2[j], e2[i]
            out[tuple(e2)] = c
        return SymPoly._make(self.nvars, out)

    def evaluate(self, values, ring):
        """Substitute a MultiLaurent for every variable (exponents must be >= 0)."""
        if len(values) != self.nvars:
            raise ValueError("need one value per variable")
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

    def __repr__(self):
        if not self.terms:
            return "SymPoly(0)"
        parts = [f"x^{list(e)}*[{c!r}]" for e, c in self.sorted_terms()]
        return " + ".join(parts)


def embed(poly, nvars, positions):
    """Reinterpret a k-variable polynomial inside nvars variables, sending
    variable j to slot positions[j]."""
    if len(positions) != poly.nvars:
        raise ValueError("positions must match the polynomial arity")
    out = {}
    for e, c in poly.terms.items():
        big = [0] * nvars
        for j, exp in enumerate(e):
            big[positions[j]] = exp
        out[tuple(big)] = c
    return SymPoly._make(nvars, out)


def monomial_sym(lam, k, ring):
    """Orbit sum m_lambda(x_1, ..., x_k)."""
    lam = comb.strip(lam)
    if len(lam) > k:
        raise ValueError("partition longer than the variable count")
    padded = tuple(lam) + (0,) * (k - len(lam))
    exps = set(itertools.permutations(padded))
    return SymPoly._make(k, {e: ring.one for e in exps})


def phi(t, k, sign, ring):
    """The degree-t symmetric polynomial Phi_t^{sign} in k variables.

    Closed form: sum over partitions lam of t with at most k parts of
    (1 - q^{-+2})^{len(lam)-1} m_lam; the degenerate t = 0 value is the
    constant q^{-+k+-1} [k].  ``sign`` is +1 or -1.  Built once per ring
    and arguments.
    """
    if k < 1:
        raise ValueError("need at least one variable")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    key = (t, k, sign)
    cached = ring._phi_cache.get(key)
    if cached is not None:
        return cached
    if t == 0:
        out = SymPoly.constant(k, ring.q_pow(-sign * k + sign) * qint(k, ring))
    else:
        unit = ring.one - ring.q_pow(-2 * sign)
        out = SymPoly.zero(k)
        for lam in comb.partitions_of(t, max_len=k):
            out = out + monomial_sym(lam, k, ring).scale(unit ** (len(lam) - 1))
    ring._phi_cache[key] = out
    return out


def power_sum(t, k, ring):
    """p_t(x_1..x_k); Phi_t at q = 1."""
    out = {}
    for i in range(k):
        e = [0] * k
        e[i] = t
        out[tuple(e)] = ring.one
    return SymPoly._make(k, out)


def schur_poly(lam, nvars, ring, positions=None):
    """Schur polynomial as the semistandard-tableau generating function.

    ``positions`` selects the 0-based variable slots used for entries (default
    all of them); entries 1..len(positions) in a tableau contribute to the
    corresponding slots.  Returns 0 when the partition is longer than the
    number of selected variables.
    """
    lam = comb.strip(lam)
    if positions is None:
        positions = tuple(range(nvars))
    nv = len(positions)
    if len(lam) > nv:
        return SymPoly.zero(nvars)
    if not lam:
        return SymPoly.constant(nvars, ring.one)
    out = {}
    row_vals = [[0] * w for w in lam]

    def rec(i, j):
        if i == len(lam):
            e = [0] * nvars
            for row in row_vals:
                for v in row:
                    e[positions[v - 1]] += 1
            e = tuple(e)
            if e in out:
                out[e] = out[e] + ring.one
            else:
                out[e] = ring.one
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
    return SymPoly._make(nvars, {e: c for e, c in out.items() if not c.is_zero})


def weyl_character(lam, shape, ring):
    """ch Delta(lam) = sum over weights mu of #T_0(lam, mu) x^mu."""
    nvars = shape.total
    out = {}
    for tab in comb.semistandard_tableaux(lam, shape):
        mu = comb.tableau_weight(tab, shape)
        e = comb.flatten(mu)
        if e in out:
            out[e] = out[e] + ring.one
        else:
            out[e] = ring.one
    if not out and comb.size(lam) == 0:
        return SymPoly.constant(nvars, ring.one)
    return SymPoly._make(nvars, out)


def single_component_multipartition(part, k, r):
    """(0, ..., part, ..., 0) with part in component k (1-based)."""
    return tuple(comb.strip(part) if c == k else () for c in range(1, r + 1))


def expand_in_schur_basis(poly, ring):
    """Expand a symmetric polynomial in Schur polynomials of the same variables
    (the r = 1 Weyl basis); dict partition -> MultiLaurent coefficient."""
    residual = poly
    out = {}
    while not residual.is_zero:
        exps = max(residual.terms)
        lam = comb.strip(exps)
        if any(exps[i] < exps[i + 1] for i in range(len(exps) - 1)):
            raise ValueError(f"leading exponent {exps} not weakly decreasing")
        coeff = residual.terms[exps]
        residual = residual - schur_poly(lam, poly.nvars, ring).scale(coeff)
        out[lam] = coeff
    return out


def char_product_check(lam, mu, shape, ring, chars=None):
    """Verify ch Delta(lam) ch Delta(mu) = sum_nu LR^nu_{lam,mu} ch Delta(nu).

    Returns a report dict with the LR multiset and a ``verified`` flag; never
    silently passes a mismatch.  ``chars`` is an optional shared character
    cache keyed by multipartition.
    """
    if chars is None:
        chars = {}

    def char(nu):
        cached = chars.get(nu)
        if cached is None:
            cached = weyl_character(nu, shape, ring)
            chars[nu] = cached
        return cached

    lam = tuple(comb.strip(p) for p in lam)
    mu = tuple(comb.strip(p) for p in mu)
    lhs = char(lam) * char(mu)
    n_total = comb.size(lam) + comb.size(mu)
    rhs = SymPoly.zero(shape.total)
    lr_terms = []
    for nu in comb.enumerate_multipartitions(n_total, shape, extended=True):
        c = comb.lr_coefficient(lam, mu, nu)
        if c:
            lr_terms.append((nu, c))
            rhs = rhs + char(nu).scale(ring.from_int(c))
    return {
        "lambda": [list(p) for p in lam],
        "mu": [list(p) for p in mu],
        "lr": [{"nu": [list(p) for p in nu], "coeff": c} for nu, c in sorted(lr_terms)],
        "verified": lhs == rhs,
    }


def sympoly_to_json(poly):
    return [
        {"exponents": list(e), "coeff": ml_to_json(c)} for e, c in poly.sorted_terms()
    ]
