"""The deformed current Lie algebra attached to a block decomposition.

Basis labels are triples (p, q, t): row position p, column position q in
the gamma linearization 1..m, and a degree t >= 0.  Labels with
|p - q| <= 1 are the generators (diagonal elements, raising and lowering
steps); longer labels are defined by iterated brackets of degree-zero
raising/lowering generators with an innermost generator carrying the
degree.  Brackets of a diagonal or raising generator against any basis
element come from closed formulas, and a lowering generator's bracket is
their minus transpose; general brackets reduce recursively through the
derivation rule [[a,b],c] = [a,[b,c]] - [b,[a,c]].

Coefficients live in the shared Laurent ring with the q exponent pinned to
zero; the parameters Q_1, ..., Q_{r-1} enter at the junction positions
m_1 + ... + m_k.

The m x m matrices of the evaluation map onto gl_m and of the modules V_tau
are sparse: a dict {(i, j): coefficient} with zero-based indices that stores
only nonzero entries, so the zero matrix is {} and matrix equality is ==.
"""

from __future__ import annotations

from .coeff import LaurentRing, ml_to_json


class LieElem:
    """Finitely supported combination of basis labels (p, q, t)."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx, terms):
        # terms must already be zero-free
        self.ctx = ctx
        self.terms = terms

    @property
    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, LieElem):
            return NotImplemented
        return self.ctx is other.ctx and self.terms == other.terms

    def __add__(self, other):
        out = dict(self.terms)
        for label, coeff in other.terms.items():
            _acc(out, label, coeff)
        return LieElem(self.ctx, out)

    def __neg__(self):
        return LieElem(self.ctx, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, coeff):
        if coeff.is_zero:
            return LieElem(self.ctx, {})
        # a product of nonzero Laurent polynomials is nonzero
        return LieElem(self.ctx, {k: v * coeff for k, v in self.terms.items()})

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __repr__(self):
        if not self.terms:
            return "LieElem(0)"
        return " + ".join(f"({c!r})E[{p},{q};{t}]" for (p, q, t), c in self.sorted_terms())


def elem_to_json(x):
    return [
        {"src": p, "tgt": q, "t": t, "coeff": ml_to_json(c)}
        for (p, q, t), c in x.sorted_terms()
    ]


class LieContext:
    """Fixes the shape and carries bracket and representation caches."""

    def __init__(self, shape):
        self.shape = shape
        self.m = shape.total
        self.ring = LaurentRing(max(shape.r, 1))
        self._bb_cache = {}
        self._vtau_cache = {}
        self._eval_cache = {}

    # -- element constructors --------------------------------------------

    def basis(self, p, q, t, coeff=None):
        if not (1 <= p <= self.m and 1 <= q <= self.m and t >= 0):
            raise ValueError(f"bad basis label ({p}, {q}, {t})")
        coeff = self.ring.one if coeff is None else coeff
        return LieElem(self, {} if coeff.is_zero else {(p, q, t): coeff})

    def X(self, sign, pos, t):
        if not 1 <= pos <= self.m - 1:
            raise ValueError(f"position {pos} not in Gamma'")
        return self.basis(pos, pos + 1, t) if sign > 0 else self.basis(pos + 1, pos, t)

    def I(self, pos, t):
        return self.basis(pos, pos, t)

    def zero(self):
        return LieElem(self, {})

    def junction_Q(self, pos):
        """The parameter attached to a junction position, else None."""
        k = self.shape.junction(pos)
        return None if k is None else self.ring.Q(k)

    # -- brackets ----------------------------------------------------------

    def bracket(self, x, y):
        out = self.zero()
        for a, ca in x.terms.items():
            for b, cb in y.terms.items():
                out = out + self.bracket_basis(a, b).scale(ca * cb)
        return out

    def bracket_basis(self, a, b):
        key = (a, b)
        cached = self._bb_cache.get(key)
        if cached is not None:
            return cached
        if abs(a[0] - a[1]) <= 1:
            out = self._gen_on_basis(a, b)
        elif abs(b[0] - b[1]) <= 1:
            out = -self._gen_on_basis(b, a)
        else:
            g, a1 = _peel(a)
            # [[g, a1], b] = [g, [a1, b]] - [a1, [g, b]]
            inner1 = self.bracket_basis(a1, b)
            term1 = self._gen_on_elem(g, inner1)
            inner2 = self._gen_on_basis(g, b)
            term2 = self.zero()
            for lab, coeff in inner2.terms.items():
                term2 = term2 + self.bracket_basis(a1, lab).scale(coeff)
            out = term1 - term2
        self._bb_cache[key] = out
        return out

    def _gen_on_elem(self, g, x):
        out = self.zero()
        for lab, coeff in x.terms.items():
            out = out + self._gen_on_basis(g, lab).scale(coeff)
        return out

    def _gen_on_basis(self, g, b):
        """Closed-form bracket [generator, basis element]."""
        gp, gq, s = g
        p, q, t = b
        if gq == gp - 1:
            # lowering generator X^-_{a,s}: the minus transpose of the raising
            # bracket, [X^-_{a,s}, E[p,q;t]] = -[X^+_{a,s}, E[q,p;t]]^T
            raised = self._gen_on_basis((gq, gp, s), (q, p, t))
            return LieElem(self, {(v, u, d): -c for (u, v, d), c in raised.terms.items()})
        one = self.ring.one
        out = {}

        if gp == gq:
            # diagonal generator I_{a,s}
            a = gp
            if p == q:
                return self.zero()
            if a == p:
                _acc(out, (p, q, t + s), one)
            if a == q:
                _acc(out, (p, q, t + s), -one)
            return LieElem(self, out)

        # raising generator X^+_{a,s}
        a = gp
        if p == q:
            c = p
            if c == a:
                _acc(out, (a, a + 1, t + s), -one)
            elif c == a + 1:
                _acc(out, (a, a + 1, t + s), one)
            return LieElem(self, out)
        if p < q:
            if a == p - 1:
                _acc(out, (p - 1, q, t + s), one)
            if a == q:
                _acc(out, (p, q + 1, t + s), -one)
            return LieElem(self, out)
        # p > q
        ell = p - q
        if ell == 1 and a == p - 1:
            Q = self.junction_Q(a)
            if Q is None:
                _acc(out, (p - 1, p - 1, t + s), one)
                _acc(out, (p, p, t + s), -one)
            else:
                _acc(out, (p - 1, p - 1, t + s), -Q)
                _acc(out, (p, p, t + s), Q)
                _acc(out, (p - 1, p - 1, t + s + 1), one)
                _acc(out, (p, p, t + s + 1), -one)
            return LieElem(self, out)
        if ell > 1 and a == p - 1:
            Q = self.junction_Q(a)
            if Q is None:
                _acc(out, (p - 1, q, t + s), one)
            else:
                _acc(out, (p - 1, q, t + s), -Q)
                _acc(out, (p - 1, q, t + s + 1), one)
            return LieElem(self, out)
        if ell > 1 and a == q:
            Q = self.junction_Q(a)
            if Q is None:
                _acc(out, (p, q + 1, t + s), -one)
            else:
                _acc(out, (p, q + 1, t + s), Q)
                _acc(out, (p, q + 1, t + s + 1), -one)
            return LieElem(self, out)
        return self.zero()

    # -- the V_tau representations ----------------------------------------

    def vtau_basis_matrix(self, label, tau):
        key = (label, tau)
        cached = self._vtau_cache.get(key)
        if cached is not None:
            return cached
        p, q, t = label
        ring = self.ring
        tau_t = ring.from_fraction(tau**t) if t else ring.one
        if abs(p - q) <= 1:
            Q = self.junction_Q(p) if q == p + 1 else None
            coeff = tau_t if Q is None else (ring.from_fraction(tau) - Q) * tau_t
            M = mat_unit(p - 1, q - 1, coeff)
        else:
            g, inner = _peel(label)
            M = mat_commutator(
                self.vtau_basis_matrix(g, tau), self.vtau_basis_matrix(inner, tau)
            )
        self._vtau_cache[key] = M
        return M

    def vtau_rep(self, x, tau):
        M = {}
        for label, coeff in x.terms.items():
            M = mat_add(M, mat_scale(self.vtau_basis_matrix(label, tau), coeff))
        return M

    def psi_vtau(self, p, q, tau):
        """The scalar by which E[p,q;t] hits v_q: the product (tau - Q) over
        crossed junctions for strictly upper labels, else 1."""
        ring = self.ring
        out = ring.one
        if p < q:
            for pos in range(p, q):
                Q = self.junction_Q(pos)
                if Q is not None:
                    out = out * (ring.from_fraction(tau) - Q)
        return out

    # -- evaluation onto gl_m ----------------------------------------------

    def eval_basis_matrix(self, label):
        """The evaluation map: degree-zero generators to matrix units (with
        -Q_k at junction raisers), positive degrees to zero."""
        cached = self._eval_cache.get(label)
        if cached is not None:
            return cached
        p, q, t = label
        if abs(p - q) <= 1:
            Q = self.junction_Q(p) if q == p + 1 else None
            M = {} if t else {(p - 1, q - 1): self.ring.one if Q is None else -Q}
        else:
            g, inner = _peel(label)
            M = mat_commutator(self.eval_basis_matrix(g), self.eval_basis_matrix(inner))
        self._eval_cache[label] = M
        return M

    def eval_map(self, x):
        M = {}
        for label, coeff in x.terms.items():
            M = mat_add(M, mat_scale(self.eval_basis_matrix(label), coeff))
        return M

    def psi_gr(self, p, q):
        """Rescaling of the graded isomorphism: prod of (-Q_k^{-1}) over the
        junctions crossed by strictly upper labels, else 1."""
        ring = self.ring
        out = ring.one
        if p < q:
            for pos in range(p, q):
                k = self.shape.junction(pos)
                if k is not None:
                    out = out * ring.Q(k, -1).scale(-1)
        return out


def _peel(label):
    """(g, inner) with E[label] = [g, E[inner]]: g the degree-zero step from
    p towards q, for a label with |p - q| >= 2."""
    p, q, t = label
    step = 1 if p < q else -1
    return (p, p + step, 0), (p + step, q, t)


# ---------------------------------------------------------------------------
# matrices over the coefficient ring


def mat_unit(i, j, c):
    """The matrix whose only entry is c at (i, j)."""
    return {} if c.is_zero else {(i, j): c}


def _acc(out, key, c):
    cur = out.get(key)
    if cur is None:
        out[key] = c
    else:
        s = cur + c
        if s.is_zero:
            del out[key]
        else:
            out[key] = s


def mat_add(A, B):
    out = dict(A)
    for key, b in B.items():
        _acc(out, key, b)
    return out


def mat_sub(A, B):
    out = dict(A)
    for key, b in B.items():
        _acc(out, key, -b)
    return out


def mat_scale(A, c):
    if c.is_zero:
        return {}
    return {key: a * c for key, a in A.items()}


def mat_mul(A, B):
    rows = {}
    for (k, j), b in B.items():
        rows.setdefault(k, []).append((j, b))
    out = {}
    for (i, k), a in A.items():
        for j, b in rows.get(k, ()):
            _acc(out, (i, j), a * b)
    return out


def mat_commutator(A, B):
    return mat_sub(mat_mul(A, B), mat_mul(B, A))


# ---------------------------------------------------------------------------
# basis labels and the Jacobiator


def all_basis_labels(lctx, deg_cap):
    m = lctx.m
    return [
        (p, q, t)
        for p in range(1, m + 1)
        for q in range(1, m + 1)
        for t in range(deg_cap + 1)
    ]


def generator_labels(lctx, deg_cap):
    labels = []
    for t in range(deg_cap + 1):
        for pos in range(1, lctx.m + 1):
            labels.append((pos, pos, t))
        for pos in range(1, lctx.m):
            labels.append((pos, pos + 1, t))
            labels.append((pos + 1, pos, t))
    return labels


def jacobi_defect(lctx, a, b, c):
    ab = lctx.bracket_basis(a, b)
    bc = lctx.bracket_basis(b, c)
    ca = lctx.bracket_basis(c, a)
    out = lctx.zero()
    for lab, coeff in ab.terms.items():
        out = out + lctx.bracket_basis(lab, c).scale(coeff)
    for lab, coeff in bc.terms.items():
        out = out + lctx.bracket_basis(lab, a).scale(coeff)
    for lab, coeff in ca.terms.items():
        out = out + lctx.bracket_basis(lab, b).scale(coeff)
    return out
