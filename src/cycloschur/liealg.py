"""The deformed current Lie algebra attached to a block decomposition.

Basis labels are triples (p, q, t): row position p, column position q in
the gamma linearization 1..m, and a degree t >= 0.  Labels with
|p - q| <= 1 are the generators (diagonal elements, raising and lowering
steps); longer labels are defined by iterated brackets of degree-zero
raising/lowering generators with an innermost generator carrying the
degree.  Brackets of a diagonal or raising generator against any basis
element come from closed formulas, and a lowering generator's bracket is
their minus transpose; general brackets reduce recursively through the
derivation rule [[a,b],c] = [a,[b,c]] - [b,[a,c]].  The recursion peels a
degree-zero generator g off a longer label, [[g, a1], b] = [g, [a1, b]] -
[a1, [g, b]], and reads [a1, b], [g, b] and each [a1, lab] through the
bracket cache ``_bb_cache``, so each is built once per context.  Each
[g, lab] is the closed form, taken afresh, so a wrong entry in the cache
stays in the bracket it belongs to.

Coefficients lie in the shared Laurent ring with the q exponent pinned to
zero (the V_tau matrices put tau in that slot); the parameters Q_1, ...,
Q_{r-1} enter at the junction positions m_1 + ... + m_k, through one
junction step of the raising bracket.  They
are stored flat, as in ``hecke`` and ``symfun``: an element is one dict
{(label, key): coefficient}, where ``key`` is the packed key of a
``MultiLaurent`` monomial, used as it is, and the coefficient is a nonzero
``int``, or a ``Fraction`` when it is not integral.  Brackets, matrix
products and scaling add keys less the ring's ``origin``, multiply numbers
and test the ring's ``guard`` mask once per key formed (an exponent out of
range raises ``EngineError``); they allocate no ``MultiLaurent`` and never
look inside a key.  At the boundary, ``basis``, ``scale`` and ``mat_unit``
take the terms of a coefficient read by ``LaurentRing.scalar_terms``, and
``LieElem.grouped`` regroups them as {label: MultiLaurent}
(``sorted_terms`` and ``repr`` read it).

The m x m matrices of the modules V_tau are flat the same way, keyed
((i, j), key) with zero-based indices, and store only nonzero entries, so
the zero matrix is {} and matrix equality is ==.  A shifted, scaled copy
of one element's or matrix's terms is added to another's by
``coeff._acc_scaled``, which ``SymPoly`` shares.  The V_tau matrices are
held once, over Z[tau, Q^{+-1}] with tau as the ring's q: a generator's
matrix has a closed form in tau, a longer label's is the commutator of its
peeled factors, every value is an int, and each is cached per label.
The engine keeps them over Z[tau]; only the Lie suite reads them at a
numeric tau, and the evaluation map onto gl_m is V_0, the same matrices at
tau = 0, a ring map as no tau exponent is negative.  Each entry of a
product A B pairs an entry (i, k) of A with one (k, j) of B, so A B is {}
when no column index of A is a row index of B; the Lie suite reads those
index sets off the matrices to skip commutators that are zero, exactly.
"""

from __future__ import annotations

from .coeff import HeadTerms, LaurentRing, _acc_scaled, _exact, _overflow


class LieElem(HeadTerms):
    """Finitely supported combination of basis labels (p, q, t), stored as
    flat terms {(label, key): coefficient} (see the module docstring)."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx, terms):
        # terms must already be zero-free, with integral values as ints
        self.ctx = ctx
        self.terms = terms

    def _like(self, terms):
        return LieElem(self.ctx, terms)

    @property
    def ring(self):
        return self.ctx.ring

    def __repr__(self):
        if not self.terms:
            return "LieElem(0)"
        return " + ".join(f"({c!r})E[{p},{q};{t}]" for (p, q, t), c in self.sorted_terms())


LieElem._space = LieElem.ctx


class LieContext:
    """Fixes the shape and carries bracket and representation caches."""

    def __init__(self, shape):
        self.shape = shape
        self.m = shape.total
        self.ring = LaurentRing(shape.r)
        self._origin = self.ring.origin  # key of 1
        self._guard = self.ring.guard
        # the key of Q_k at the junction position of each k
        self._jkey = {}
        for pos in range(1, self.m + 1):
            k = shape.junction(pos)
            if k is not None:
                (self._jkey[pos],) = self.ring.Q(k).terms
        self._empty = LieElem(self, {})  # every vanishing closed-form bracket
        self._bb_cache = {}
        self._antisymmetry = {}  # tuple of labels -> first violating pair or None
        self._vtau = {}  # label -> V_tau matrix over Z[tau, Q^{+-1}]

    # -- element constructors --------------------------------------------

    def basis(self, p, q, t, coeff=1):
        if not (1 <= p <= self.m and 1 <= q <= self.m and t >= 0):
            raise ValueError(f"bad basis label ({p}, {q}, {t})")
        terms = self.ring.scalar_terms(coeff)
        return LieElem(self, {((p, q, t), k): c for k, c in terms.items()})

    def zero(self):
        return LieElem(self, {})

    # -- brackets ----------------------------------------------------------

    def bracket_basis(self, a, b):
        key = (a, b)
        cached = self._bb_cache.get(key)
        if cached is not None:
            return cached
        if abs(a[0] - a[1]) <= 1:
            out = self._gen_on_basis(a, b)
        elif abs(b[0] - b[1]) <= 1:
            out = self._gen_on_basis(b, a, -1)
        else:
            g, a1 = _peel(a)
            origin, guard = self._origin, self._guard
            acc = {}
            # [[g, a1], b] = [g, [a1, b]] - [a1, [g, b]]; [g, lab] from the
            # closed form, [a1, b], [g, b] and [a1, lab] from the cache
            for (lab, k), c in self.bracket_basis(a1, b).terms.items():
                _acc_scaled(acc, self._gen_on_basis(g, lab).terms, k - origin, c, guard)
            # the labels of [g, b] are distinct: one bracket_basis call each
            for (lab, k), c in self.bracket_basis(g, b).terms.items():
                terms = self.bracket_basis(a1, lab).terms
                _acc_scaled(acc, terms, k - origin, -c, guard)
            out = LieElem(self, acc)
        self._bb_cache[key] = out
        return out

    def antisymmetry_violation(self, labels):
        """The first pair (a, b) of ``labels``, a at or before b, with
        [a, b] + [b, a] != 0, or None when the bracket is antisymmetric on
        them; memoized per tuple of labels.  A pair whose brackets are both
        empty is antisymmetric, so ``_negatives`` runs only where either
        order has terms."""
        labels = tuple(labels)
        if labels not in self._antisymmetry:
            self._antisymmetry[labels] = self._first_asymmetric_pair(labels)
        return self._antisymmetry[labels]

    def _first_asymmetric_pair(self, labels):
        bb = self.bracket_basis
        for i, a in enumerate(labels):
            for b in labels[i:]:
                x = bb(a, b).terms
                y = bb(b, a).terms
                if (x or y) and not _negatives(x, y):
                    return a, b
        return None

    def _gen_on_basis(self, g, b, sign=1):
        """Closed-form bracket sign * [generator, basis element]; every label
        of the result carries a single monomial, +-1 or +-Q_k.  A vanishing
        bracket is the context's one empty element."""
        gp, gq, s = g
        p, q, t = b
        if gq == gp - 1:
            # lowering generator X^-_{a,s}: the minus transpose of the raising
            # bracket, [X^-_{a,s}, E[p,q;t]] = -[X^+_{a,s}, E[q,p;t]]^T
            raised = self._gen_on_basis((gq, gp, s), (q, p, t), -sign)
            if not raised.terms:
                return raised
            return LieElem(
                self, {((v, u, d), k): c for ((u, v, d), k), c in raised.terms.items()}
            )
        one = self._origin
        d = t + s

        if gp == gq:
            # diagonal generator I_{a,s}
            a = gp
            if p == q or a not in (p, q):
                return self._empty
            return LieElem(self, {((p, q, d), one): sign if a == p else -sign})

        # raising generator X^+_{a,s}
        a = gp
        if p == q:
            if p == a:
                return LieElem(self, {((a, a + 1, d), one): -sign})
            if p == a + 1:
                return LieElem(self, {((a, a + 1, d), one): sign})
            return self._empty
        if p < q:
            if a == p - 1:
                return LieElem(self, {((p - 1, q, d), one): sign})
            if a == q:
                return LieElem(self, {((p, q + 1, d), one): -sign})
            return self._empty
        # p > q: the terms of the bracket away from a junction
        if a == p - 1:
            if p - q == 1:
                terms = {((a, a, d), one): sign, ((p, p, d), one): -sign}
            else:
                terms = {((a, q, d), one): sign}
        elif a == q:
            terms = {((p, q + 1, d), one): -sign}
        else:
            return self._empty
        Q = self._jkey.get(a)
        if Q is None:
            return LieElem(self, terms)
        # at the junction of Q_k each c E[d] becomes -c Q_k E[d] + c E[d + 1]
        step = {}
        for ((i, j, _), _), c in terms.items():
            step[(i, j, d), Q] = -c
            step[(i, j, d + 1), one] = c
        return LieElem(self, step)

    # -- the V_tau representations ----------------------------------------

    def vtau_basis_matrix(self, label):
        """The matrix of E[label] on V_tau over Z[tau, Q^{+-1}], with tau in
        the ring's q slot: a generator's entry is tau^t, or
        tau^{t+1} - Q_k tau^t at a raiser from the junction of Q_k, and a
        longer label's matrix is the commutator of its peeled factors.  Every
        value is an int and no tau exponent is negative.  Cached per label."""
        M = self._vtau.get(label)
        if M is not None:
            return M
        p, q, t = label
        if abs(p - q) <= 1:
            coeff = self.ring.q_pow(t)
            k = self.shape.junction(p) if q == p + 1 else None
            if k is not None:
                coeff = coeff * self._tau_minus_Q(k)
            M = mat_unit(self, p - 1, q - 1, coeff)
        else:
            g, inner = _peel(label)
            M = mat_commutator(self, self.vtau_basis_matrix(g), self.vtau_basis_matrix(inner))
        self._vtau[label] = M
        return M

    def vtau_rep(self, x):
        """The matrix of x on V_tau over Z[tau, Q^{+-1}]: ``mat_image`` of
        ``vtau_basis_matrix``, each label's matrix built only on a cache
        miss."""
        return mat_image(self, x, self.vtau_basis_matrix)

    def _tau_minus_Q(self, k):
        """tau - Q_k, tau in the q slot."""
        return self.ring.q - self.ring.Q(k)

    def psi_vtau(self, p, q):
        """The scalar by which E[p,q;t] hits v_q, over Z[tau, Q]: the product
        of (tau - Q_k) over the junctions crossed by strictly upper labels,
        else 1."""
        return self._over_crossed_junctions(p, q, self._tau_minus_Q)

    def _over_crossed_junctions(self, p, q, factor):
        """The product of factor(k) over the junctions k at positions p..q-1,
        empty (1) unless p < q."""
        out = self.ring.one
        for k in filter(None, map(self.shape.junction, range(p, q))):
            out = out * factor(k)
        return out

    def psi_gr(self, p, q):
        """Rescaling of the graded isomorphism: the product of -Q_k^{-1}
        over the junctions crossed by strictly upper labels, else 1."""
        return self._over_crossed_junctions(p, q, lambda k: self.ring.Q(k, -1).scale(-1))


def upper_pairs(labels):
    """The pairs (a, b) of a sequence of labels with a at or before b, in
    the order of the product of labels with itself."""
    return ((a, b) for i, a in enumerate(labels) for b in labels[i:])


def _negatives(x, y):
    """Whether two zero-free term dicts sum to zero."""
    return len(x) == len(y) and all(y.get(k) == -c for k, c in x.items())


def _peel(label):
    """(g, inner) with E[label] = [g, E[inner]]: g the degree-zero step from
    p towards q, for a label with |p - q| >= 2."""
    p, q, t = label
    step = 1 if p < q else -1
    return (p, p + step, 0), (p + step, q, t)


# ---------------------------------------------------------------------------
# flat matrices over the coefficient ring


def mat_unit(lctx, i, j, coeff):
    """The matrix whose only entry is coeff (a MultiLaurent, int or Fraction)
    at (i, j)."""
    return {((i, j), k): c for k, c in lctx.ring.scalar_terms(coeff).items()}


def mat_image(lctx, x, image):
    """The matrix of the element x under the linear map that sends each
    basis label to the matrix ``image(label)``: the sum over the terms c L
    of x of c * image(L)."""
    origin, guard = lctx._origin, lctx._guard
    out = {}
    for (label, k), c in x.terms.items():
        _acc_scaled(out, image(label), k - origin, c, guard)
    return out


def mat_commutator(lctx, A, B):
    """A B - B A in one pass over the pairs of entries: (i, k) of A and
    (l, j) of B give a b at (i, j) when k == l, and -a b at (l, k) when
    j == i; a pair that meets both adds both.  The factors are images of
    basis elements, one (i, j) entry each, so a loop over all pairs costs
    less than indexing either factor by rows."""
    origin, guard = lctx._origin, lctx._guard
    out = {}
    for ((i, k), ka), a in A.items():
        ka -= origin
        for ((l, j), kb), b in B.items():
            if k != l and j != i:
                continue
            e = ka + kb
            if e & guard:
                raise _overflow()
            c = a * b
            if k == l:
                _acc_entry(out, ((i, j), e), c)
            if j == i:
                _acc_entry(out, ((l, k), e), -c)
    return out


def _acc_entry(out, entry, c):
    """Add c at ``entry`` of the zero-free matrix ``out``."""
    if entry in out:
        c += out[entry]
        if not c:
            del out[entry]
            return
    out[entry] = c if type(c) is int else _exact(c)


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


def jacobi_defect(lctx, a, b, c):
    origin, guard = lctx._origin, lctx._guard
    out = {}
    for x, z in (
        (lctx.bracket_basis(a, b), c),
        (lctx.bracket_basis(b, c), a),
        (lctx.bracket_basis(c, a), b),
    ):
        # one bracket_basis call per label of x, however many keys it carries
        brackets = {}
        for (lab, k), coeff in x.terms.items():
            br = brackets.get(lab)
            if br is None:
                br = brackets[lab] = lctx.bracket_basis(lab, z).terms
            _acc_scaled(out, br, k - origin, coeff, guard)
    return LieElem(lctx, out)
