"""Exact coefficient arithmetic.

Everything downstream computes over one commutative ring: sparse Laurent
polynomials in the variables q, Q_0, ..., Q_{r-1} with exact rational
coefficients.  A coefficient is stored as an ``int`` when it is integral and
as a ``Fraction`` otherwise, never as a ``float``.  Every structure constant
of the Hecke and Schur engines lies in Z[q^{+-1}, Q^{+-1}], so their
arithmetic runs on plain integers; a ``Fraction`` appears only for a value
that really is fractional (the V_tau matrices, a user-supplied rational).
The number of Q parameters is fixed per session by ``LaurentRing(r)``; the
q = 1 regime is the same ring built with ``q_one=True``, which pins the q
exponent to zero at construction time.

A monomial of the ring is one packed ``int`` key (see "packed exponent
keys" below), and this module is the only one that knows the slot layout:
``MultiLaurent.terms`` is keyed by it, ``LieElem``, the Lie matrices and
``SymPoly`` pair the keys of ``MultiLaurent`` as they are with a label or
x-exponents, operator words in ``schurops`` carry ``MultiLaurent.terms`` as
their coefficients, and ``hecke`` places a key above its L slots with one
shift.
Ring exponent tuples appear only at the edges: the constructor
``MultiLaurent(nvars, {tuple: c})``, ``sorted_terms``, ``ml_to_json`` and
``repr``.

The four flat element classes share one arithmetic: ``FlatElem`` gives
``is_zero``, ``==``, ``+``, unary ``-`` and ``-`` to ``MultiLaurent`` and,
through ``HeadTerms``, to the (head, key) elements of ``hecke``,
``liealg`` and ``symfun``, which also share ``scale``, ``grouped`` and
``sorted_terms`` there.  A scalar is read one way,
``LaurentRing.scalar_terms``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


def _exact(c):
    """The rational c as an int when it is integral, else as a Fraction.
    Anything but an int or a Fraction, a float among them, raises
    ``TypeError``."""
    if type(c) is not int:
        if type(c) is not Fraction:
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"a {type(c).__name__} is not an exact rational")
            c = Fraction(c)
        if c.denominator == 1:
            return c.numerator
    return c


def _div(a, b):
    """Exact quotient a / b of int or Fraction values; never int / int."""
    if type(a) is int and type(b) is int:
        quo, rem = divmod(a, b)
        if not rem:
            return quo
    return _exact(Fraction(a, b))


# ---------------------------------------------------------------------------
# packed exponent keys
#
# A monomial q^e Q_0^f_0 ... Q_{r-1}^f_{r-1} is one ``int`` key: each exponent
# has a 16-bit slot holding the exponent plus 8192, q in slot 0 and Q_k in
# slot k + 1, so every exponent lies in [-8192, 8191].  The two top bits of a
# slot are guard bits, clear in every valid key: a sum of two valid keys less
# the origin (the key of exponent zero) that leaves the range in some slot
# sets a guard bit there instead of carrying into the next slot, and the
# arithmetic raises ``EngineError`` for it.  A product of monomials is thus
# one key addition and one ``&`` per key formed.

# slot width, bias, slot mask and the two guard bits
_W = 16
_BIAS = 1 << (_W - 3)
_MASK = (1 << _W) - 1
_GUARD = 3 << (_W - 2)
# the largest exponent a key holds; the least is -_BIAS
EXP_MAX = _BIAS - 1


class EngineError(Exception):
    """An engine self-check failed: a fault in the algebra engine itself, not
    a failed verification."""


def _overflow():
    return EngineError(
        f"exponent outside the packed key range [{-_BIAS}, {EXP_MAX}]"
    )


@lru_cache(maxsize=None)
def _slots(value, count):
    """``value`` in each of the lowest ``count`` slots: the origin for
    ``_BIAS``, the guard mask for ``_GUARD``."""
    return sum(value << (_W * s) for s in range(count))


def _pack(exps, slot=0):
    """The key shift adding exps to consecutive slots from ``slot`` on."""
    delta = 0
    for s, e in enumerate(exps, slot):
        if not -_BIAS <= e < _BIAS:
            raise _overflow()
        delta += e << (_W * s)
    return delta


def _unpack(key, count):
    """The exponents in the lowest ``count`` slots of a packed key."""
    return tuple(((key >> (_W * s)) & _MASK) - _BIAS for s in range(count))


def _add_terms(a, b):
    """The sum of two zero-free flat term dicts, zero-free."""
    out = dict(a)
    for k, v in b.items():
        s = out.get(k)
        if s is None:
            out[k] = v
        else:
            s += v
            if s:
                out[k] = s if type(s) is int else _exact(s)
            else:
                del out[k]
    return out


def _acc_scaled(out, terms, shift, c, guard):
    """Add c * (terms keyed (head, key), each key plus shift) to the zero-free out."""
    for (head, key), v in terms.items():
        key += shift
        if key & guard:
            raise _overflow()
        k = (head, key)
        v *= c
        if k in out:
            v += out[k]
            if not v:
                del out[k]
                continue
        out[k] = v if type(v) is int else _exact(v)


def _mul_terms(a, b, nvars):
    """The product of two zero-free flat term dicts of ring elements in
    ``nvars`` variables, zero-free.  Each key formed is tested for a guard
    bit, so an exponent out of range raises ``EngineError``.  A unit factor
    gives back the other factor's dict itself, shared read-only as
    ``LaurentRing.one.terms`` is."""
    origin, guard = _slots(_BIAS, nvars), _slots(_GUARD, nvars)
    if len(a) == 1 and a.get(origin) == 1:
        return b
    if len(b) == 1 and b.get(origin) == 1:
        return a
    out = {}
    for e1, c1 in a.items():
        e1 -= origin
        for e2, c2 in b.items():
            e = e1 + e2
            if e & guard:
                raise _overflow()
            c = c1 * c2
            s = out.get(e)
            if s is not None:
                c += s
                if not c:
                    del out[e]
                    continue
            out[e] = c if type(c) is int else _exact(c)
    return out


def _clean(out):
    """The accumulated terms without zeros, integral Fractions as ints."""
    return {k: c if type(c) is int else _exact(c) for k, c in out.items() if c}


class FlatElem:
    """The arithmetic shared by the flat engine elements: ``MultiLaurent``,
    ``hecke.HeckeElem``, ``liealg.LieElem`` and ``symfun.SymPoly``.

    Each keeps its value in ``terms``, a zero-free dict with int or Fraction
    values, and names two hooks: ``_space``, the space its elements live in
    (the variable count of a ring element, the context of a Hecke or Lie
    element, the ring and variable count of a symmetric polynomial), and
    ``_like``, the element of that space with given zero-free terms.  Where
    the space is one slot, ``_space`` is that slot's descriptor under a
    second name, read as fast as the slot itself.
    Elements of different spaces are never equal, and adding or subtracting
    them raises ``ValueError``."""

    __slots__ = ()

    @property
    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.terms == other.terms and self._space == other._space

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if self._space != other._space:
            raise ValueError(f"{type(self).__name__} operands from different spaces")
        return self._like(_add_terms(self.terms, other.terms))

    def __neg__(self):
        return self._like({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)


class MultiLaurent(FlatElem):
    """Sparse Laurent polynomial with exact rational coefficients.

    ``terms`` maps packed keys (see "packed exponent keys") to nonzero
    coefficients: an ``int`` when the value is integral, a ``Fraction``
    otherwise, never a ``float``.  ``int`` and ``Fraction`` values compare and
    hash equal, so ``terms`` of equal polynomials are equal dicts.  The
    constructor takes exponent tuples ``(e_q, e_Q0, ..., e_Q{r-1})`` and
    ``sorted_terms`` gives them back.  Instances are immutable by convention:
    no method mutates ``terms`` after construction.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=()):
        origin = _slots(_BIAS, nvars)
        clean = {}
        items = terms.items() if hasattr(terms, "items") else terms
        for exps, coeff in items:
            exps = tuple(exps)
            if len(exps) != nvars:
                raise ValueError(f"exponent tuple {exps} has wrong arity (expected {nvars})")
            key = origin + _pack(exps)
            clean[key] = clean.get(key, 0) + _exact(coeff)
        self.nvars = nvars
        self.terms = _clean(clean)

    @classmethod
    def _make(cls, nvars, clean_terms):
        # internal fast path: clean_terms must already be zero-free
        self = object.__new__(cls)
        self.nvars = nvars
        self.terms = clean_terms
        return self

    def _like(self, terms):
        return MultiLaurent._make(self.nvars, terms)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, MultiLaurent):
            return NotImplemented
        if self.nvars != other.nvars:
            raise ValueError("mixed variable arities")
        return self._like(_mul_terms(self.terms, other.terms, self.nvars))

    def scale(self, c):
        c = _exact(c)
        return self._like({e: _exact(v * c) for e, v in self.terms.items()} if c else {})

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        result = self._like({_slots(_BIAS, self.nvars): 1})
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def sorted_terms(self):
        """The terms as (exponent tuple, coefficient) pairs in lexicographic
        exponent order, the canonical order of every report."""
        return sorted((_unpack(k, self.nvars), c) for k, c in self.terms.items())

    def __repr__(self):
        if not self.terms:
            return "0"
        names = ["q"] + [f"Q{i}" for i in range(self.nvars - 1)]
        parts = []
        for exps, coeff in self.sorted_terms():
            factors = [f"{names[i]}^{e}" for i, e in enumerate(exps) if e]
            mono = "*".join(factors) if factors else "1"
            parts.append(f"({coeff})*{mono}")
        return " + ".join(parts)


MultiLaurent._space = MultiLaurent.nvars


class HeadTerms(FlatElem):
    """A flat element keyed (head, key) over the ring ``ring``: the head a
    permutation, a basis label or an exponent tuple, and ``key`` the packed
    key of a ring monomial.  ``hecke.HeckeElem`` places its keys above its L
    slots, so it brings its own ``scale`` and ``grouped``."""

    __slots__ = ()

    def scale(self, coeff):
        """The element times a scalar of its ring (``LaurentRing.scalar_terms``)."""
        ring = self.ring
        out = {}
        for key, c in ring.scalar_terms(coeff).items():
            _acc_scaled(out, self.terms, key - ring.origin, c, ring.guard)
        return self._like(out)

    def grouped(self):
        """The terms as {head: MultiLaurent}."""
        out = {}
        for (head, key), c in self.terms.items():
            out.setdefault(head, {})[key] = c
        nvars = self.ring.nvars
        return {head: MultiLaurent._make(nvars, v) for head, v in out.items()}

    def sorted_terms(self):
        """The grouped terms in head order, the canonical order of every report."""
        return sorted(self.grouped().items())


class LaurentRing:
    """Factory for MultiLaurent values over q, Q_0, ..., Q_{r-1}.

    With ``q_one=True`` every q power collapses to 1 at construction, so the
    whole engine runs at the q = 1 specialization without a parallel code
    path.  ``origin`` is the packed key of 1 and ``guard`` the mask of the
    guard bits of every slot.
    """

    def __init__(self, r, q_one=False):
        if r < 1:
            raise ValueError("need r >= 1")
        self.r = r
        self.q_one = q_one
        self.nvars = r + 1
        self.origin = _slots(_BIAS, self.nvars)
        self.guard = _slots(_GUARD, self.nvars)
        self.zero = MultiLaurent._make(self.nvars, {})
        self.one = MultiLaurent._make(self.nvars, {self.origin: 1})
        self._qpow_cache = {}
        self._qint_cache = {}
        self._qfact_cache = {}
        self._phi_cache = {}  # symfun.phi by (t, k, sign)
        self._qq_comm = None

    def __eq__(self, other):
        return (
            isinstance(other, LaurentRing)
            and self.r == other.r
            and self.q_one == other.q_one
        )

    def __hash__(self):
        return hash((self.r, self.q_one))

    def __repr__(self):
        return f"LaurentRing(r={self.r}, q_one={self.q_one})"

    def from_fraction(self, a):
        return self.one.scale(a)

    def scalar_terms(self, c):
        """The flat terms of a scalar: a MultiLaurent in this ring's
        variables, or an int or Fraction through ``from_fraction``.  Any other
        value, an engine element among them, raises ``TypeError``."""
        if type(c) is not MultiLaurent:
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"a {type(c).__name__} is not a scalar of {self!r}")
            c = self.from_fraction(c)
        elif c.nvars != self.nvars:
            raise ValueError("mixed variable arities")
        return c.terms

    def q_pow(self, e):
        if self.q_one or e == 0:
            return self.one
        cached = self._qpow_cache.get(e)
        if cached is None:
            cached = MultiLaurent._make(self.nvars, {self.origin + _pack((e,)): 1})
            self._qpow_cache[e] = cached
        return cached

    @property
    def q(self):
        return self.q_pow(1)

    @property
    def qinv(self):
        return self.q_pow(-1)

    def Q(self, k, e=1):
        """The parameter Q_k, 0 <= k <= r-1, raised to the power e."""
        if not 0 <= k < self.r:
            raise ValueError(f"Q_{k} not in this ring (r={self.r})")
        return MultiLaurent._make(self.nvars, {self.origin + _pack((e,), k + 1): 1})

    def qq_comm(self):
        """The ubiquitous factor q - q^{-1} (zero at q = 1), built once per ring."""
        if self._qq_comm is None:
            self._qq_comm = self.q_pow(1) - self.q_pow(-1)
        return self._qq_comm


def qint(d, ring):
    """Gauss integer [d] = (q^d - q^{-d}) / (q - q^{-1}) as a Laurent polynomial."""
    cached = ring._qint_cache.get(d)
    if cached is not None:
        return cached
    a = abs(d)
    out = ring.zero
    for j in range(a):
        out = out + ring.q_pow(a - 1 - 2 * j)
    if d < 0:
        out = -out
    ring._qint_cache[d] = out
    return out


def qfactorial(d, ring):
    """[d]! = [d][d-1]...[1] with [0]! = 1; requires d >= 0."""
    if d < 0:
        raise ValueError("q-factorial needs d >= 0")
    cached = ring._qfact_cache.get(d)
    if cached is not None:
        return cached
    out = ring.one
    for j in range(1, d + 1):
        out = out * qint(j, ring)
    ring._qfact_cache[d] = out
    return out


def _divexact_univariate(a, b):
    """The quotient a / b of univariate Laurent polynomials given as
    exp->coeff dicts, b nonzero, or None when the division leaves a
    remainder.  A coefficient quotient is taken by ``_div``: an int when it
    is integral, else a Fraction, never a float."""
    sa = min(a)
    sb = min(b)
    # shift to ordinary polynomials
    pa = {e - sa: c for e, c in a.items()}
    pb = {e - sb: c for e, c in b.items()}
    db = max(pb)
    lead_b = pb[db]
    quo = {}
    rem = dict(pa)
    while rem:
        deg = max(rem)
        if deg < db:
            return None
        qc = _div(rem[deg], lead_b)
        quo[deg - db] = qc
        for e, c in pb.items():
            k = deg - db + e
            s = rem.get(k, 0) - qc * c
            if s:
                rem[k] = s
            elif k in rem:
                del rem[k]
    return {e + sa - sb: c for e, c in quo.items()}


def ml_to_json(p):
    """Canonical JSON form: term list in lexicographic exponent order."""
    return [
        {"exponents": list(exps), "num": str(c.numerator), "den": str(c.denominator)}
        for exps, c in p.sorted_terms()
    ]
