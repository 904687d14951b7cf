"""Coefficient-ring helpers that only the tests use: building a monomial of a
``LaurentRing`` and evaluating a ``MultiLaurent`` at a rational point.  They
read and build ring elements through exponent tuples only, the public edge
of ``coeff``."""

from fractions import Fraction

from cycloschur.coeff import MultiLaurent


class CoeffError(ArithmeticError):
    """A missing or zero specialization value, or a similar misuse."""


def monomial(ring, exps, coeff=1):
    """coeff * q^e Q_0^f_0 ... Q_{r-1}^f_{r-1} in ``ring``, for exps =
    (e, f_0, ..., f_{r-1}); a ring at q = 1 drops the q exponent."""
    exps = tuple(exps)
    if ring.q_one:
        exps = (0,) + exps[1:]
    return MultiLaurent(ring.nvars, {exps: coeff})


def specialize(p, assignment):
    """Exact evaluation of p at nonzero rational values of its variables.

    ``assignment`` maps variable names ("q", "Q0", ..., "Q{r-1}") or variable
    indices to rationals.  Every variable actually occurring in p must be
    assigned; a zero value is rejected for variables occurring with negative
    exponent.
    """
    values = [None] * p.nvars
    for key, val in assignment.items():
        if isinstance(key, str):
            if key == "q":
                idx = 0
            elif key.startswith("Q"):
                idx = 1 + int(key[1:])
            else:
                raise CoeffError(f"unknown variable {key!r}")
        else:
            idx = key
        if not 0 <= idx < p.nvars:
            raise CoeffError(f"variable index {idx} out of range")
        values[idx] = Fraction(val)
    total = Fraction(0)
    for exps, coeff in p.sorted_terms():
        term = coeff
        for i, e in enumerate(exps):
            if e == 0:
                continue
            v = values[i]
            if v is None:
                raise CoeffError(f"no value assigned to variable {i}")
            if v == 0 and e < 0:
                raise CoeffError("zero value for a variable with negative exponent")
            term *= v ** e
        total += term
    return total
