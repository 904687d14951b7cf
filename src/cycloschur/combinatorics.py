"""Index sets and tableau combinatorics.

Gamma(m) row/component indices and their linearization, multicompositions
and multipartitions, semistandard multitableaux, node residues,
Jucys-Murphy positions, and Littlewood-Richardson coefficients (computed by
the lattice-word rule; the Schur-expansion cross-check lives in
``suites.symfun``).

Conventions: a multicomposition is a tuple of r tuples, component k padded
to exactly m_k entries.  A multipartition used as a tableau shape keeps its
rows as given (trailing zeros stripped), because shapes in the extended set
may be longer than m_k.
"""

from __future__ import annotations

import itertools
from functools import lru_cache


class Shape:
    """The tuple m = (m_1, ..., m_r) of block sizes.  The gamma
    linearization numbers the node (i, k) m_1 + ... + m_{k-1} + i, a
    bijection onto 1..m, and ``node`` inverts it.  Immutable; equal and
    hashed by m."""

    def __init__(self, m):
        m = tuple(m)
        if not m or any(mk < 1 for mk in m):
            raise ValueError("every m_k must be a positive integer")
        object.__setattr__(self, "m", m)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.m == other.m

    def __hash__(self):
        return hash(self.m)

    def __repr__(self):
        return f"Shape(m={self.m!r})"

    @property
    def r(self):
        return len(self.m)

    @property
    def total(self):
        return sum(self.m)

    def node(self, pos):
        """The node (i, k) at position pos of the gamma linearization."""
        if not 1 <= pos <= self.total:
            raise ValueError(f"position {pos} out of range")
        k = 1
        while pos > self.m[k - 1]:
            pos -= self.m[k - 1]
            k += 1
        return (pos, k)

    def junction(self, pos):
        """If position pos is the last row of component k with k < r, return k; else None."""
        acc = 0
        for k, mk in enumerate(self.m[:-1], start=1):
            acc += mk
            if pos == acc:
                return k
        return None

    def block(self, k):
        """Half-open range of 0-based variable slots belonging to component k."""
        start = sum(self.m[: k - 1])
        return range(start, start + self.m[k - 1])

    def positions(self):
        return range(1, self.total + 1)


def compositions_of(n, parts):
    """All tuples of `parts` nonnegative integers summing to n, lexicographically."""
    if parts == 0:
        if n == 0:
            yield ()
        return
    if parts == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in compositions_of(n - first, parts - 1):
            yield (first,) + rest


def enumerate_compositions(n, shape):
    """The set Lambda_{n,r}(m) of multicompositions of n, in a fixed order."""
    out = []
    for flat in compositions_of(n, shape.total):
        out.append(unflatten(flat, shape))
    return out


def flatten(mu):
    """Concatenate the components of a multicomposition into one tuple."""
    return tuple(itertools.chain.from_iterable(mu))


def unflatten(flat, shape):
    mu = []
    pos = 0
    for mk in shape.m:
        mu.append(tuple(flat[pos : pos + mk]))
        pos += mk
    return tuple(mu)


def partitions_of(n, max_len=None):
    """Partitions of n, largest part first, in lexicographically decreasing order."""
    if max_len is None:
        max_len = n

    def rec(remaining, bound, slots):
        if remaining == 0:
            yield ()
            return
        if slots == 0:
            return
        for first in range(min(remaining, bound), 0, -1):
            for rest in rec(remaining - first, first, slots - 1):
                yield (first,) + rest

    return list(rec(n, n, max_len))


def strip(partition):
    """Canonical partition form: drop trailing zeros."""
    p = tuple(partition)
    while p and p[-1] == 0:
        p = p[:-1]
    return p


@lru_cache(maxsize=None)
def enumerate_multipartitions(n, shape):
    """The extended set of multipartitions of n, whose component lengths are
    bounded by (n, ..., n, m_r), the index set of the Weyl characters; a
    tuple, built once per n and shape."""
    bounds = [n] * (shape.r - 1) + [shape.m[-1]]
    out = []
    for sizes in compositions_of(n, shape.r):
        pools = [partitions_of(nk, max_len=bounds[k]) for k, nk in enumerate(sizes)]
        out.extend(itertools.product(*pools))
    return tuple(out)


def size(lam):
    return sum(sum(part) for part in lam)


def residue(node, ring):
    """res((i,j,k)) = q^{2(j-i)} Q_{k-1}."""
    i, j, k = node
    return ring.q_pow(2 * (j - i)) * ring.Q(k - 1)


def jm_position(mu, node, shape):
    """N^mu_{(j,l)} = |mu^{(1)}| + ... + |mu^{(l-1)}| + mu^{(l)}_1 + ... + mu^{(l)}_j."""
    j, l = node
    if not (1 <= l <= shape.r and 1 <= j <= shape.m[l - 1]):
        raise ValueError(f"node {node} not in Gamma({shape.m})")
    return sum(sum(mu[c]) for c in range(l - 1)) + sum(mu[l - 1][:j])


def diagram(lam):
    """Nodes (i, j, k) of the multipartition diagram, component-major row order."""
    nodes = []
    for k, part in enumerate(lam, start=1):
        for i, row in enumerate(part, start=1):
            for j in range(1, row + 1):
                nodes.append((i, j, k))
    return nodes


def _entry_pool(shape, min_component):
    """All admissible entries (a, c) with c >= min_component, in increasing order."""
    pool = []
    for c in range(min_component, shape.r + 1):
        for a in range(1, shape.m[c - 1] + 1):
            pool.append((a, c))
    return pool


def semistandard_tableaux(lam, shape, weight=None):
    """All semistandard tableaux of shape lam, optionally restricted to a weight.

    A tableau is returned as a tuple (per component) of tuples of rows, each
    row a tuple of entries (a, c).  Entries are ordered by (c, a); rows must
    weakly increase, columns strictly increase, and a node in component k may
    only hold entries with c >= k.
    """
    lam = tuple(strip(p) for p in lam)
    counts = {}
    if weight is not None:
        for k in range(shape.r):
            for i, v in enumerate(weight[k]):
                if v:
                    counts[(i + 1, k + 1)] = v
        if sum(counts.values()) != size(lam):
            return []

    results = []
    # rows[k][i] is the partially filled row; fill component-major, row-major
    cells = diagram(lam)
    filled = {}
    remaining = dict(counts)

    def entry_ok(cell, entry):
        i, j, k = cell
        a, c = entry
        if c < k:
            return False
        if weight is not None and remaining.get(entry, 0) <= 0:
            return False
        if j > 1:
            left = filled[(i, j - 1, k)]
            if (entry[1], entry[0]) < (left[1], left[0]):
                return False
        if i > 1 and (i - 1, j, k) in filled:
            up = filled[(i - 1, j, k)]
            if (entry[1], entry[0]) <= (up[1], up[0]):
                return False
        return True

    pool_by_component = {k: _entry_pool(shape, k) for k in range(1, shape.r + 1)}

    def rec(idx):
        if idx == len(cells):
            results.append(_freeze_tableau(lam, filled))
            return
        cell = cells[idx]
        for entry in pool_by_component[cell[2]]:
            if entry_ok(cell, entry):
                filled[cell] = entry
                if weight is not None:
                    remaining[entry] = remaining.get(entry, 0) - 1
                rec(idx + 1)
                del filled[cell]
                if weight is not None:
                    remaining[entry] += 1

    rec(0)
    return results


def _freeze_tableau(lam, filled):
    return tuple(
        tuple(
            tuple(filled[(i + 1, j + 1, k + 1)] for j in range(row))
            for i, row in enumerate(part)
        )
        for k, part in enumerate(lam)
    )


def tableau_weight(tab, shape):
    """The multicomposition counting occurrences of each entry."""
    counts = [[0] * mk for mk in shape.m]
    for comp in tab:
        for row in comp:
            for (a, c) in row:
                counts[c - 1][a - 1] += 1
    return tuple(tuple(row) for row in counts)


def tableau_to_json(lam, tab):
    """Node -> entry list in row-major order per component."""
    out = []
    for k, comp in enumerate(tab, start=1):
        for i, row in enumerate(comp, start=1):
            for j, (a, c) in enumerate(row, start=1):
                out.append({"node": [i, j, k], "entry": [a, c]})
    return out


@lru_cache(maxsize=None)
def _lr_single(lam, mu, nu):
    """Littlewood-Richardson coefficient for partitions via the lattice-word rule:
    the number of semistandard skew tableaux of shape nu/lam and weight mu whose
    reverse reading word is a lattice word."""
    lam, mu, nu = strip(lam), strip(mu), strip(nu)
    if sum(nu) != sum(lam) + sum(mu):
        return 0
    rows = len(nu)
    lam_pad = lam + (0,) * (rows - len(lam))
    if len(lam) > rows or any(lam_pad[i] > nu[i] for i in range(rows)):
        return 0
    if not mu:
        return 1 if lam == nu else 0

    cells = []
    for i in range(rows):
        for j in range(lam_pad[i], nu[i]):
            cells.append((i, j))
    nmu = len(mu)
    fill = {}
    remaining = list(mu)
    count = 0

    def rec(idx):
        nonlocal count
        if idx == len(cells):
            if _is_lattice(cells, fill, nmu):
                count += 1
            return
        i, j = cells[idx]
        for v in range(1, nmu + 1):
            if remaining[v - 1] == 0:
                continue
            if (i, j - 1) in fill and fill[(i, j - 1)] > v:
                continue
            if (i - 1, j) in fill and fill[(i - 1, j)] >= v:
                continue
            # column-strict also against the fixed lam part: cells above inside
            # lam have no entry, which imposes nothing
            fill[(i, j)] = v
            remaining[v - 1] -= 1
            rec(idx + 1)
            remaining[v - 1] += 1
            del fill[(i, j)]

    rec(0)
    return count


def _is_lattice(cells, fill, nmu):
    seen = [0] * (nmu + 1)
    # reverse reading word: each row right to left, rows top to bottom
    for i, j in sorted(cells, key=lambda c: (c[0], -c[1])):
        v = fill[(i, j)]
        seen[v] += 1
        if v > 1 and seen[v] > seen[v - 1]:
            return False
    return True


def lr_coefficient(lam, mu, nu):
    """Product over components of classical LR coefficients.

    All three arguments are multipartitions with the same number of
    components; the result is 0 unless |nu^{(k)}| = |lam^{(k)}| + |mu^{(k)}|
    for every k.
    """
    if not (len(lam) == len(mu) == len(nu)):
        raise ValueError("component count mismatch")
    out = 1
    for lk, mk, nk in zip(lam, mu, nu):
        out *= _lr_single(strip(lk), strip(mk), strip(nk))
        if out == 0:
            return 0
    return out
