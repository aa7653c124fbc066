"""Sparse exterior algebra over R^n with the standard orthonormal metric.

Forms are stored as maps from strictly increasing 1-based multi-indices to
real coefficients.  The coefficient of a permuted tuple is sign * stored
coefficient; repeated indices give 0.  Orientation is fixed once and for
all by declaring e^1 ^ ... ^ e^n the positive volume form.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import re

import numpy as np

__all__ = [
    "AltForm",
    "SkewMap",
    "wedge",
    "hodge_star",
    "interior",
    "evaluate",
    "so_action",
    "so_action_matrix",
    "form_inner",
    "canonical_indices",
    "first_jet",
    "stack_values",
    "sort_index",
    "parse_form",
    "format_form",
    "form_to_json",
    "form_from_json",
]

DEFAULT_TOL = 1e-9
# floats (256 KB) that first_jet holds at once in any one block array: its
# sub-minor table, determinant terms, minors M, gradients V or replacements
_MINOR_BLOCK = 1 << 15


def sort_index(idx):
    """Sort a multi-index tuple, returning (sign, sorted tuple).

    sign is the parity of the sorting permutation's inversions, or 0 on repeats.
    """
    key = tuple(sorted(idx))
    if len(set(key)) < len(key):
        return 0, key
    return (-1) ** sum(itertools.starmap(operator.gt, itertools.combinations(idx, 2))), key


def canonical_indices(n, p):
    """All strictly increasing 1-based multi-indices of length p in {1..n}."""
    return list(itertools.combinations(range(1, n + 1), p))


@functools.lru_cache(maxsize=64)
def _index_table(n, p):
    """canonical_indices(n, p) as a (C(n, p), p) array of 0-based indices, read-only as the cache shares it."""
    idx = np.array(canonical_indices(n, p), dtype=np.intp).reshape(math.comb(n, p), p) - 1
    idx.flags.writeable = False
    return idx


class AltForm:
    """A degree-p alternating form on R^n, stored sparsely.

    coeffs maps strictly increasing 1-based index tuples to floats.
    Instances are treated as immutable; all operations return new forms.
    """

    __slots__ = ("n", "p", "coeffs", "_cache")

    def __init__(self, n, p, coeffs=None):
        if n < 0 or p < 0 or p > n:
            raise ValueError(f"invalid degree p={p} for dimension n={n}")
        self.n = int(n)
        self.p = int(p)
        clean = {}
        if coeffs:
            for idx, c in coeffs.items():
                idx = tuple(int(i) for i in idx)
                if len(idx) != p:
                    raise ValueError(f"index {idx} has length != {p}")
                if any(i < 1 or i > n for i in idx):
                    raise ValueError(f"index {idx} out of range 1..{n}")
                if any(a >= b for a, b in zip(idx, idx[1:])):
                    raise ValueError(f"index {idx} is not strictly increasing")
                c = float(c)
                if c != 0.0:
                    clean[idx] = clean.get(idx, 0.0) + c
        self.coeffs = clean
        self._cache = {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n, p):
        return cls(n, p)

    @classmethod
    def basis(cls, n, *idx):
        """The basis form e^{i1} ^ ... ^ e^{ip} (indices 1-based, increasing)."""
        return cls(n, len(idx), {tuple(idx): 1.0})

    @classmethod
    def constant(cls, n, value=1.0):
        return cls(n, 0, {(): value})

    @classmethod
    def volume(cls, n):
        return cls(n, n, {tuple(range(1, n + 1)): 1.0})

    @classmethod
    def from_terms(cls, n, p, terms):
        """Build from (index, coefficient) pairs; indices may be unsorted."""
        coeffs = {}
        for idx, c in terms:
            sign, key = sort_index(idx)
            if sign == 0:
                continue
            coeffs[key] = coeffs.get(key, 0.0) + sign * c
        return cls(n, p, coeffs)

    @classmethod
    def from_dense(cls, n, p, vec):
        idxs = canonical_indices(n, p)
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (len(idxs),):
            raise ValueError("dense vector has wrong length")
        return cls(n, p, {I: v for I, v in zip(idxs, vec) if v != 0.0})

    # -- coefficient access ------------------------------------------------

    def coefficient(self, idx):
        """Coefficient of an arbitrary index tuple, with the sign rule."""
        sign, key = sort_index(idx)
        if sign == 0:
            return 0.0
        return sign * self.coeffs.get(key, 0.0)

    def dense(self):
        """Coefficient vector over canonical_indices(n, p)."""
        idx0, c = self._compact()
        out = np.zeros(math.comb(self.n, self.p))
        out[_lex_rank(idx0, self.n)] = c
        return out

    def _compact(self):
        """(0-based index array of shape (t, p), coefficient array of shape (t,))."""
        cached = self._cache.get("compact")
        if cached is None:
            items = sorted(self.coeffs.items())
            idx = np.array([I for I, _ in items], dtype=np.intp).reshape(len(items), self.p)
            c = np.array([v for _, v in items])
            cached = (idx - 1, c)
            self._cache["compact"] = cached
        return cached

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        self._check_match(other)
        coeffs = dict(self.coeffs)
        for idx, c in other.coeffs.items():
            coeffs[idx] = coeffs.get(idx, 0.0) + c
        return AltForm(self.n, self.p, coeffs)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __neg__(self):
        return (-1.0) * self

    def __mul__(self, scalar):
        scalar = float(scalar)
        return AltForm(self.n, self.p, {I: scalar * c for I, c in self.coeffs.items()})

    __rmul__ = __mul__

    def norm(self):
        return float(np.sqrt(sum(c * c for c in self.coeffs.values())))

    def approx_eq(self, other, tol=DEFAULT_TOL):
        if self.n != other.n or self.p != other.p:
            return False
        return (self - other).norm() <= tol

    def _check_match(self, other):
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} != {other.n}")
        if self.p != other.p:
            raise ValueError(f"degree mismatch: {self.p} != {other.p}")

    # -- evaluation --------------------------------------------------------

    def apply(self, vectors):
        """Evaluate on p vectors, given as an n x p array of columns."""
        m = np.asarray(vectors, dtype=float)
        if m.ndim != 2 or m.shape != (self.n, self.p):
            raise ValueError(f"expected an {self.n} x {self.p} array of columns")
        idx, c = self._compact()
        return float(stack_values(c, idx, m[None])[0])

    def __repr__(self):
        return f"AltForm(n={self.n}, p={self.p}, coeffs={dict(sorted(self.coeffs.items()))!r})"


class SkewMap:
    """An element of o(n), stored as a full skew-symmetric n x n array."""

    __slots__ = ("n", "entries")

    def __init__(self, entries):
        m = np.asarray(entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("SkewMap requires a square array")
        if not np.allclose(m, -m.T, atol=1e-12):
            raise ValueError("SkewMap requires a skew-symmetric array")
        self.n = m.shape[0]
        self.entries = 0.5 * (m - m.T)

    @classmethod
    def rotation_generator(cls, n, i, j):
        """The generator e_i (x) e^j - e_j (x) e^i (1-based), mapping e_j -> e_i."""
        m = np.zeros((n, n))
        m[i - 1, j - 1] = 1.0
        m[j - 1, i - 1] = -1.0
        return cls(m)

    def __repr__(self):
        return f"SkewMap(n={self.n})"


def _as_skew_matrix(theta):
    if isinstance(theta, SkewMap):
        return theta.entries
    m = np.asarray(theta, dtype=float)
    if not np.allclose(m, -m.T, atol=1e-10):
        raise ValueError("expected a skew-symmetric matrix")
    return m


# -- operations ------------------------------------------------------------


def wedge(a, b):
    """Exterior product of two forms on the same R^n."""
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} != {b.n}")
    p, q = a.p, b.p
    if p + q > a.n:
        raise ValueError(f"no degree-{p + q} forms exist on R^{a.n}")
    coeffs = {}
    for I, ca in a.coeffs.items():
        for J, cb in b.coeffs.items():
            sign, key = sort_index(I + J)
            if sign == 0:
                continue
            coeffs[key] = coeffs.get(key, 0.0) + sign * ca * cb
    return AltForm(a.n, p + q, coeffs)


def hodge_star(a):
    """Hodge star with respect to the standard metric and orientation."""
    idx0, c = a._compact()
    sign, comp = _star(idx0, a.n)
    return AltForm(a.n, a.n - a.p, dict(zip(map(tuple, (comp + 1).tolist()), (c * sign).tolist())))


def interior(v, a):
    """Interior product v -| a; (v -| a)(w2..wp) = a(v, w2, .., wp)."""
    v = np.asarray(v, dtype=float)
    if v.shape != (a.n,):
        raise ValueError(f"vector has wrong dimension (expected {a.n})")
    if a.p == 0:
        raise ValueError("interior product of a degree-0 form is undefined")
    coeffs = {}
    for I, c in a.coeffs.items():
        for pos, i in enumerate(I):
            vi = v[i - 1]
            if vi == 0.0:
                continue
            key = I[:pos] + I[pos + 1 :]
            coeffs[key] = coeffs.get(key, 0.0) + ((-1.0) ** pos) * c * vi
    return AltForm(a.n, a.p - 1, coeffs)


def evaluate(a, xi):
    """Evaluate a p-form on an oriented p-plane (or a raw n x p frame)."""
    frame = getattr(xi, "frame", xi)
    frame = np.asarray(frame, dtype=float)
    if frame.shape[1] != a.p:
        raise ValueError(f"degree {a.p} form evaluated on a {frame.shape[1]}-plane")
    return a.apply(frame)


def _action_entries(a):
    """(generators, indices, values) of the nonzero entries of so_action_matrix(a), one per position.

    A term c e^I feeds the index I with one slot i replaced by some j not in
    I, in the row of the pair {i, j}.  For a fixed pair each index is fed by
    at most one term, so no two entries share a position and each is exactly
    +-c.  The entries run over (term, slot, j) in order, each a few array
    operations over all of them.
    """
    n, p = a.n, a.p
    idx, c = a._compact()
    t, k, slots = len(c), n - p, np.arange(p)
    free = np.ones((t, n), dtype=bool)
    free[np.arange(t)[:, None], idx] = False
    j = np.nonzero(free)[1].reshape(t, 1, k)  # the k indices not in I, increasing
    i = idx[:, :, None]  # slot pos holds i
    # j - (j's place among the free indices) terms of I lie below j, so j moves
    # from slot pos to its sorted slot in pos - that + 1 transpositions, whether
    # i < j or i > j; theta[i, j] is +1 in the row of the pair (i, j) and -1 in
    # that of (j, i)
    values = np.where((slots[:, None] + j - np.arange(k)) & 1, c[:, None, None], -c[:, None, None])
    # the pair (lo, hi)'s position in itertools.combinations(range(n), 2)
    lo = np.minimum(i, j)
    gens = lo * (2 * n - 3 - lo) // 2 + np.maximum(i, j) - 1
    # each new index is I with slot pos replaced by j, sorted
    new = np.empty((t, p, k, p), dtype=np.intp)
    new[...] = idx[:, None, None, :]
    new[:, slots, :, slots] = j[None, :, 0]
    new.sort(axis=3)
    return gens.ravel(), _lex_rank(new.reshape(t * p * k, p), n), values.ravel()


def so_action_matrix(a):
    """Matrix of o(n) -> degree-p forms, theta -> theta.a, over canonical_indices(n, p).

    Row r is E.a for the r-th pair (i, j) of itertools.combinations(range(n), 2),
    where E maps e_j -> e_i and e_i -> -e_j; its nonzero entries are _action_entries(a).
    """
    mat = np.zeros((a.n * (a.n - 1) // 2, math.comb(a.n, a.p)))
    gens, cols, values = _action_entries(a)
    mat[gens, cols] = values
    return mat


@functools.lru_cache(maxsize=64)
def _binomials(n, p):
    """weight[x p + q] = C(n - 1 - x, p - q) for x < n, q < p: _lex_rank's table, read-only as the cache shares it."""
    weight = np.array([math.comb(n - 1 - x, p - q) for x in range(n) for q in range(p)], dtype=np.intp)
    weight.flags.writeable = False
    return weight


def _lex_rank(idx, n):
    """Positions of increasing 0-based index rows in canonical_indices(n, p).

    The position is C(n, p) - 1 - sum_q C(n - 1 - idx_q, p - q).
    """
    p = idx.shape[1]
    # a product with ones sums the short rows faster than sum(axis=1)
    return math.comb(n, p) - 1 - _binomials(n, p).take(idx * p + np.arange(p)) @ np.ones(p, dtype=np.intp)


def so_action(theta, a):
    """Action of theta in o(n) on a form, the paper's map P: (theta.a)(v1..vp) = sum_i a(.., theta v_i, ..)."""
    m = _as_skew_matrix(theta)
    if m.shape[0] != a.n:
        raise ValueError(f"dimension mismatch: {m.shape[0]} != {a.n}")
    # theta = sum over i < j of theta[i, j] times the generator of (i, j)
    return AltForm.from_dense(a.n, a.p, m[np.triu_indices(a.n, 1)] @ so_action_matrix(a))


def form_inner(a, b):
    """Inner product on degree-p forms induced by the orthonormal metric."""
    a._check_match(b)
    return float(sum(c * b.coeffs.get(I, 0.0) for I, c in a.coeffs.items()))


@functools.lru_cache(maxsize=128)
def _minor_plan(n, t, p, key, jet):
    """How first_jet fills one frame's sub-minor table for the t rows of idx0 (key: their bytes).

    A frame F's table holds, in order, the entry 1 (the 0 x 0 sub-minor),
    F and -F flattened (the 1 x 1 sub-minors and their negatives), then,
    level by level for j = 2 .. p - 1, each sub-minor M[C, R] = det F[R, C]
    (C a column set, R a row tuple, |C| = |R| = j) that the support needs,
    expanded along C's last column:
        M[C, R] = sum_i (-1)^(i + j - 1) F[R_i, C[-1]] M[C - C[-1], R - R_i].
    det I = sum_r (-1)^r F[I_r, 0] M[cols - 0, I - I_r]; the jet needs
    M[cols - b, J] for every column b and row tuple J = I - I_r.  Returns
    (size, levels, dets, grad): each level is (offset, f, g), whose E
    entries are the sums over the rows of the products of table[f] and
    table[g] (both (j, E)); dets is the (f, g) pair of the t determinants;
    grad (jet only) is (at, jinv): at (p, S), the table positions of the
    p x S matrix M[cols - b, J] over the S tuples J as np.unique sorts them,
    and jinv (t, p), the J of each (I, r).
    """
    idx = np.frombuffer(key, dtype=np.intp).reshape(t, p)
    if idx.size and not 0 <= idx.min() <= idx.max() < n:
        raise IndexError(f"minor rows must lie in 0..{n - 1}")
    rows = list(map(tuple, idx.tolist()))
    cols = tuple(range(p))
    drop = lambda tup, i: tup[:i] + tup[i + 1 :]  # noqa: E731

    def entry(r, c, sign):  # position of sign * F[r, c]
        return 1 + (sign < 0) * n * p + r * p + c

    pos = {((), ()): 0}
    pos.update({((c,), (r,)): entry(r, c, 1) for r in range(n) for c in range(p)})
    needed = {p - 1: {(drop(cols, b), drop(I, r)) for I in rows for r in range(p) for b in range(p if jet else 1)}}
    for j in range(p - 1, 2, -1):
        needed[j - 1] = {(C[:-1], drop(R, i)) for C, R in needed[j] for i in range(j)}
    size, levels = 1 + 2 * n * p, []
    for j in range(2, p):
        level = sorted(needed[j])
        f = [[entry(R[i], C[-1], (-1) ** (i + j - 1)) for C, R in level] for i in range(j)]
        g = [[pos[C[:-1], drop(R, i)] for C, R in level] for i in range(j)]
        levels.append((size, np.array(f, dtype=np.intp), np.array(g, dtype=np.intp)))
        pos.update(zip(level, range(size, size + len(level))))
        size += len(level)
    # a 0 x 0 minor has det 1 = 1 * 1
    f = [[entry(I[r], 0, (-1) ** r) for I in rows] for r in range(p)] if p else [[0] * t]
    g = [[pos[cols[1:], drop(I, r)] for I in rows] for r in range(p)] if p else [[0] * t]
    dets = tuple(np.array(x, dtype=np.intp).reshape(max(p, 1), t) for x in (f, g))
    grad = None
    if jet:
        kept = np.nonzero(~np.eye(p, dtype=bool))[1].reshape(p, p - 1)  # row r: every column but r
        tuples, jinv = np.unique(idx[:, kept].reshape(t * p, p - 1), axis=0, return_inverse=True)
        s, b = len(tuples), np.arange(p)[:, None]
        at = np.zeros((1, s), dtype=np.intp)  # p = 1: the 0 x 0 minor
        if p == 2:  # M[(1 - b,), J] = F[J_0, 1 - b]
            at = 1 + tuples.T * p + 1 - b
        elif p > 2:  # the last level holds every (cols - b, J), sorted: b = p - 1 .. 0, then J
            at = size - (b + 1) * s + np.arange(s)
        grad = (at, jinv.reshape(t, p))
    for arr in [a for level in levels for a in level[1:]] + list(dets) + list(grad or ()):
        arr.flags.writeable = False  # shared by every caller through the cache
    return size, levels, dets, grad


def _bipartite_labels(left, right, n_left, n_right):
    """Connected components of the bipartite graph with the edges (left[e], right[e]).

    Returns the labels (n_left,) and (n_right,) of the two sides' nodes: a
    node's label is the least right node of its component, n_right for a node
    without edges.  Each right node takes the least label among the right
    nodes it shares a left node with, until the labels settle.
    """
    label = np.where(np.bincount(right, minlength=n_right) > 0, np.arange(n_right), n_right)
    while True:
        row, new = np.full(n_left, n_right), np.full(n_right, n_right)
        np.minimum.at(row, left, label[right])
        np.minimum.at(new, right, row[left])
        if np.array_equal(new, label):
            return row, label
        label = new


def _places(label, ids):
    """(block, place, counts): each node's block, the rank of its label in ids; its rank among that block's nodes; each block's count."""
    block = np.searchsorted(ids, label)
    order = np.argsort(block, kind="stable")
    counts = np.bincount(block, minlength=len(ids))
    place = np.empty_like(order)
    place[order] = np.arange(len(order)) - np.repeat(np.cumsum(counts) - counts, counts)
    return block, place, counts


@functools.lru_cache(maxsize=32)
def _gradients(n, t, p, key, shapes, coeffs):
    """Gamma (S, R n) of first_jet's groups (shapes, coefficient bytes) over the t p-indices idx0 (key), by blocks.

    Gamma[J, (l, i)] sums (-1)^r c_{l, I} over the (I, r) with I - I_r = J
    and I_r = i; on increasing rows that is one term.  Its nonzero pattern
    falls apart into connected blocks, the (p - 1)-tuples J against the
    (form, direction) columns (l, i) they reach: su(4)'s [phi; module] into
    16 of at most 7 x 88, 8,804 entries against the dense 105 x 1,365, and
    su(5)'s into 32 of at most 10 x 203 against 276 x 6,072.  The blocks
    are labelled on the (J, l, i) triplets alone, so no dense Gamma is
    built.  Returns (gamma, at, sign, back):
    gamma (K, rows, cols), the blocks padded with zeros, each with at least
    one zero column; at and sign (K p rows,), the sub-minor table positions
    and signs of each block's p x rows signed minors (-1)^b M[cols - b, J]
    (a padded row gathers 0); back (R p n,), the place in the (K, p, cols)
    products of each V[l, b, i], block 0's last zero entry where (l, i) is
    in no block.  The cache holds a search's two (phi and [phi; module])
    for seven families.
    """
    at, jinv = _minor_plan(n, t, p, key, True)[3]
    s = at.shape[1]
    idx = np.frombuffer(key, dtype=np.intp).reshape(t, p)
    # the form l and index row q of each coefficient, group by group
    ell, q, row, col = [], [], 0, 0
    for blocks, r, c in shapes:
        block, form, term = np.indices((blocks, r, c)).reshape(3, -1)
        ell.append(row + block * r + form)
        q.append(col + block * c + term)
        row, col = row + blocks * r, col + blocks * c
    coeffs = np.frombuffer(coeffs)
    live = coeffs != 0.0
    ell, q = np.concatenate(ell)[live], np.concatenate(q)[live]
    # the (J, l n + i) of each (I, r); a repeated one sums in the order of the terms
    pairs, inv = np.unique(((jinv[q] * row + ell[:, None]) * n + idx[q]).ravel(), return_inverse=True)
    entries = np.bincount(inv, (coeffs[live, None] * (-1.0) ** np.arange(p)).ravel(), len(pairs))
    js, cs = np.divmod(pairs, row * n)
    jlab, clab = _bipartite_labels(js, cs, s, row * n)
    ids = np.flatnonzero(clab == np.arange(row * n))  # a block's label is its least column
    used_j, used_c = np.flatnonzero(jlab < row * n), np.flatnonzero(clab < row * n)
    jblock, jplace, rcount = _places(jlab[used_j], ids)
    cblock, cplace, ccount = _places(clab[used_c], ids)
    # a Gamma without entries still has one block, for the zero column back reads
    blocks, rmax, cmax = max(len(ids), 1), rcount.max(initial=0), ccount.max(initial=0) + 1
    tuples = np.full((blocks, rmax), -1)  # each block's J, in order, padded with -1
    tuples[jblock, jplace] = used_j
    # each J's row of the stacked blocks and each (l, i)'s column of its block
    jat, cat = np.zeros(s, dtype=np.intp), np.zeros(row * n, dtype=np.intp)
    jat[used_j], cat[used_c] = jblock * rmax + jplace, cplace
    gamma = np.zeros((blocks, rmax, cmax))
    gamma.reshape(blocks * rmax, cmax)[jat[js], cat[cs]] = entries
    pad = tuples[:, None] < 0
    gather = np.where(pad, 0, at.T[tuples].transpose(0, 2, 1))  # (K, p, rows)
    sign = np.where(pad, 0.0, (-1.0) ** np.arange(p)[:, None])
    # V[l, b, i] is (block, b, place) of the products, or block 0's last zero entry
    back = np.full((row, p, n), p * cmax - 1)
    l, i = np.divmod(used_c, n)
    back[l, :, i] = (cblock * p * cmax + cplace)[:, None] + np.arange(p) * cmax
    for arr in (gamma, gather, sign, back):
        arr.flags.writeable = False  # shared by every caller through the cache
    return gamma, gather.ravel(), sign.ravel(), back.ravel()


def _expand(table, f, g, out):
    """out (E, b) = sum over the rows of table[f] * table[g], added in row order."""
    terms = table.take(f, axis=0)  # (j, E, b)
    terms *= table.take(g, axis=0)
    out[...] = terms[0]
    for row in terms[1:]:
        out += row
    return out


def _groups(coeff_mat, t):
    """(groups, lead shape) of first_jet's coefficients; an (..., t) array is the one group (1, L, t)."""
    if isinstance(coeff_mat, list):
        return coeff_mat, (sum(len(g) * g.shape[1] for g in coeff_mat),)
    coeff_mat = np.asarray(coeff_mat, dtype=float)
    lead = coeff_mat.shape[:-1]
    return [coeff_mat.reshape(1, math.prod(lead), t)], lead


def _contract(groups, x):
    """(b, R, w): each group's (G, r, c) coefficients times its G runs of c rows of x (b, t, w), block by block."""
    b, _, w = x.shape
    parts, col = [], 0
    for g in groups:
        blocks, r, c = g.shape
        parts.append((g @ x[:, col : col + blocks * c].reshape(b, blocks, c, w)).reshape(b, blocks * r, w))
        col += blocks * c
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)


def first_jet(coeff_mat, idx0, frames, normals):
    """Values of forms at frames and at every one-column normal replacement.

    coeff_mat: (..., t) coefficients over the p-indices idx0 (0-based, (t, p)),
    or a list of groups.  A group is a (G, r, c) stack of G blocks of r
    forms, each block's forms with their c coefficients over the next c rows
    of idx0, so the groups take consecutive runs of idx0, in order; an
    (..., t) array is the one group (1, L, t).  Rows of idx0 may repeat, as
    in critical._module_rows; a repeated row costs only its determinant terms.
    frames: (m, n, p) stack of frames; normals: (m, n, k).
    Returns (values, first) with values of shape (m, ...) and first of shape
    (m, ..., p, k), where ... is the array's lead shape, or (R,) for the R
    forms of the groups, in order; first[i, ..., b, s] is the value on frame
    i with column b replaced by normals[i, :, s].  Every evaluation in
    calibkit comes here, for every p.  The minors of a frame share their
    sub-minors, so each frame fills one table of them (_minor_plan), level
    by level, with elementwise gather-multiply-add steps: no division, no
    LAPACK call.  Each determinant is its minor's expansion along column 0,
    contracted group by group (_contract), so a block-sparse module
    (critical.phi_module) takes only its blocks' coefficients.  The
    replacements come from gradients (Jacobi's formula: det is linear in
    column b): first = V N with V = M Gamma, where M (p x S) holds the
    frame's signed (p - 1)-minors (-1)^b M[cols - b, J] and Gamma (S x R n)
    the coefficients.  Gamma is mostly zeros, so it is cached by its
    connected blocks (_gradients): each block's minors are gathered straight
    from the table, multiplied by the block, and V, laid out (R, p, n) from
    the blocks' products by one gather, gives first in its final layout.
    Every product is one matmul per frame (per frame and block for M Gamma),
    broadcast over the stack, so a frame gets the same bits alone as in any
    stack, and a value the same bits with or without normals.  The table is
    planar (entries, frames).  Frames go in blocks whose table, determinant
    terms (p t), the K blocks' minors (K p rows) and products (K p cols), V
    (R p n) and replacements (R p k) each take at most _MINOR_BLOCK floats.
    p = 0 (a 0 x 0 minor has det 1) and forms without terms need no special
    case.
    """
    frames = np.asarray(frames, dtype=float)
    normals = np.asarray(normals, dtype=float)
    idx0 = np.ascontiguousarray(idx0, dtype=np.intp)
    t, p = idx0.shape
    m, n, k = frames.shape[0], frames.shape[1], normals.shape[-1]
    groups, lead = _groups(coeff_mat, t)
    forms, key = math.prod(lead), idx0.tobytes()
    size, levels, dets_at, grad = _minor_plan(n, t, p, key, bool(p and k))
    floats = max(size, p * t)
    if grad is not None:
        coeffs = np.concatenate([np.ravel(g) for g in groups], dtype=float).tobytes()
        gamma, at, sign, back = _gradients(n, t, p, key, tuple(g.shape for g in groups), coeffs)
        blocks, rows, cols = gamma.shape
        floats = max(floats, len(at), blocks * p * cols, p * forms * n, forms * p * k)
    # the outputs are concatenated from the blocks, so they are allocated after
    # the block temporaries; preallocating them let malloc hand the freed
    # temporaries back to the OS after every call (2.6x the page faults in a
    # search-su4 pass); an empty stack still makes one (empty) block
    values, first = [], []
    step = max(1, _MINOR_BLOCK // floats)
    for lo in range(0, max(m, 1), step):
        block = frames[lo : lo + step]
        b = len(block)
        block = block.reshape(b, n * p).T
        table = np.empty((size, b))
        table[0] = 1.0
        table[1 : 1 + n * p] = block
        np.negative(block, out=table[1 + n * p : 1 + 2 * n * p])
        for off, f, g in levels:
            _expand(table, f, g, table[off : off + f.shape[1]])
        dets = _expand(table, *dets_at, np.empty((t, b)))
        # C-contiguous, so every frame is contracted with unit strides
        # whatever the size of the stack
        values.append(_contract(groups, np.ascontiguousarray(dets.T).reshape(b, t, 1)))
        if grad is not None:
            minors = np.empty((b, len(at)))
            np.multiply(table.take(at, axis=0).T, sign, out=minors)
            del table  # so the block holds only M, V and the replacements
            v = (minors.reshape(b, blocks, p, rows) @ gamma).reshape(b, blocks * p * cols)
            v = v.take(back, axis=1).reshape(b, forms * p, n)  # V (b, R, p, n)
            first.append(v @ normals[lo : lo + step])  # (b, R p, k)
    values = np.concatenate(values).reshape((m,) + lead)
    first = np.concatenate(first) if first else np.zeros((m, forms, p, k))
    return values, first.reshape((m,) + lead + (p, k))


def stack_values(coeff_mat, idx0, frames):
    """Values (m, ...) of forms on an (m, n, p) stack: first_jet without normals."""
    return first_jet(coeff_mat, idx0, frames, frames[:, :, :0])[0]


def _slot_values(coeff_mat, idx0, rest):
    """Values (m, ..., n) of forms on (e_j, rest[i]), rest (m, n, p - 1): first_jet of [0 | rest], normals I."""
    m, n = rest.shape[:2]
    frames = np.concatenate([np.zeros((m, n, 1)), rest], axis=2)
    return first_jet(coeff_mat, idx0, frames, np.broadcast_to(np.eye(n), (m, n, n)))[1][..., 0, :]


@functools.lru_cache(maxsize=None)
def _star_columns(n, p):
    """Hodge star of the basis p-forms: (complements (C, n - p), signs (C,)).

    Row r is the 0-based complement J of the r-th index I of
    canonical_indices(n, p), and *e^I = sign[r] e^J, so the rows run through
    canonical_indices(n, n - p) in reverse.
    """
    idx = _index_table(n, p)
    mask = np.ones((len(idx), n), dtype=bool)
    mask[np.arange(len(idx))[:, None], idx] = False
    comp = np.nonzero(mask)[1].reshape(len(idx), n - p)
    # e^I ^ e^J = sign vol, one transposition per pair i in I, j in J with i > j
    sign = (-1.0) ** np.sum(idx[:, :, None] > comp[:, None, :], axis=(1, 2))
    comp.flags.writeable = sign.flags.writeable = False  # shared by every caller through the cache
    return comp, sign


def _star(idx0, n):
    """Hodge stars *e^I = sign e^J of the basis forms over the increasing p-indices idx0 (t, p).

    Returns the signs (t,) and the 0-based indices J (t, n - p)."""
    comp, sign = _star_columns(n, idx0.shape[1])
    rank = _lex_rank(idx0, n)
    return sign[rank], comp[rank]


def orthonormal_jet(coeff_mat, idx0, completions, p, jet=True):
    """first_jet(coeff_mat, idx0, Q[:, :, :p], Q[:, :, p:]) for (m, n, n) orthonormal Q.

    coeff_mat is first_jet's: an (..., t) array or a list of groups.  idx0
    rows must be strictly increasing.  With jet=False only the values are
    returned, as stack_values(coeff_mat, idx0, Q[:, :, :p]) would give them.
    Up to p = n/2 this is first_jet itself.  Above it the forms are
    evaluated through their Hodge stars, on (n - p) x (n - p) minors in place
    of p x p ones: gamma(F) = det Q (*gamma)(N) for Q = [F N], and turning
    column b of F towards column s of N turns column s of N away from column
    b of F, so the replacement (b, s) of gamma is -det Q times the
    replacement (s, b) of *gamma at N with normals F.  The star maps each
    group's columns like any others.  So the p = 12 dual of the su(4) form
    fills sub-minor tables of 3 x 3 minors, not of 12 x 12 ones, whose
    eleven levels would hold 271,232 entries a frame.
    """
    completions = np.asarray(completions, dtype=float)
    n = completions.shape[-1]
    frames, normals = completions[:, :, :p], completions[:, :, p:]
    if 2 * p <= n:
        values, first = first_jet(coeff_mat, idx0, frames, normals if jet else normals[:, :, :0])
    else:
        groups, lead = _groups(coeff_mat, len(idx0))
        sign, comp = _star(idx0, n)
        cuts = np.cumsum([len(g) * g.shape[2] for g in groups])[:-1]
        groups = [g * s.reshape(len(g), 1, -1) for g, s in zip(groups, np.split(sign, cuts))]
        values, first = first_jet(groups, comp, normals, frames if jet else frames[:, :, :0])
        m = len(completions)
        values, first = values.reshape((m,) + lead), first.reshape((m,) + lead + first.shape[-2:])
        det = np.sign(np.linalg.det(completions)).reshape((m,) + (1,) * len(lead))
        values, first = det * values, -det[..., None, None] * np.swapaxes(first, -1, -2)
    return (values, first) if jet else values


# -- parsing / formatting ---------------------------------------------------

_TERM_RE = re.compile(r"^(?:(\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)\*)?e(\d+)$")


def parse_form(text, n=None):
    """Parse the text literal format, e.g. 'e123 + e145 - 2.0*e167'.

    Indices are single digits (so n <= 9).  Tuples must be strictly
    increasing.  If n is omitted it is inferred as the largest index used.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty form literal")
    # normalize leading sign, then split on +/- separators; a sign right after
    # a mantissa's e (as in 1e-05) belongs to the exponent
    tokens = re.split(r"\s*(?<![\d.][eE])([+-])\s*", text)
    if tokens[0] == "":
        tokens = tokens[1:]
    else:
        tokens = ["+"] + tokens
    if len(tokens) % 2 != 0:
        raise ValueError(f"malformed form literal: {text!r}")
    # the indices are checked increasing, so the terms need no sort_index: a repeat adds, in term order
    coeffs = {}
    for sgn, body in zip(tokens[::2], tokens[1::2]):
        m = _TERM_RE.match(body.strip())
        if not m:
            raise ValueError(f"malformed term {body!r}")
        coeff = float(m.group(1)) if m.group(1) else 1.0
        if not math.isfinite(coeff):
            raise ValueError(f"coefficient in {body!r} is not finite")
        idx = tuple(int(ch) for ch in m.group(2))
        if any(a >= b for a, b in zip(idx, idx[1:])):
            raise ValueError(f"index tuple in {body!r} is not strictly increasing")
        if idx[0] == 0:
            raise ValueError(f"index 0 in {body!r}: indices run from 1")
        coeffs[idx] = coeffs.get(idx, 0.0) + (coeff if sgn == "+" else -coeff)
    degrees = {len(i) for i in coeffs}
    if len(degrees) != 1:
        raise ValueError("mixed degrees in form literal")
    p = degrees.pop()
    max_idx = max(max(i) for i in coeffs)
    if n is None:
        n = max_idx
    elif max_idx > n:
        raise ValueError(f"index {max_idx} exceeds n={n}")
    return AltForm(n, p, coeffs)


def format_form(a):
    """Inverse of parse_form (nonzero forms of degree >= 1 on n <= 9 only)."""
    if a.n > 9 or a.p == 0 or not a.coeffs:
        raise ValueError("text literals support nonzero forms of degree >= 1 on n <= 9 only")
    parts = []
    for I, c in sorted(a.coeffs.items()):
        body = "e" + "".join(str(i) for i in I)
        mag = abs(c)
        term = body if mag == 1.0 else f"{mag:.17g}*{body}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(("+ " if c > 0 else "- ") + term)
    return " ".join(parts)


def form_to_json(a):
    return {
        "n": a.n,
        "p": a.p,
        "terms": [{"idx": list(I), "c": c} for I, c in sorted(a.coeffs.items())],
    }


def form_from_json(obj):
    """Inverse of form_to_json; raises ValueError naming the first malformed field."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not isinstance(obj, dict):
        raise ValueError("a form must be a JSON object with 'n', 'p' and 'terms'")
    for key in ("n", "p"):
        if type(obj.get(key)) is not int:  # bool is an int subclass
            raise ValueError(f"form field {key!r} must be an integer")
    if not isinstance(obj.get("terms"), list):
        raise ValueError("form field 'terms' must be a list")
    coeffs = {}
    for k, term in enumerate(obj["terms"]):
        idx, c = (term.get("idx"), term.get("c")) if isinstance(term, dict) else (None, None)
        if not isinstance(idx, list) or any(type(i) is not int for i in idx):
            raise ValueError(f"form term {k}: 'idx' must be a list of integers")
        if isinstance(c, bool) or not isinstance(c, (int, float)) or not math.isfinite(c):
            raise ValueError(f"form term {k}: 'c' must be a finite number")
        coeffs[tuple(idx)] = coeffs.get(tuple(idx), 0.0) + c
    return AltForm(obj["n"], obj["p"], coeffs)
