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
# floats (256 KB) that first_jet gathers at once into any one of its minors,
# normals and replacement arrays, and of the Leibniz factors or SVD factors
# that one determinant or cofactor step gathers
_MINOR_BLOCK = 1 << 15
# minors up to this size take their determinants as Leibniz sums, larger ones
# by LU (measured on 500 minors: 90 against 146 us at p = 4, but 544 against
# 204 us at p = 5).  No built-in family has p > 4, and eds evaluates forms of
# degree p > n/2 through orthonormal_jet, so only custom forms with p >= 5
# reach LU: in apply, _rho_stack, the searches, sff and eds (p <= n/2)
_LEIBNIZ_P = 4
# from this minor size on, first_jet takes cofactors from one SVD per minor,
# below it as Leibniz sums (measured on module rows at a random plane: the
# sums win at p = 5, 0.37 against 0.46 ms for the p = 5 su3 dual, which eds
# now takes on 3 x 3 minors, and lose at p = 6, 6.9 against 0.86 ms for a
# random 6-form on R^9).  Only custom forms with p >= 6 reach the SVD: in
# is_critical, the searches, sff and eds (p <= n/2)
_SVD_COFACTOR_P = 6


def sort_index(idx):
    """Sort a multi-index tuple, returning (sign, sorted tuple).

    sign is the parity of the sorting permutation, or 0 on repeats.
    """
    lst = list(idx)
    sign = 1
    for i in range(1, len(lst)):
        j = i
        while j > 0 and lst[j - 1] > lst[j]:
            lst[j - 1], lst[j] = lst[j], lst[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(lst, lst[1:]):
        if a == b:
            return 0, tuple(lst)
    return sign, tuple(lst)


def canonical_indices(n, p):
    """All strictly increasing 1-based multi-indices of length p in {1..n}."""
    return list(itertools.combinations(range(1, n + 1), p))


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
        return np.array(
            [self.coeffs.get(I, 0.0) for I in canonical_indices(self.n, self.p)]
        )

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
        if self.n > 9:
            return f"AltForm(n={self.n}, p={self.p}, coeffs={dict(sorted(self.coeffs.items()))!r})"
        return f"AltForm(n={self.n}, p={self.p}, {format_form(self)!r})"


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
    n, p = a.n, a.p
    full = tuple(range(1, n + 1))
    coeffs = {}
    for I, c in a.coeffs.items():
        comp = tuple(i for i in full if i not in I)
        sign, _ = sort_index(I + comp)
        coeffs[comp] = sign * c
    if p == 0:
        # constant c -> c * vol
        coeffs = {full: a.coeffs.get((), 0.0)}
    return AltForm(n, n - p, coeffs)


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


def so_action_matrix(a):
    """Matrix of o(n) -> degree-p forms, theta -> theta.a, over canonical_indices(n, p).

    Row r is E.a for the r-th pair (i, j) of itertools.combinations(range(n), 2),
    where E maps e_j -> e_i and e_i -> -e_j.  A term c e^I feeds the index I with
    one slot i replaced by some j not in I.  For a fixed E each index is fed by
    at most one term, so every entry is exactly +-c.
    """
    n, p = a.n, a.p
    idx, c = a._compact()
    term, pos, j = (x.ravel() for x in np.indices((len(c), p, n)))
    keep = ~np.any(idx[term] == j[:, None], axis=1)
    term, pos, j = term[keep], pos[keep], j[keep]
    new = idx[term]
    at = np.arange(len(j))
    i = new[at, pos]
    # j moves from slot pos to slot r of the sorted index; theta[i, j] is +1 in
    # the row of the pair (i, j) and -1 in that of (j, i)
    r = np.sum(new < j[:, None], axis=1) - (i < j)
    new[at, pos] = j
    new.sort(axis=1)
    mat = np.zeros((n * (n - 1) // 2, math.comb(n, p)))
    pairs = np.column_stack([np.minimum(i, j), np.maximum(i, j)])
    mat[_lex_rank(pairs, n), _lex_rank(new, n)] = (-1.0) ** (pos - r + (i > j)) * c[term]
    return mat


def _lex_rank(idx, n):
    """Positions of increasing 0-based index rows in canonical_indices(n, p)."""
    p = idx.shape[1]
    binom = np.array([[math.comb(x, y) for y in range(p + 1)] for x in range(n + 1)], dtype=np.intp)
    return math.comb(n, p) - 1 - binom[n - 1 - idx, p - np.arange(p)].sum(axis=1)


def so_action(theta, a):
    """Action of theta in o(n) on a form: (theta.a)(v1..vp) = sum_i a(.., theta v_i, ..)."""
    m = _as_skew_matrix(theta)
    if m.shape[0] != a.n:
        raise ValueError(f"dimension mismatch: {m.shape[0]} != {a.n}")
    # theta = sum over i < j of theta[i, j] times the generator of (i, j)
    return AltForm.from_dense(a.n, a.p, m[np.triu_indices(a.n, 1)] @ so_action_matrix(a))


def form_inner(a, b):
    """Inner product on degree-p forms induced by the orthonormal metric."""
    a._check_match(b)
    return float(sum(c * b.coeffs.get(I, 0.0) for I, c in a.coeffs.items()))


@functools.lru_cache(maxsize=None)
def _leibniz_terms(p, cofactors):
    """Flat gather indices (f, T) into a p x p minor and signs (T, 1) of its Leibniz terms.

    det A = sum over permutations s of sgn(s) prod_i A[i, s(i)]: p! terms of
    f = p factors.  The cofactor (r, c) is the derivative of det A in A[r, c]:
    the (p-1)! terms with s(r) = c, factor r dropped (f = p - 1).  Cofactor
    terms are laid out term-major, so term j of the p^2 cofactors (row-major)
    fills columns j p^2 .. (j + 1) p^2.
    """
    perms = list(itertools.permutations(range(p)))
    if cofactors:
        entries = [[(s, r) for s in perms if s[r] == c] for r in range(p) for c in range(p)]
        terms = [entry[j] for j in range(math.factorial(p - 1)) for entry in entries]
    else:
        terms = [(s, None) for s in perms]
    idx = np.array([[i * p + s[i] for i in range(p) if i != drop] for s, drop in terms], dtype=np.intp)
    idx = np.ascontiguousarray(idx.reshape(len(terms), p - cofactors).T)
    sign = np.array([[sort_index(s)[0]] for s, _ in terms], dtype=float)
    idx.flags.writeable = sign.flags.writeable = False  # shared by every caller through the cache
    return idx, sign


def _leibniz(minors, cofactors):
    """Determinants (N,) or cofactor matrices (N, p, p) of an (N, p, p) stack, as Leibniz sums.

    Each block of minors takes at most _MINOR_BLOCK floats of factors from
    the planar (p^2, N) view of the minors.  It gathers them one factor at a
    time, multiplies each into the signed terms in place and sums the terms
    by halving in place, so it holds two arrays of one factor's size.  Every
    operation is elementwise per minor, so a minor gets the same bits alone
    as in any stack.
    """
    n_min, p = minors.shape[0], minors.shape[-1]
    idx, sign = _leibniz_terms(p, cofactors)
    out = np.empty((n_min, p * p if cofactors else 1))
    planar = minors.reshape(n_min, p * p).T
    step = max(1, _MINOR_BLOCK // max(1, idx.size))
    for lo in range(0, n_min, step):
        block = planar[:, lo : lo + step]
        b = block.shape[1]
        terms = sign * block[idx[0]] if len(idx) else np.repeat(sign, b, axis=1)  # (T, b)
        for row in idx[1:]:
            terms *= block[row]
        terms = terms.reshape(-1, out.shape[1], b)
        while len(terms) > 1:
            half = len(terms) // 2
            terms[:half] += terms[half : 2 * half]
            if len(terms) % 2:
                terms[0] += terms[-1]
            terms = terms[:half]
        out[lo : lo + step] = terms[0].T
    return out.reshape(minors.shape) if cofactors else out[:, 0]


def _cofactors(minors):
    """Cofactor matrices (N, p, p) of an (N, p, p) stack of minors, p >= 1.

    Below p = _SVD_COFACTOR_P they are Leibniz sums (_leibniz); from there
    on they come from one SVD per minor.  Neither path takes an inverse, so
    singular minors need no care.
    """
    p = minors.shape[-1]
    if p < _SVD_COFACTOR_P:
        return _leibniz(minors, True)
    # A = U diag(s) V^T has cofactors det(U) det(V) U diag(prod_{j != i} s_j) V^T;
    # prefix and suffix products need no division, so singular minors stay exact
    cof = np.empty(minors.shape)
    step = max(1, _MINOR_BLOCK // (3 * p * p))
    for lo in range(0, len(minors), step):
        u, s, vt = np.linalg.svd(minors[lo : lo + step])
        ones = np.ones((len(s), 1))
        pre = np.cumprod(np.concatenate([ones, s[:, :-1]], axis=1), axis=1)
        suf = np.cumprod(np.concatenate([ones, s[:, :0:-1]], axis=1), axis=1)[:, ::-1]
        det_uv = np.sign(np.linalg.det(u) * np.linalg.det(vt))
        cof[lo : lo + step] = (u * (det_uv[:, None] * pre * suf)[:, None, :]) @ vt
    return cof


def first_jet(coeff_mat, idx0, frames, normals):
    """Values of forms at frames and at every one-column normal replacement.

    coeff_mat: (..., t) coefficients over the p-indices idx0 (0-based, (t, p)).
    frames: (m, n, p) stack of frames; normals: (m, n, k).
    Returns (values, first) with values of shape (m, ...) and first of shape
    (m, ..., p, k), where first[i, ..., b, s] is the value on frame i with
    column b replaced by normals[i, :, s].  Since det is linear in each
    column, det(F_bs[I]) = sum_r cof_I[r, b] * normal[I_r, s], so every
    replacement comes from the cofactors of the t minors frame[I].  Every
    evaluation in calibkit comes here.  Frames go in blocks whose minors
    (t p^2 floats a frame), gathered normals and replacements (t p k each)
    each take at most _MINOR_BLOCK floats; the minors are gathered once for
    the determinants and the cofactors.  Up to p = _LEIBNIZ_P (every search)
    both are elementwise Leibniz sums, with no LAPACK call; larger
    determinants take LU.  Each frame is contracted on its own by a broadcast
    matmul, so it gets the same bits alone as in any stack.  p = 0 (a 0 x 0
    minor has det 1) and forms without terms need no special case.  No
    built-in family has p > 4, and eds takes forms of degree p > n/2 through
    orthonormal_jet, so only custom forms reach LU (p >= 5) and the SVD
    cofactors (p >= 6).
    """
    coeff_mat = np.asarray(coeff_mat, dtype=float)
    frames = np.asarray(frames, dtype=float)
    normals = np.asarray(normals, dtype=float)
    t, p = idx0.shape
    m, k = frames.shape[0], normals.shape[-1]
    lead = coeff_mat.shape[:-1]
    coeffs = coeff_mat.reshape(math.prod(lead), t)
    # the outputs are concatenated from the blocks, so they are allocated after
    # the block temporaries; preallocating them let malloc hand the freed
    # temporaries back to the OS after every call (2.6x the page faults in a
    # search-su4 pass); an empty stack still makes one (empty) block
    values, first = [], []
    step = max(1, _MINOR_BLOCK // max(1, t * p * max(p, k)))
    for lo in range(0, max(m, 1), step):
        # np.take gathers C-contiguous blocks, so every frame is contracted
        # with unit strides whatever the size of the stack
        minors = np.take(frames[lo : lo + step], idx0, axis=1)  # (b, t, p, p)
        b = len(minors)
        flat = minors.reshape(b * t, p, p)
        dets = _leibniz(flat, False) if p <= _LEIBNIZ_P else np.linalg.det(flat)
        values.append(coeffs @ dets.reshape(b, t, 1))
        if p and k:
            cof = _cofactors(flat).reshape(b, t, p, p)
            del minors, flat  # so the block holds only cofactors, gathered normals and replacements
            repl = np.swapaxes(cof, -1, -2) @ np.take(normals[lo : lo + step], idx0, axis=1)  # (b, t, p, k)
            first.append(coeffs @ repl.reshape(b, t, p * k))
    values = np.concatenate(values).reshape((m,) + lead)
    if not first:
        return values, np.zeros((m,) + lead + (p, k))
    return values, np.concatenate(first).reshape((m,) + lead + (p, k))


def stack_values(coeff_mat, idx0, frames):
    """Values (m, ...) of forms on an (m, n, p) stack: first_jet without normals."""
    return first_jet(coeff_mat, idx0, frames, frames[:, :, :0])[0]


@functools.lru_cache(maxsize=None)
def _star_columns(n, p):
    """Hodge star of the basis p-forms: (complements (C, n - p), signs (C,)).

    Row r is the 0-based complement J of the r-th index I of
    canonical_indices(n, p), and *e^I = sign[r] e^J, so the rows run through
    canonical_indices(n, n - p) in reverse.
    """
    idx = np.array(canonical_indices(n, p), dtype=np.intp).reshape(-1, p) - 1
    mask = np.ones((len(idx), n), dtype=bool)
    mask[np.arange(len(idx))[:, None], idx] = False
    comp = np.nonzero(mask)[1].reshape(len(idx), n - p)
    # e^I ^ e^J = sign vol, one transposition per pair i in I, j in J with i > j
    sign = (-1.0) ** np.sum(idx[:, :, None] > comp[:, None, :], axis=(1, 2))
    comp.flags.writeable = sign.flags.writeable = False  # shared by every caller through the cache
    return comp, sign


def orthonormal_jet(coeff_mat, idx0, completions, p, jet=True):
    """first_jet(coeff_mat, idx0, Q[:, :, :p], Q[:, :, p:]) for (m, n, n) orthonormal Q.

    idx0 rows must be strictly increasing.  With jet=False only the values
    are returned, as stack_values(coeff_mat, idx0, Q[:, :, :p]) would give
    them.  Up to p = n/2 this is first_jet itself.  Above it the forms are
    evaluated through their Hodge stars, on (n - p) x (n - p) minors in place
    of p x p ones: gamma(F) = det Q (*gamma)(N) for Q = [F N], and turning
    column b of F towards column s of N turns column s of N away from column
    b of F, so the replacement (b, s) of gamma is -det Q times the
    replacement (s, b) of *gamma at N with normals F.  For the p = 12 dual
    of the su(4) form this trades 455 LU determinants and SVD cofactors for
    Leibniz sums of 3 x 3 minors.
    """
    completions = np.asarray(completions, dtype=float)
    n = completions.shape[-1]
    frames, normals = completions[:, :, :p], completions[:, :, p:]
    if 2 * p <= n:
        values, first = first_jet(coeff_mat, idx0, frames, normals if jet else normals[:, :, :0])
    else:
        comp, sign = _star_columns(n, p)
        rank = _lex_rank(idx0, n)
        coeff_mat = np.asarray(coeff_mat, dtype=float) * sign[rank]
        values, first = first_jet(coeff_mat, comp[rank], normals, frames if jet else frames[:, :, :0])
        det = np.sign(np.linalg.det(completions)).reshape((-1,) + (1,) * (values.ndim - 1))
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
    # normalize leading sign, then split on +/- separators
    tokens = re.split(r"\s*([+-])\s*", text)
    if tokens[0] == "":
        tokens = tokens[1:]
    else:
        tokens = ["+"] + tokens
    if len(tokens) % 2 != 0:
        raise ValueError(f"malformed form literal: {text!r}")
    terms = []
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
        terms.append((idx, coeff if sgn == "+" else -coeff))
    degrees = {len(i) for i, _ in terms}
    if len(degrees) != 1:
        raise ValueError("mixed degrees in form literal")
    p = degrees.pop()
    max_idx = max(max(i) for i, _ in terms)
    if n is None:
        n = max_idx
    elif max_idx > n:
        raise ValueError(f"index {max_idx} exceeds n={n}")
    return AltForm.from_terms(n, p, terms)


def format_form(a):
    """Inverse of parse_form (n <= 9 only)."""
    if a.n > 9:
        raise ValueError("text literals support n <= 9 only")
    parts = []
    for I, c in sorted(a.coeffs.items()):
        body = "e" + "".join(str(i) for i in I)
        mag = abs(c)
        term = body if mag == 1.0 else f"{mag:.17g}*{body}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(("+ " if c > 0 else "- ") + term)
    return " ".join(parts) if parts else "0"


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
