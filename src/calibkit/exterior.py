"""Sparse exterior algebra over R^n with the standard orthonormal metric.

Forms are stored as maps from strictly increasing 1-based multi-indices to
real coefficients.  The coefficient of a permuted tuple is sign * stored
coefficient; repeated indices give 0.  Orientation is fixed once and for
all by declaring e^1 ^ ... ^ e^n the positive volume form.
"""

from __future__ import annotations

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
    "batch_eval_dense",
    "first_jet",
    "stack_values",
    "parse_form",
    "format_form",
]

DEFAULT_TOL = 1e-9
# floats gathered at once by first_jet and batch_eval_dense (256 KB): a
# lockstep block gathers the cofactors of all its frames at once
_MINOR_BLOCK = 1 << 15
# from this minor size on, first_jet takes cofactors from one SVD per minor,
# not from p^2 determinants of size p - 1 (measured crossover: p = 5 ties)
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
    def from_dense(cls, n, p, vec, tol=0.0):
        idxs = canonical_indices(n, p)
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (len(idxs),):
            raise ValueError("dense vector has wrong length")
        return cls(n, p, {I: v for I, v in zip(idxs, vec) if abs(v) > tol})

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

    def prune(self, tol=DEFAULT_TOL):
        return AltForm(self.n, self.p, {I: c for I, c in self.coeffs.items() if abs(c) > tol})

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
        if self.p == 0:
            return float(self.coeffs.get((), 0.0))
        if not self.coeffs:
            return 0.0
        idx, c = self._compact()
        return float(np.linalg.det(m[idx, :]) @ c)

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


def batch_eval_dense(coeff_mat, idx0, frames):
    """Evaluate many forms on many frames at once.

    coeff_mat: (k, t) dense coefficients over the canonical index list.
    idx0: (t, p) 0-based canonical index array.
    frames: (m, n, p) stack of frames.
    Returns a (k, m) array of values.
    """
    frames = np.asarray(frames, dtype=float)
    (m, _, p), t = frames.shape, idx0.shape[0]
    if t == 0:
        return np.zeros((coeff_mat.shape[0], m))
    if p == 0:
        return np.repeat(coeff_mat, m, axis=1)
    # gather at most _MINOR_BLOCK floats of minors at a time
    dets = np.empty((t, m))
    step = max(1, _MINOR_BLOCK // (t * p * p))
    for lo in range(0, m, step):
        dets[:, lo : lo + step] = np.linalg.det(frames[lo : lo + step, idx0, :]).T
    return coeff_mat @ dets


def first_jet(coeff_mat, idx0, frames, normals):
    """Values of forms at frames and at every one-column normal replacement.

    coeff_mat: (..., t) coefficients over the p-indices idx0 (0-based, (t, p)).
    frames: (m, n, p) stack of frames; normals: (m, n, k).
    Returns (values, first) with values of shape (m, ...) and first of shape
    (m, ..., p, k), where first[i, ..., b, s] is the value on frame i with
    column b replaced by normals[i, :, s].  Since det is linear in each
    column, det(F_bs[I]) = sum_r cof_I[r, b] * normal[I_r, s], so every
    replacement comes from the cofactors of the t minors frame[I].  Below
    p = _SVD_COFACTOR_P the cofactors are signed (p-1)-minors; from there on
    they come from one SVD per minor.  Neither path takes an inverse, so
    singular minors need no care.  Each frame is contracted on its own by a
    broadcast matmul, so its results do not depend on the other frames of the
    stack.
    """
    coeff_mat = np.asarray(coeff_mat, dtype=float)
    frames = np.asarray(frames, dtype=float)
    normals = np.asarray(normals, dtype=float)
    t, p = idx0.shape
    m, k = frames.shape[0], normals.shape[-1]
    lead = (m,) + coeff_mat.shape[:-1]
    if t == 0:
        return np.zeros(lead), np.zeros(lead + (p, k))
    coeffs = coeff_mat.reshape(-1, t)
    # np.take gathers C-contiguous blocks, so every frame is contracted with
    # unit strides whatever the size of the stack
    minors = np.take(frames, idx0, axis=1)  # (m, t, p, p)
    values = (coeffs @ np.linalg.det(minors)[..., None]).reshape(lead)
    if p == 0 or k == 0:
        return values, np.zeros(lead + (p, k))
    minors = minors.reshape(m * t, p, p)
    cof = np.empty((m * t, p, p))
    if p < _SVD_COFACTOR_P:
        # keep[r] lists the rows (and columns) other than r; the gathered
        # (p-1)-minors take p^2 (p-1)^2 floats per index
        keep = np.array([[j for j in range(p) if j != r] for r in range(p)], dtype=np.intp)
        sign = (-1.0) ** np.add.outer(np.arange(p), np.arange(p))
        step = max(1, _MINOR_BLOCK // (p * p * max(1, (p - 1) ** 2)))
        for lo in range(0, m * t, step):
            block = minors[lo : lo + step]
            cof[lo : lo + step] = np.linalg.det(block[:, keep[:, None, :, None], keep[None, :, None, :]]) * sign
    else:
        # A = U diag(s) V^T has cofactors det(U) det(V) U diag(prod_{j != i} s_j) V^T;
        # prefix and suffix products need no division, so singular minors stay exact
        step = max(1, _MINOR_BLOCK // (3 * p * p))
        for lo in range(0, m * t, step):
            u, s, vt = np.linalg.svd(minors[lo : lo + step])
            ones = np.ones((len(s), 1))
            pre = np.cumprod(np.concatenate([ones, s[:, :-1]], axis=1), axis=1)
            suf = np.cumprod(np.concatenate([ones, s[:, :0:-1]], axis=1), axis=1)[:, ::-1]
            det_uv = np.sign(np.linalg.det(u) * np.linalg.det(vt))
            cof[lo : lo + step] = (u * (det_uv[:, None] * pre * suf)[:, None, :]) @ vt
    repl = np.swapaxes(cof.reshape(m, t, p, p), -1, -2) @ np.take(normals, idx0, axis=1)  # (m, t, p, k)
    first = coeffs @ repl.reshape(m, t, p * k)
    return values, first.reshape(lead + (p, k))


def stack_values(coeff_mat, idx0, frames):
    """Values (m, ...) of forms on an (m, n, p) stack, each frame contracted on its own."""
    return first_jet(coeff_mat, idx0, frames, frames[:, :, :0])[0]


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


def format_form(a, tol=0.0):
    """Inverse of parse_form (n <= 9 only)."""
    if a.n > 9:
        raise ValueError("text literals support n <= 9 only")
    parts = []
    for I, c in sorted(a.coeffs.items()):
        if abs(c) <= tol:
            continue
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
    if isinstance(obj, str):
        obj = json.loads(obj)
    n, p = int(obj["n"]), int(obj["p"])
    coeffs = {}
    for term in obj.get("terms", []):
        idx = tuple(int(i) for i in term["idx"])
        if any(a >= b for a, b in zip(idx, idx[1:])):
            raise ValueError(f"index tuple {idx} is not strictly increasing")
        coeffs[idx] = coeffs.get(idx, 0.0) + float(term["c"])
    return AltForm(n, p, coeffs)
