"""Criticality of oriented p-planes for a constant-coefficient p-form.

Three equivalent tests are implemented: the first-cousin coefficients
(residual_cousin), vanishing of the induced module of forms
(residual_module), and closure under the associated alternating vector
product (rho_closed).  Up to sign, rho's normal components on a plane are
its cousin coefficients, so a report's residual_rho is read off them, and
rho_closed evaluates rho itself (exterior._slot_values).  The module is the
image of o(n) acting on the form; its annihilator on the Grassmannian is
exactly the critical set.  The o(n) action splits into small blocks,
generators against indices, so the module is built, stored and evaluated
block by block.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .exterior import (
    AltForm,
    SkewMap,
    _action_entries,
    _bipartite_labels,
    _index_table,
    _slot_values,
    first_jet,
    stack_values,
)

__all__ = [
    "OrientedPlane",
    "FormModule",
    "CriticalityReport",
    "SffElement",
    "cousin_matrix",
    "phi_module",
    "stabilizer_dim",
    "stabilizer_kernel",
    "is_critical",
    "criticality_reports",
    "annihilator_check",
    "rho_product",
    "rho_closed",
    "sff_space",
    "qr_fix",
    "subspace_distance",
]

DEFAULT_TOL = 1e-8
RANK_TOL = 1e-9
# largest max |F^T F - I| of a frame that OrientedPlane keeps as given
FRAME_TOL = 1e-10


class NotCriticalError(ValueError):
    """sff_space was given a plane that is not critical: a negative verdict, not a failure."""


def qr_fix(m):
    """Reduced QR of a matrix or a stack, with the sign convention diag(R) >= 0."""
    q, r = np.linalg.qr(np.asarray(m, dtype=float))
    d = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    d[d == 0] = 1.0
    return q * d[..., None, :], r * d[..., :, None]


def completions(frames):
    """Deterministic (m, n, n) orthonormal completions of an (m, n, p) frame stack: complete QR, frames in front."""
    q = np.linalg.qr(frames, mode="complete")[0]
    q[:, :, : frames.shape[2]] = frames
    return q


def _retract(qs, coords):
    """QR retraction of completions Q = [F N], (m, n, n), to F + N coords[i].T; returns the moved completions.

    The complete Q factor, signed so that diag(R) >= 0, has qr_fix's frame in
    front.  The frame and Q share their p Householder reflectors, so behind it
    are the frame's `completions`, up to round-off.  qs may broadcast against
    coords, so one completion is moved to every coordinate of a stack.
    """
    p = coords.shape[1]
    q, r = np.linalg.qr(qs[:, :, :p] + qs[:, :, p:] @ np.swapaxes(coords, 1, 2), mode="complete")
    d = np.sign(np.diagonal(r, axis1=1, axis2=2))
    d[d == 0] = 1.0
    q[:, :, :p] *= d[:, None, :]
    return q


class OrientedPlane:
    """An oriented p-plane in R^n, stored as an n x p orthonormal frame."""

    __slots__ = ("n", "p", "frame", "_completion")

    def __init__(self, frame, orthonormalize=False):
        f = np.array(frame, dtype=float)
        if f.ndim != 2:
            raise ValueError("frame must be a 2-d array of columns")
        n, p = f.shape
        if p > n:
            raise ValueError(f"p={p} exceeds n={n}")
        if not np.isfinite(f).all():
            raise ValueError("frame columns must be finite")
        gram = f.T @ f
        # a frame is kept as given only within FRAME_TOL of orthonormal, entrywise
        if not np.max(np.abs(gram - np.eye(p)), initial=0.0) <= FRAME_TOL:
            if not orthonormalize:
                raise ValueError("frame columns are not orthonormal")
            f, r = qr_fix(f)
            d = np.abs(np.diag(r))
            if d.min() <= 1e-10 * d.max():
                raise ValueError("frame columns are linearly dependent")
        self.n, self.p = n, p
        self.frame = f
        self._completion = None

    def reversed(self):
        """The oppositely oriented plane (first column negated)."""
        f = self.frame.copy()
        f[:, 0] = -f[:, 0]
        return OrientedPlane(f)

    def completion(self):
        """Deterministic completion to an n x n orthonormal frame.

        The first p columns are the plane's own frame.
        """
        if self._completion is None:
            self._completion = completions(self.frame[None])[0]
        return self._completion

    def normal_frame(self):
        """Orthonormal basis of the orthogonal complement, n x (n-p)."""
        return self.completion()[:, self.p :]

    @classmethod
    def spanning(cls, *vectors):
        """Oriented span of the given vectors, orthonormalized in order; dependent vectors raise ValueError."""
        return cls(np.column_stack([np.asarray(v, dtype=float) for v in vectors]), orthonormalize=True)

    def to_json(self):
        return {"n": self.n, "p": self.p, "columns": self.frame.T.tolist()}

    @classmethod
    def from_json(cls, obj):
        if isinstance(obj, str):
            obj = json.loads(obj)
        if not isinstance(obj, dict) or "columns" not in obj:
            raise ValueError("a plane must be a JSON object with a 'columns' list")
        return cls(np.array(obj["columns"], dtype=float).T, orthonormalize=True)

    def __repr__(self):
        return f"OrientedPlane(n={self.n}, p={self.p})"


class FormModule:
    """A subspace of degree-p forms, stored as orthonormal rows.

    Row i holds the coefficients of the i-th basis form over
    canonical_indices(n, degree).  The module is given by its rows, or by
    its blocks: a list of (cols (G, c), coefficients (G, r, c)), G blocks of
    r rows each over the c canonical positions of their row of cols, zero
    off them.  The rows run through the lists, and through their blocks, in
    order.  Rows are one block over every index, so they fit any module;
    phi_module gives its blocks, in the block order of the o(n) action.
    Every evaluation contracts the blocks group by group, in first_jet (the
    coefficients are its groups); the dense rows and the basis as AltForms
    are built on first use.
    """

    def __init__(self, n, degree, rows=(), blocks=None):
        self.n = n
        self.degree = degree
        self._idx0 = _index_table(n, degree)
        self._coeff_mat = self._basis = None
        if blocks is None:
            # adding 0.0 turns -0.0 into 0.0, so each row equals its AltForm's dense()
            self._coeff_mat = np.asarray(rows, dtype=float).reshape(-1, len(self._idx0)) + 0.0
            blocks = [(np.arange(len(self._idx0))[None], self._coeff_mat[None])]
        else:
            blocks = [(cols, coeffs + 0.0) for cols, coeffs in blocks]
        # a module of rank 0 is one group of no rows over no indices
        blocks = [(cols, g) for cols, g in blocks if g.shape[1]]
        blocks = blocks or [(np.zeros((1, 0), dtype=np.intp), np.zeros((1, 0, 0)))]
        self._groups = [g for _, g in blocks]
        self.rank = sum(len(g) * g.shape[1] for g in self._groups)
        self._block_cols = np.concatenate([cols.ravel() for cols, _ in blocks])
        self._block_idx0 = self._idx0[self._block_cols]

    @classmethod
    def from_spanning(cls, n, degree, forms):
        """Orthonormalize a spanning list, discarding the numerical null space (RANK_TOL)."""
        if not forms:
            return cls(n, degree, [])
        mat = np.vstack([f.dense() for f in forms])
        _, s, vt = np.linalg.svd(mat, full_matrices=False)
        return cls(n, degree, vt[: numerical_rank(s, RANK_TOL)])

    @property
    def basis(self):
        """The orthonormal basis as a list of AltForms."""
        if self._basis is None:
            self._basis = [AltForm.from_dense(self.n, self.degree, row) for row in self.dense_matrix()]
        return self._basis

    def dense_matrix(self):
        """Orthonormal basis as rows over the canonical index ordering."""
        if self._coeff_mat is None:
            rows = np.zeros((self.rank, len(self._idx0)))
            row = col = 0
            for g in self._groups:
                blocks, r, c = g.shape
                cols = self._block_cols[col : col + blocks * c].reshape(blocks, 1, c)
                rows[np.arange(row, row + blocks * r).reshape(blocks, r, 1), cols] = g
                row, col = row + blocks * r, col + blocks * c
            self._coeff_mat = rows
        return self._coeff_mat

    def values_on(self, frames):
        """Evaluate every basis form on a stack of frames, shape (rank, m)."""
        frames = np.asarray(frames, dtype=float)
        if frames.ndim == 2:
            frames = frames[None]
        return stack_values(self._groups, self._block_idx0, frames).T

    def contains(self, form):
        """True when form lies in the module, up to RANK_TOL * |form|: the zero form does, at any scale."""
        v = form.dense()
        rows = self.dense_matrix()
        resid = v - rows.T @ (rows @ v)
        return float(np.linalg.norm(resid)) <= RANK_TOL * float(np.linalg.norm(v))

    def __repr__(self):
        return f"FormModule(n={self.n}, degree={self.degree}, rank={self.rank})"


def _module_rows(phi, module):
    """(idx0, groups) of the rows [phi; module] for first_jet: phi's compact terms, then the module's groups.

    Row 0 is phi as AltForm.apply evaluates it and rows 1: the module as
    values_on does, so phi's indices may repeat in the module's blocks.
    """
    check_fits(phi.n, phi.p, module.n, module.degree)
    idx0, c = phi._compact()
    return np.concatenate([idx0, module._block_idx0]), [c.reshape(1, 1, -1)] + module._groups


def numerical_rank(s, cutoff):
    """Number of singular values s (descending) above cutoff * s[0]; 0 for a zero matrix."""
    return int(np.sum(s > cutoff * s[0])) if s.size and s[0] > 0 else 0


def tol_scale(phi):
    """Largest |coefficient| of phi (1 for the zero form): residuals of phi scale with it."""
    return max((abs(c) for c in phi.coeffs.values()), default=1.0)


def _atol(phi, tol):
    """tol * tol_scale(phi), the absolute tolerance of every test of phi; ValueError unless 0 < tol < inf."""
    if not 0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    return tol * tol_scale(phi)


def subspace_distance(m1, m2):
    """Spectral-norm distance between the orthogonal projectors of two modules."""
    if m1.n != m2.n or m1.degree != m2.degree:
        raise ValueError("modules live in different form spaces")
    b1, b2 = m1.dense_matrix(), m2.dense_matrix()
    p1 = b1.T @ b1
    p2 = b2.T @ b2
    return float(np.linalg.norm(p1 - p2, 2))


@dataclass
class CriticalityReport:
    residual_cousin: float
    residual_module: float
    residual_rho: float
    value: float
    is_critical: bool

    def to_json(self):
        return asdict(self)


@dataclass
class SffElement:
    """Symmetric second-fundamental-form coefficients h[s, a, b].

    s indexes the normal directions (0-based offset from p), a, b the
    tangent slots; h is symmetric in (a, b) by storage.
    """

    h: np.ndarray  # shape (n - p, p, p)

    def trace_residual(self):
        return float(np.max(np.abs(np.trace(self.h, axis1=1, axis2=2))))


# -- the map P (exterior.so_action) and the module Phi ---------------------


def _action_blocks(phi):
    """SVDs of the blocks of so_action_matrix(phi): the connected components of its nonzero pattern.

    A generator and an index are joined by a nonzero entry.  The matrix is
    zero off its blocks, so its SVD is the union of theirs.  The blocks are
    labelled on the nonzero entries alone, exterior._action_entries'
    triplets.  The blocks of each shape take one batched SVD, so they are
    laid out shape by shape, in the order of each shape's first block and
    then of the blocks: each shape's generators, indices and matrices are
    then runs of three flat arrays, filled once from the entries.  Returns
    the generators whose row is zero, and for each shape the blocks' (gens
    (G, r), cols (G, c), u (G, r, r), vt, ranks (G,)); a rank counts the
    block's singular values above RANK_TOL times the largest of all.
    """
    gen, col, val = _action_entries(phi)
    size = math.comb(phi.n, phi.p)
    # every block is labelled by its first index; an index or a generator
    # without entries is labelled size
    row, label = _bipartite_labels(gen, col, phi.n * (phi.n - 1) // 2, size)
    # each block's counts of generators r and indices c, in the order of their labels
    counts = np.bincount(label, minlength=size + 1)[:size]
    ids = np.flatnonzero(counts)
    r, c = np.bincount(row, minlength=size + 1)[ids], counts[ids]
    # the shapes in the order of their first blocks, and the blocks shape by shape
    shapes = {}
    for block, shape in enumerate(zip(r.tolist(), c.tolist())):
        shapes.setdefault(shape, []).append(block)
    blocks = np.array([block for group in shapes.values() for block in group], dtype=np.intp)
    r, c = r[blocks], c[blocks]
    # place[l] is the place of the block labelled l; size, the unlabelled, go last
    place = np.full(size + 1, len(ids))
    place[ids[blocks]] = np.arange(len(ids))
    gens, cols = np.argsort(place[row], kind="stable"), np.argsort(place[label], kind="stable")
    # an entry's block b, generator at gens[g0] and index at cols[c0] goes to
    # flat[at[b] + (g0 - r0[b]) c[b] + c0 - c0[b]]
    where_gen, where_col = np.empty_like(gens), np.empty_like(cols)
    where_gen[gens], where_col[cols] = np.arange(len(gens)), np.arange(len(cols))
    sizes = np.stack([r, c, r * c])
    r0, c0, at = np.cumsum(sizes, axis=1) - sizes
    b = place[label[col]]
    flat = np.zeros(r @ c)
    flat[(at - r0 * c - c0)[b] + where_gen[gen] * c[b] + where_col[col]] = val
    svds, lo = [], 0
    for (rs, cs), group in shapes.items():
        count = len(group)
        g = gens[r0[lo] : r0[lo] + count * rs].reshape(count, rs)
        cc = cols[c0[lo] : c0[lo] + count * cs].reshape(count, cs)
        mats = flat[at[lo] : at[lo] + count * rs * cs].reshape(count, rs, cs)
        svds.append((g, cc, *np.linalg.svd(mats, full_matrices=rs > cs)))
        lo += count
    top = max((s[:, 0].max() for *_, s, _ in svds), default=0.0)
    ranks = [np.sum(s > RANK_TOL * top, axis=1) for *_, s, _ in svds]
    return np.flatnonzero(row == size), [(g, cc, u, vt, k) for (g, cc, u, _, vt), k in zip(svds, ranks)]


def phi_module(phi):
    """Orthonormal basis of the image of o(n) acting on phi (rank cutoff RANK_TOL), built block by block.

    Each block of the action takes its leading right singular vectors over
    its own indices, so the basis forms are block-sparse.  The rows go in
    groups of blocks of one shape and rank, the module's block layout.
    """
    blocks = []
    for _, cols, _, vt, ranks in _action_blocks(phi)[1]:
        for rank in dict.fromkeys(ranks[ranks > 0].tolist()):
            blocks.append((cols[ranks == rank], vt[ranks == rank, :rank]))
    return FormModule(phi.n, phi.p, blocks=blocks)


def stabilizer_dim(phi):
    """Dimension of the stabilizer algebra of phi inside o(n)."""
    n = phi.n
    return n * (n - 1) // 2 - phi_module(phi).rank


def stabilizer_kernel(phi):
    """Orthonormal basis of the stabilizer algebra, as a list of SkewMap.

    Each block of the action gives its trailing left singular vectors, and
    each generator whose row is zero its unit vector.
    """
    n = phi.n
    zero, shapes = _action_blocks(phi)
    null = [np.eye(n * (n - 1) // 2)[zero]]
    for gens, _, u, _, ranks in shapes:
        for g, v, rank in zip(gens, u, ranks):
            null.append(np.zeros((len(g) - rank, n * (n - 1) // 2)))
            null[-1][:, g] = v[:, rank:].T
    null = np.concatenate(null)
    upper = np.triu_indices(n, 1)
    m = np.zeros((len(null), n, n))
    m[:, upper[0], upper[1]] = null
    return [SkewMap(x - x.T) for x in m]


# -- criticality tests ------------------------------------------------------


def check_fits(n, p, form_n, degree):
    """Raise ValueError unless p-planes in R^n are what degree-`degree` forms on R^form_n evaluate."""
    if (n, p) != (form_n, degree):
        raise ValueError(f"degree-{degree} forms on R^{form_n} against a {p}-plane in R^{n}")


def cousin_matrix(phi, xi):
    """First-cousin coefficients G[s, a] = phi(e_1, .., v_s at slot a, .., e_p)."""
    check_fits(xi.n, xi.p, phi.n, phi.p)
    idx0, c = phi._compact()
    _, first = first_jet(c, idx0, xi.frame[None], xi.normal_frame()[None])
    return first[0].T


def annihilator_check(xi, module):
    """|Phi(xi)|_2, residual_module's bits; no orthonormal change of the module's basis moves it; ~0 iff critical."""
    check_fits(xi.n, xi.p, module.n, module.degree)
    return float(np.linalg.norm(module.values_on(xi.frame).T, axis=1)[0])


def rho_product(phi, vectors):
    """The alternating (p-1)-fold vector product dual to phi.

    Component k is phi(eps_k, v_2, .., v_p) for the standard basis eps_k.
    """
    if phi.p == 0:
        raise ValueError("rho needs a form of degree >= 1")
    vs = [np.asarray(v, dtype=float) for v in vectors]
    if len(vs) != phi.p - 1:
        raise ValueError(f"expected {phi.p - 1} vectors, got {len(vs)}")
    rest = np.column_stack(vs) if vs else np.zeros((phi.n, 0))
    if rest.shape[0] != phi.n:
        raise ValueError(f"form on R^{phi.n} against vectors in R^{rest.shape[0]}")
    idx0, c = phi._compact()
    return _slot_values(c, idx0, rest[None])[0]


def rho_closed(xi, phi, tol=DEFAULT_TOL):
    """True iff the plane is closed under rho (equivalently, critical).

    One slot jet gives rho on the p frames F without column a.  Their
    normal components must vanish, and rho(f_2 .. f_p) must be value * f_1,
    value = rho(f_2 .. f_p) . f_1.  Both tests compare with tol times the
    largest |coefficient| of phi (tol for the zero form), since rho scales
    with phi.  A 0-plane has no (p-1)-subsets, so it is closed.  A tol
    within a few ulps of the residuals' round-off, around 1e-13, has no
    defined verdict: rho's normal components are is_critical's cousin
    residual summed in another order, so the two may split there.
    """
    check_fits(xi.n, xi.p, phi.n, phi.p)
    atol = _atol(phi, tol)
    if xi.p == 0:
        return True
    idx0, c = phi._compact()
    rho = _slot_values(c, idx0, np.stack([np.delete(xi.frame, a, axis=1) for a in range(xi.p)]))
    # N^T rho_a as one matrix-vector product per frame; rho @ N rounds differently
    if np.max(np.abs(xi.normal_frame().T @ rho[..., None]), initial=0.0) >= atol:
        return False
    value = rho[0] @ xi.frame[:, 0]
    trailing = np.max(np.abs(rho[0] - value * xi.frame[:, 0]))
    return bool(abs(value) <= atol or trailing < max(atol, 10 * tol * abs(value)))


def criticality_reports(frames, phi, tol=DEFAULT_TOL, module=None):
    """Three-residual criticality report of each frame of an (m, n, p) orthonormal stack.

    The value, cousin coefficients and module values come from one first jet
    of the search's rows [phi; module], so a searched plane reports its
    catalog value bit for bit.  residual_module is the Euclidean norm of the
    module's values, which no orthonormal change of its basis moves.
    residual_rho, the largest normal component of rho over the (p-1)-subsets
    of the frame, comes from the same jet: rho(e_1 .. ^e_a .. e_p) . n_s =
    phi(n_s, e_1 .. ^e_a .. e_p) = (-1)^a G[s, a], so it is the largest
    |G[s, a]|, the cousin residual; rho_closed evaluates rho on its own.  A
    plane is critical when its cousin residual is below tol times the
    largest |coefficient| of phi (tol for the zero form); every test of phi
    raises ValueError unless 0 < tol < inf.
    """
    check_fits(frames.shape[1], frames.shape[2], phi.n, phi.p)
    atol = _atol(phi, tol)
    if module is None:
        module = phi_module(phi)
    idx0, rows = _module_rows(phi, module)
    normals = completions(frames)[:, :, phi.p :]
    values, first = first_jet(rows, idx0, frames, normals)
    # rho's normal components are the cousin coefficients up to sign
    cousin = np.max(np.abs(first[:, 0]), axis=(1, 2), initial=0.0)
    residual_module = np.linalg.norm(values[:, 1:], axis=1)
    return [
        CriticalityReport(float(g), float(mod), float(g), float(v), bool(g < atol))
        for g, mod, v in zip(cousin, residual_module, values[:, 0])
    ]


def is_critical(xi, phi, tol=DEFAULT_TOL, module=None):
    """Full three-residual criticality report for one plane (see criticality_reports).

    A tol within a few ulps of the residuals' round-off, around 1e-13 (times
    the largest |coefficient| of phi, as every tol), has no defined verdict:
    on a plane whose cousin residual is that small, is_critical and
    rho_closed sum the same numbers in other orders and may split.
    """
    return criticality_reports(xi.frame[None], phi, tol=tol, module=module)[0]


# -- second fundamental form constraints ------------------------------------


def _adapted_values(phi, xi):
    """Critical value, cousin and double-replacement coefficients in the adapted frame.

    Returns (phi_o, G, T) from one first jet of the plane and its p k frames
    that have column a replaced by normal s.  G[a, s] (cousin_matrix
    transposed) replaces tangent slot a with normal direction s, and
    T[a, b, s, t] replaces slot a with normal s and slot b with normal t.
    """
    n, p = xi.n, xi.p
    k = n - p
    comp = xi.completion()
    frame, normals = comp[:, :p], comp[:, p:]
    frames = np.broadcast_to(frame, (1 + p * k, n, p)).copy()
    frames[1:].reshape(p, k, n, p)[np.arange(p), :, :, np.arange(p)] = normals.T  # writes through the view
    idx0, c = phi._compact()
    values, first = first_jet(c, idx0, frames, np.broadcast_to(normals, (1 + p * k, n, k)))
    T = first[1:].reshape(p, k, p, k).transpose(0, 2, 1, 3)
    # slots coincide: the replacement coefficient is zero by convention
    T[np.arange(p), np.arange(p)] = 0.0
    return float(values[0]), first[0], T


def sff_space(xi, phi, tol=DEFAULT_TOL):
    """Solution space of the adapted-frame constraint on second fundamental forms.

    Solves phi_o * h[s, a, c] = sum_{b, t} T[a, b, s, t] * h[t, b, c] over
    symmetric h, returning (basis, all_trace_free); the solution space is the
    numerical null space of the system at RANK_TOL.  At a critical plane with
    phi_o != 0 every solution is trace-free: the paper's Theorem 1
    (phi-critical submanifolds with nonzero critical value are minimal).
    Raises NotCriticalError, a ValueError, when xi is not critical.
    """
    check_fits(xi.n, xi.p, phi.n, phi.p)
    atol = _atol(phi, tol)
    phi_o, G, T = _adapted_values(phi, xi)
    # the cousin residual alone decides criticality (see criticality_reports)
    residual = float(np.max(np.abs(G), initial=0.0))
    if not residual < atol:
        raise NotCriticalError(f"plane is not critical (residual {residual:.3e})")
    p, k = G.shape
    if k == 0:
        return [], False
    # sym maps the unknowns h[t, b, c], b <= c, in (t, b, c) order onto all of h
    b, c = np.triu_indices(p)
    t, u = np.arange(k)[:, None], np.arange(len(b))
    sym = np.zeros((k, p, p, k, len(b)))
    sym[t, b, c, t, u] = sym[t, c, b, t, u] = 1.0
    sym = sym.reshape(k * p * p, k * len(b))
    # rows (s, a, c): phi_o h[s, a, c] - sum_{b, t} T[a, b, s, t] h[t, b, c]
    coupling = T.transpose(2, 0, 3, 1).reshape(k * p, k * p)
    op = np.kron(phi_o * np.eye(k * p) - coupling, np.eye(p))
    _, sv, vt = np.linalg.svd(op @ sym)
    basis = [SffElement(h=(sym @ v).reshape(k, p, p)) for v in vt[numerical_rank(sv, RANK_TOL) :]]
    all_trace_free = bool(basis) and all(e.trace_residual() < 1e-10 for e in basis)
    return basis, all_trace_free
