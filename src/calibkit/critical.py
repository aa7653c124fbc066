"""Criticality of oriented p-planes for a constant-coefficient p-form.

Three equivalent tests are implemented: the first-cousin coefficients
(residual_cousin), vanishing of the induced module of forms
(residual_module), and closure under the associated alternating vector
product (residual_rho).  The module is the image of o(n) acting on the
form; its annihilator on the Grassmannian is exactly the critical set.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .exterior import (
    AltForm,
    SkewMap,
    canonical_indices,
    evaluate,
    first_jet,
    so_action,
    so_action_matrix,
    stack_values,
)

__all__ = [
    "OrientedPlane",
    "FormModule",
    "CriticalityReport",
    "SffElement",
    "p_map",
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

    def __init__(self, frame, tol=1e-10, orthonormalize=False):
        f = np.array(frame, dtype=float)
        if f.ndim != 2:
            raise ValueError("frame must be a 2-d array of columns")
        n, p = f.shape
        if p > n:
            raise ValueError(f"p={p} exceeds n={n}")
        if not np.isfinite(f).all():
            raise ValueError("frame columns must be finite")
        gram = f.T @ f
        # a frame is kept as given only within tol of orthonormal, entrywise
        if not np.max(np.abs(gram - np.eye(p)), initial=0.0) <= tol:
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
    """A subspace of degree-p forms, stored as a matrix of orthonormal rows.

    Row i holds the coefficients of the i-th basis form over
    canonical_indices(n, degree).  The basis as AltForms is built on first use.
    """

    def __init__(self, n, degree, rows):
        self.n = n
        self.degree = degree
        self._idx0 = np.array(canonical_indices(n, degree), dtype=np.intp) - 1
        # adding 0.0 turns -0.0 into 0.0, so each row equals its AltForm's dense()
        self._coeff_mat = np.asarray(rows, dtype=float).reshape(-1, len(self._idx0)) + 0.0
        self.rank = self._coeff_mat.shape[0]
        self._basis = None

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
            self._basis = [AltForm.from_dense(self.n, self.degree, row) for row in self._coeff_mat]
        return self._basis

    def dense_matrix(self):
        """Orthonormal basis as rows over the canonical index ordering."""
        return self._coeff_mat

    def values_on(self, frames):
        """Evaluate every basis form on a stack of frames, shape (rank, m)."""
        frames = np.asarray(frames, dtype=float)
        if frames.ndim == 2:
            frames = frames[None]
        return stack_values(self._coeff_mat, self._idx0, frames).T

    def contains(self, form):
        """True when form lies in the module, up to RANK_TOL * max(1, |form|)."""
        v = form.dense()
        resid = v - self._coeff_mat.T @ (self._coeff_mat @ v)
        return float(np.linalg.norm(resid)) <= RANK_TOL * max(1.0, np.linalg.norm(v))

    def __repr__(self):
        return f"FormModule(n={self.n}, degree={self.degree}, rank={self.rank})"


def _module_rows(phi, module):
    """Stack phi's own dense coefficients on top of the module's: (idx0, rows) for first_jet."""
    check_fits(phi.n, phi.p, module.n, module.degree)
    return module._idx0, np.vstack([phi.dense()[None, :], module.dense_matrix()])


def numerical_rank(s, cutoff):
    """Number of singular values s (descending) above cutoff * s[0]; 0 for a zero matrix."""
    return int(np.sum(s > cutoff * s[0])) if s.size and s[0] > 0 else 0


def tol_scale(phi):
    """Largest |coefficient| of phi (1 for the zero form): residuals of phi scale with it."""
    return max((abs(c) for c in phi.coeffs.values()), default=1.0)


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


# -- the map P and the module Phi ------------------------------------------


def p_map(theta, phi):
    """The map o(n) -> degree-p forms, theta -> theta.phi."""
    return so_action(theta, phi)


def _action_svd(phi):
    """SVD (u, s, vt) of so_action_matrix(phi), with u square.

    The rows vt[:rank] span the module; the columns u[:, rank:] the stabilizer.
    """
    mat = so_action_matrix(phi)
    return np.linalg.svd(mat, full_matrices=mat.shape[0] > mat.shape[1])


def phi_module(phi):
    """Orthonormal basis of the image of o(n) acting on phi (rank cutoff RANK_TOL)."""
    _, s, vt = _action_svd(phi)
    return FormModule(phi.n, phi.p, vt[: numerical_rank(s, RANK_TOL)])


def stabilizer_dim(phi):
    """Dimension of the stabilizer algebra of phi inside o(n)."""
    n = phi.n
    return n * (n - 1) // 2 - phi_module(phi).rank


def stabilizer_kernel(phi):
    """Orthonormal basis of the stabilizer algebra, as a list of SkewMap."""
    n = phi.n
    u, s, _ = _action_svd(phi)
    null = u[:, numerical_rank(s, RANK_TOL) :]
    upper = np.triu_indices(n, 1)
    m = np.zeros((null.shape[1], n, n))
    m[:, upper[0], upper[1]] = null.T
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
    """max |gamma(xi)| over the module basis; ~0 iff xi is critical."""
    check_fits(xi.n, xi.p, module.n, module.degree)
    return float(np.max(np.abs(module.values_on(xi.frame)), initial=0.0))


def _rho_stack(phi, rest):
    """rho of each (p-1)-frame of an (m, n, p-1) stack, shape (m, n)."""
    m, n = rest.shape[:2]
    idx0, c = phi._compact()
    # frames[i, j] is rest[i] with the basis vector eps_j in front
    frames = np.zeros((m, n, n, phi.p))
    frames[:, :, :, 1:] = rest[:, None]
    frames[:, np.arange(n), np.arange(n), 0] = 1.0
    return stack_values(c, idx0, frames.reshape(m * n, n, phi.p)).reshape(m, n)


def rho_product(phi, vectors):
    """The alternating (p-1)-fold vector product dual to phi.

    Component k is phi(eps_k, v_2, .., v_p) for the standard basis eps_k.
    """
    vs = [np.asarray(v, dtype=float) for v in vectors]
    if len(vs) != phi.p - 1:
        raise ValueError(f"expected {phi.p - 1} vectors, got {len(vs)}")
    rest = np.column_stack(vs) if vs else np.zeros((phi.n, 0))
    if rest.shape[0] != phi.n:
        raise ValueError(f"form on R^{phi.n} against vectors in R^{rest.shape[0]}")
    return _rho_stack(phi, rest[None])[0]


def _rho_residuals(phi, frames, normals):
    """Max normal component of rho over all (p-1)-subsets of each frame."""
    worst = np.zeros(len(frames))
    if normals.shape[2] == 0:
        return worst
    for drop in range(frames.shape[2]):
        r = _rho_stack(phi, np.delete(frames, drop, axis=2))
        worst = np.maximum(worst, np.max(np.abs(np.swapaxes(normals, 1, 2) @ r[..., None]), axis=(1, 2)))
    return worst


def rho_closed(xi, phi, tol=DEFAULT_TOL):
    """True iff the plane is closed under rho (equivalently, critical).

    Both tests compare with tol times the largest |coefficient| of phi (tol
    itself for the zero form), since rho scales with phi.
    """
    check_fits(xi.n, xi.p, phi.n, phi.p)
    atol = tol * tol_scale(phi)
    resid = _rho_residuals(phi, xi.frame[None], xi.normal_frame()[None])[0]
    if resid >= atol:
        return False
    value = evaluate(phi, xi)
    if abs(value) > atol:
        # on a critical plane, rho of the trailing frame vectors recovers
        # value * e_1
        r = rho_product(phi, [xi.frame[:, a] for a in range(1, xi.p)])
        if np.max(np.abs(r - value * xi.frame[:, 0])) >= max(atol, 10 * tol * abs(value)):
            return False
    return True


def criticality_reports(frames, phi, tol=DEFAULT_TOL, module=None):
    """Three-residual criticality report of each frame of an (m, n, p) orthonormal stack.

    The value, cousin coefficients and module values come from one first jet
    of the search's rows [phi; module], so a searched plane reports its
    catalog value bit for bit.  A plane is critical when its cousin residual
    is below tol times the largest |coefficient| of phi (tol for the zero form).
    """
    check_fits(frames.shape[1], frames.shape[2], phi.n, phi.p)
    if module is None:
        module = phi_module(phi)
    idx0, rows = _module_rows(phi, module)
    normals = completions(frames)[:, :, phi.p :]
    values, first = first_jet(rows, idx0, frames, normals)
    cousin = np.max(np.abs(first[:, 0]), axis=(1, 2), initial=0.0)
    residual_module = np.max(np.abs(values[:, 1:]), axis=1, initial=0.0)
    residual_rho = _rho_residuals(phi, frames, normals)
    # the cousin coefficients scale with phi; the zero form keeps the absolute tol
    atol = tol * tol_scale(phi)
    return [
        CriticalityReport(float(g), float(mod), float(rho), float(v), bool(g < atol))
        for g, mod, rho, v in zip(cousin, residual_module, residual_rho, values[:, 0])
    ]


def is_critical(xi, phi, tol=DEFAULT_TOL, module=None):
    """Full three-residual criticality report for one plane (see criticality_reports)."""
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
    phi_o, G, T = _adapted_values(phi, xi)
    # the cousin residual alone decides criticality (see criticality_reports)
    residual = float(np.max(np.abs(G), initial=0.0))
    if not residual < tol * tol_scale(phi):
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
