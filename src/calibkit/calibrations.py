"""Constructors for the named calibration families.

Families: associative and coassociative 3-/4-forms on R^7, the self-dual
Cayley 4-form on R^8 (both explicitly and by squaring spinors), the special
Lagrangian family on R^(2m), and the Cartan 3-form of su(k).  Coordinate
conventions are fixed here once; correctness is enforced by the numerical
post-conditions (comass, stabilizer dimension, module rank) rather than by
any particular table.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .exterior import AltForm, form_from_json, hodge_star, parse_form, wedge
from .critical import FormModule, OrientedPlane, qr_fix

__all__ = [
    "associative_form",
    "coassociative_form",
    "cayley_form",
    "octonion_left_mult",
    "SpecialLagrangian",
    "special_lagrangian",
    "LieAlgebraData",
    "su_lie_algebra",
    "su3_principal_plane",
    "cartan_three_form",
    "CliffordModel",
    "build_clifford",
    "CalibrationSpec",
    "build_calibration",
]

# Octonion-multiplication convention; comass 1, stabilizer dimension 14.
_ASSOCIATIVE = "e123 + e145 + e167 + e246 - e257 - e347 - e356"


def associative_form():
    """The G2-invariant associative 3-form on R^7."""
    return parse_form(_ASSOCIATIVE, n=7)


def coassociative_form():
    """The coassociative 4-form, the Hodge star of the associative form."""
    return hodge_star(associative_form())


def _shift_indices(a, n_new, offset):
    return AltForm(
        n_new, a.p, {tuple(i + offset for i in I): c for I, c in a.coeffs.items()}
    )


def cayley_form():
    """The self-dual Cayley 4-form on R^8.

    Built from the single octonion table behind the associative form:
    e^1 ^ phi + *phi on the slots 2..8, which avoids sign drift between two
    hand-entered coefficient lists.
    """
    phi = associative_form()
    p3 = _shift_indices(phi, 8, 1)
    p4 = _shift_indices(hodge_star(phi), 8, 1)
    return wedge(AltForm.basis(8, 1), p3) + p4


def octonion_left_mult():
    """Left-multiplication matrices L[i] of the octonion units u_0=1, u_1..u_7.

    The imaginary part multiplies by u_i u_j = -delta_ij + phi_ijk u_k with
    phi the associative form, so the table and the form share one convention.
    """
    phi = associative_form()
    L = np.zeros((8, 8, 8))
    L[0] = np.eye(8)
    for i in range(1, 8):
        L[i][i, 0] = 1.0
        L[i][0, i] = -1.0
        for j in range(1, 8):
            if j == i:
                continue
            for k in range(1, 8):
                c = phi.coefficient((i, j, k))
                if c != 0.0:
                    L[i][k, j] = c
    return L


# -- special Lagrangian ------------------------------------------------------


@dataclass
class SpecialLagrangian:
    """The special Lagrangian data on R^(2m), coordinates (x1,y1,..,xm,ym)."""

    m: int
    phase: float
    calib: AltForm  # Re(e^{i phase} Upsilon)
    sigma: AltForm  # the standard Kaehler 2-form
    im_upsilon: AltForm  # Im(e^{i phase} Upsilon)
    phi_w: FormModule


def _complex_wedge(a, b):
    re = wedge(a[0], b[0]) - wedge(a[1], b[1])
    im = wedge(a[0], b[1]) + wedge(a[1], b[0])
    return re, im


def special_lagrangian(m, phase=0.0):
    """Build Re(e^{i phase} dz^1 ^ .. ^ dz^m) and its companions.

    Real coordinates are interleaved: dz^j = e^{2j-1} + i e^{2j}.

    For m >= 3 the stabilizer of calib in o(2m) is su(m), of dimension
    m^2 - 1, and the module Phi has rank m^2 - m + 1.  For m = 2,
    Re(dz^1 ^ dz^2) = e13 - e24 is the Kaehler form of a second orthogonal
    complex structure, so the stabilizer is u(2), of dimension 4, and Phi
    has rank 2.
    """
    if not 2 <= m <= 4:
        raise ValueError("m must be between 2 and 4")
    n = 2 * m

    def dz(j):
        return AltForm.basis(n, 2 * j - 1), AltForm.basis(n, 2 * j)

    def dz_product(js):
        acc = (AltForm.constant(n, 1.0), AltForm.constant(n, 0.0))
        for j in js:
            acc = _complex_wedge(acc, dz(j))
        return acc

    re_u, im_u = dz_product(range(1, m + 1))
    sigma = AltForm(n, 2, {(2 * j - 1, 2 * j): 1.0 for j in range(1, m + 1)})
    c, s = np.cos(phase), np.sin(phase)
    calib = c * re_u - s * im_u
    im_rot = s * re_u + c * im_u
    spanning = []
    for J in itertools.combinations(range(1, m + 1), m - 2):
        re_j, im_j = dz_product(J)
        spanning.append(wedge(re_j, sigma))
        spanning.append(wedge(im_j, sigma))
    phi_w = FormModule.from_spanning(n, m, spanning)
    return SpecialLagrangian(
        m=m, phase=float(phase), calib=calib, sigma=sigma, im_upsilon=im_rot, phi_w=phi_w
    )


# -- Cartan 3-form -----------------------------------------------------------


@dataclass
class LieAlgebraData:
    """A compact Lie algebra in an orthonormal basis.

    structure[i, j, k] is the e_k coefficient of [e_i, e_j]; with an
    orthonormal invariant metric it is totally antisymmetric.
    """

    dim: int
    structure: np.ndarray
    highest_root_frame: Optional[np.ndarray] = None  # dim x 3, spans a root su(2)
    name: str = ""

    def __post_init__(self):
        c = np.asarray(self.structure, dtype=float)
        if c.shape != (self.dim,) * 3:
            raise ValueError("structure constants have wrong shape")
        if np.max(np.abs(c + np.swapaxes(c, 0, 1))) > 1e-10:
            raise ValueError("structure constants are not antisymmetric")
        if np.max(np.abs(c + np.swapaxes(c, 1, 2))) > 1e-10:
            raise ValueError("the metric is not invariant (c not totally antisymmetric)")
        jac = (
            np.einsum("ijm,mkl->ijkl", c, c)
            + np.einsum("jkm,mil->ijkl", c, c)
            + np.einsum("kim,mjl->ijkl", c, c)
        )
        if np.max(np.abs(jac)) > 1e-10:
            raise ValueError("structure constants violate the Jacobi identity")
        self.structure = c

    def bracket(self, u, v):
        return np.einsum("ijk,i,j->k", self.structure, u, v)


def _su_matrix_basis(k):
    """Orthonormal basis of su(k) for <X, Y> = -tr(XY)."""
    basis = []
    for a in range(k):
        for b in range(a + 1, k):
            m = np.zeros((k, k), dtype=complex)
            m[a, b], m[b, a] = 1.0, -1.0
            basis.append(m / np.sqrt(2.0))
            m = np.zeros((k, k), dtype=complex)
            m[a, b] = m[b, a] = 1.0j
            basis.append(m / np.sqrt(2.0))
    for d in range(1, k):
        v = np.zeros(k)
        v[:d], v[d] = 1.0, -float(d)
        basis.append(1.0j * np.diag(v / np.linalg.norm(v)))
    return basis


def _su_coords(x, basis):
    return np.array([-np.trace(x @ b).real for b in basis])


def su_lie_algebra(k):
    """su(k) with the -tr(XY) metric, realified to an orthonormal basis."""
    if not 2 <= k <= 4:
        raise ValueError("k must be between 2 and 4")
    basis = np.array(_su_matrix_basis(k))
    n = len(basis)
    # the brackets of all pairs i < j, in their coordinates -tr([X_i, X_j] X_l)
    i, j = np.triu_indices(n, 1)
    br = basis[i] @ basis[j] - basis[j] @ basis[i]
    coords = -np.trace(br[:, None] @ basis[None], axis1=-2, axis2=-1).real
    structure = np.zeros((n, n, n))
    structure[i, j] = coords
    structure[j, i] = -coords
    # su(2) of the highest root: the (1, k) corner
    x1 = np.zeros((k, k), dtype=complex)
    x1[0, k - 1], x1[k - 1, 0] = 1.0, -1.0
    x2 = np.zeros((k, k), dtype=complex)
    x2[0, k - 1] = x2[k - 1, 0] = 1.0j
    x3 = np.zeros((k, k), dtype=complex)
    x3[0, 0], x3[k - 1, k - 1] = 1.0j, -1.0j
    frame = np.column_stack(
        [_su_coords(x / np.sqrt(2.0), basis) for x in (x1, x2, x3)]
    )
    frame, _ = qr_fix(frame)
    return LieAlgebraData(dim=n, structure=structure, highest_root_frame=frame, name=f"su{k}")


def su3_principal_plane():
    """The principal (spin-1) su(2) inside su(3), as an oriented 3-plane.

    Oriented so the Cartan 3-form takes a positive value on it.
    """
    basis = _su_matrix_basis(3)
    jz = np.diag([1.0, 0.0, -1.0])
    jp = np.zeros((3, 3))
    jp[0, 1] = jp[1, 2] = np.sqrt(2.0)
    jx = (jp + jp.T) / 2.0
    jy = (jp - jp.T) / 2.0j
    frame = np.column_stack([_su_coords(1.0j * j, basis) for j in (jy, jx, jz)])
    frame, _ = qr_fix(frame)
    return OrientedPlane(frame)


def cartan_three_form(g):
    """The invariant 3-form c <u, [v, w]> of a compact Lie algebra, comass 1.

    The constant c is fixed by requiring value 1 on the orthonormalized
    highest-root su(2); the comass estimator cross-checks the normalization.
    """
    n = g.dim
    coeffs = {}
    for i, j, k in itertools.combinations(range(n), 3):
        v = g.structure[i, j, k]
        if abs(v) > 1e-14:
            coeffs[(i + 1, j + 1, k + 1)] = v
    raw = AltForm(n, 3, coeffs)
    if g.highest_root_frame is None:
        raise ValueError("normalization requires a highest-root su(2) frame")
    value = raw.apply(np.asarray(g.highest_root_frame))
    if abs(value) < 1e-12:
        raise ValueError("degenerate highest-root frame")
    return (1.0 / abs(value)) * raw


# -- squared spinors ---------------------------------------------------------


@dataclass
class CliffordModel:
    """A real 16-dimensional representation of the Clifford algebra of R^8.

    gamma[i] are symmetric, anticommuting, square to the identity; the
    volume element gamma_1 .. gamma_8 squares to the identity and its +-1
    eigenspaces are the 8-dimensional half-spinor spaces.
    """

    gamma: list  # eight 16 x 16 arrays
    volume_element: np.ndarray
    s_plus: np.ndarray  # 16 x 8 orthonormal basis of S+
    s_minus: np.ndarray
    _gamma_products: dict = field(default_factory=dict, repr=False)

    def gamma_product(self, idx):
        """gamma_{i1} .. gamma_{ik} for an increasing 1-based tuple."""
        idx = tuple(idx)
        cached = self._gamma_products.get(idx)
        if cached is None:
            g = np.eye(16)
            for i in idx:
                g = g @ self.gamma[i - 1]
            cached = self._gamma_products[idx] = g
        return cached

    def _component(self, endo, k):
        """Degree-k component of an endomorphism under Cl(V) ~ Lambda V*."""
        coeffs = {}
        for idx in itertools.combinations(range(1, 9), k):
            c = float(np.trace(self.gamma_product(idx).T @ endo)) / 16.0
            if abs(c) > 1e-14:
                coeffs[idx] = c
        return AltForm(8, k, coeffs)

    def spinor_square(self, x, k):
        """Degree-k component of 16 x o x for a unit positive spinor x."""
        x = np.asarray(x, dtype=float)
        if abs(np.linalg.norm(x) - 1.0) > 1e-10:
            raise ValueError("spinor must have unit norm")
        if not 0 <= k <= 8:
            raise ValueError("degree must lie in 0..8")
        return self._component(16.0 * np.outer(x, x), k)

    def psi_forms(self, x):
        """The degree-4 forms built from an orthogonal completion of x in S+.

        Completes x = x_0 to an orthonormal basis {x_0, .., x_7} of S+ and
        returns the module spanned by the degree-4 components of
        16 x_j o x_0, j = 1..7, together with the raw form list.
        """
        x = np.asarray(x, dtype=float)
        if abs(np.linalg.norm(x) - 1.0) > 1e-10:
            raise ValueError("spinor must have unit norm")
        coords = self.s_plus.T @ x
        if abs(np.linalg.norm(coords) - 1.0) > 1e-8:
            raise ValueError("spinor does not lie in S+")
        rot, _ = qr_fix(np.column_stack([coords, np.eye(8)]))
        basis = self.s_plus @ rot[:, :8]
        basis[:, 0] = x
        forms = [
            self._component(16.0 * np.outer(basis[:, j], x), 4) for j in range(1, 8)
        ]
        return forms, FormModule.from_spanning(8, 4, forms)


def build_clifford():
    """Build the real pinor representation from the octonion table."""
    L = octonion_left_mult()
    gamma = []
    for i in range(8):
        g = np.zeros((16, 16))
        g[:8, 8:] = L[i]
        g[8:, :8] = L[i].T
        gamma.append(g)
    vol = np.eye(16)
    for g in gamma:
        vol = vol @ g
    w, v = np.linalg.eigh(vol)
    order = np.argsort(-w)
    w, v = w[order], v[:, order]
    s_plus, _ = qr_fix(v[:, :8])
    s_minus, _ = qr_fix(v[:, 8:])
    return CliffordModel(
        gamma=gamma,
        volume_element=vol,
        s_plus=s_plus,
        s_minus=s_minus,
    )


# -- specs -------------------------------------------------------------------

_FAMILIES = ("associative", "coassociative", "cayley", "special_lagrangian", "cartan", "custom")


@dataclass
class CalibrationSpec:
    """A serializable description of which calibration to build."""

    family: str
    m: Optional[int] = None
    phase: float = 0.0
    algebra: Optional[str] = None
    form: Optional[AltForm] = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == "special_lagrangian" and self.m is None:
            raise ValueError("special_lagrangian requires m")
        if self.family == "cartan" and self.algebra is None:
            raise ValueError("cartan requires an algebra selector, e.g. su3")
        if self.family == "custom" and self.form is None:
            raise ValueError("custom requires an explicit form")

    @classmethod
    def from_json(cls, obj):
        if isinstance(obj, str):
            obj = json.loads(obj)
        form = obj.get("form")
        if form is not None:
            form = form_from_json(form)
        return cls(
            family=obj["family"],
            m=obj.get("m"),
            phase=float(obj.get("phase", 0.0)),
            algebra=obj.get("algebra"),
            form=form,
        )


def build_calibration(spec):
    """Build the AltForm described by a CalibrationSpec."""
    if spec.family == "associative":
        return associative_form()
    if spec.family == "coassociative":
        return coassociative_form()
    if spec.family == "cayley":
        return cayley_form()
    if spec.family == "special_lagrangian":
        return special_lagrangian(spec.m, spec.phase).calib
    if spec.family == "cartan":
        name = spec.algebra.strip().lower().replace("(", "").replace(")", "")
        if not name.startswith("su"):
            raise ValueError(f"unsupported algebra {spec.algebra!r}")
        return cartan_three_form(su_lie_algebra(int(name[2:])))
    return spec.form
