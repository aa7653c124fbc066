"""Constructors for the named calibration families.

Families: associative and coassociative 3-/4-forms on R^7, the self-dual
Cayley 4-form on R^8 (both explicitly and by squaring spinors), the special
Lagrangian family on R^(2m), and the Cartan 3-form of su(k).  Coordinate
conventions are fixed here once; correctness is enforced by the numerical
post-conditions (comass, stabilizer dimension, module rank) rather than by
any particular table.  One family table (_FAMILIES) names each family's
builder and the spec options it reads; CalibrationSpec, build_calibration
and the CLI's --family options all read it.  A builder builds its form and
no module.  Coefficients are gathered with array operations, not one term
at a time: the Cartan form's from the structure tensor's increasing
triples, a spinor square's from all C(8, k) gamma products at once.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .exterior import (
    AltForm,
    _index_table,
    canonical_indices,
    form_from_json,
    hodge_star,
    parse_form,
    sort_index,
    stack_values,
    wedge,
)
from .critical import FormModule, OrientedPlane, completions, qr_fix

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


def cayley_form():
    """The self-dual Cayley 4-form on R^8.

    Built from the single octonion table behind the associative form:
    e^1 ^ phi + *phi on the slots 2..8, which avoids sign drift between two
    hand-entered coefficient lists.  Each term of e^1 ^ phi is a term of phi
    with 1 in front, so no sign changes, and no index of *phi holds 1.
    """
    phi = associative_form()
    terms = {(1, *(i + 1 for i in I)): c for I, c in phi.coeffs.items()}
    terms.update({tuple(i + 1 for i in I): c for I, c in hodge_star(phi).coeffs.items()})
    return AltForm(8, 4, terms)


def octonion_left_mult():
    """Left-multiplication matrices L[i] of the octonion units u_0=1, u_1..u_7.

    The imaginary part multiplies by u_i u_j = -delta_ij + phi_ijk u_k with
    phi the associative form, so the table and the form share one convention.
    """
    idx, c = associative_form()._compact()
    L = np.zeros((8, 8, 8))
    # L[i][k, j] = phi_ijk, phi spread over the permutations of its indices
    for perm in itertools.permutations(range(3)):
        L[tuple(idx[:, perm].T[[0, 2, 1]] + 1)] = sort_index(perm)[0] * c
    i = np.arange(1, 8)
    L[0], L[i, i, 0], L[i, 0, i] = np.eye(8), 1.0, -1.0
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


def _dz_terms(js):
    """(Re, Im) term dicts of dz^j1 ^ .. ^ dz^jk for increasing js; the empty product is 1.

    Factor j gives e^(2j-1), or i e^(2j) in its y-slot: the term with y-slots
    c has the increasing index (2j - 1 + c_j) and coefficient i^|c|.
    """
    parts = ({}, {})
    for c in itertools.product((0, 1), repeat=len(js)):
        w = sum(c)
        parts[w % 2][tuple(2 * j - 1 + y for j, y in zip(js, c))] = (-1.0) ** (w // 2)
    return parts


def _upsilon(m, phase):
    """(Re, Im) of e^{i phase} dz^1 ^ .. ^ dz^m on R^(2m): the family table's calibration and its companion.

    With Upsilon = re + i im, e^{i phase} Upsilon = (c re - s im) + i (s re +
    c im); re and im share no index, so each term is one product.
    """
    if not 2 <= m <= 4:
        raise ValueError("m must be between 2 and 4")
    if not np.isfinite(phase):
        raise ValueError(f"phase must be finite, got {phase}")
    re, im = _dz_terms(range(1, m + 1))
    c, s = np.cos(phase), np.sin(phase)
    real = {**{I: c * v for I, v in re.items()}, **{I: -(s * v) for I, v in im.items()}}
    imag = {**{I: s * v for I, v in re.items()}, **{I: c * v for I, v in im.items()}}
    return AltForm(2 * m, m, real), AltForm(2 * m, m, imag)


def special_lagrangian(m, phase=0.0):
    """Build Re(e^{i phase} dz^1 ^ .. ^ dz^m) and its companions.

    Real coordinates are interleaved: dz^j = e^{2j-1} + i e^{2j}.  calib and
    im_upsilon come from _upsilon, as build_calibration's form does; only
    this builds phi_w, spanned by the (m - 2)-fold dz-products wedged with sigma.

    For m >= 3 the stabilizer of calib in o(2m) is su(m), of dimension
    m^2 - 1, and the module Phi has rank m^2 - m + 1.  For m = 2,
    Re(dz^1 ^ dz^2) = e13 - e24 is the Kaehler form of a second orthogonal
    complex structure, so the stabilizer is u(2), of dimension 4, and Phi
    has rank 2.
    """
    calib, im_rot = _upsilon(m, phase)
    n = 2 * m
    sigma = AltForm(n, 2, {(2 * j - 1, 2 * j): 1.0 for j in range(1, m + 1)})
    spanning = []
    for J in itertools.combinations(range(1, m + 1), m - 2):
        for part in _dz_terms(J):
            spanning.append(wedge(AltForm(n, m - 2, part), sigma))
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
        # the residuals scale with the constants, and the Jacobi sum with their square
        scale = np.max(np.abs(c), initial=0.0)
        if np.max(np.abs(c + np.swapaxes(c, 0, 1))) > 1e-10 * scale:
            raise ValueError("structure constants are not antisymmetric")
        if np.max(np.abs(c + np.swapaxes(c, 1, 2))) > 1e-10 * scale:
            raise ValueError("the metric is not invariant (c not totally antisymmetric)")
        # cc[i, j, k, l] = sum_m a[i, j, m] a[m, k, l], one product, for a the part
        # of c antisymmetric in (i, j); the cyclic Jacobi sum of a is then exactly
        # alternating in (i, j, k), so the triples i < j < k decide it
        a = (c - np.swapaxes(c, 0, 1)) / 2
        cc = (a.reshape(-1, self.dim) @ a.reshape(self.dim, -1)).reshape((self.dim,) * 4)
        i, j, k = _index_table(self.dim, 3).T
        jac = cc[i, j, k] + cc[j, k, i] + cc[k, i, j]
        if np.max(np.abs(jac), initial=0.0) > 1e-10 * scale**2:
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
    """Coordinates -tr(X B_l) of a matrix, or of a stack, in the basis."""
    return -np.einsum("...ab,lba->...l", x, np.asarray(basis)).real


def su_lie_algebra(k):
    """su(k) with the -tr(XY) metric, realified to an orthonormal basis."""
    if not 2 <= k <= 4:
        raise ValueError("k must be between 2 and 4")
    basis = np.array(_su_matrix_basis(k))
    n = len(basis)
    # the brackets of all pairs i < j, in their coordinates -tr([X_i, X_j] X_l)
    a = np.arange(n)
    i, j = np.nonzero(a[:, None] < a)
    br = basis[i] @ basis[j] - basis[j] @ basis[i]
    coords = -np.einsum("pab,lba->pl", br, basis).real
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
    frame, _ = qr_fix(_su_coords(np.array([x1, x2, x3]) / np.sqrt(2.0), basis).T)
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
    frame, _ = qr_fix(_su_coords(1.0j * np.array([jy, jx, jz]), basis).T)
    return OrientedPlane(frame)


def cartan_three_form(g):
    """The invariant 3-form c <u, [v, w]> of a compact Lie algebra, comass 1.

    The constant c is fixed by requiring value 1 on the orthonormalized
    highest-root su(2); the comass estimator cross-checks the normalization.
    The terms are the structure constants at increasing (i, j, k) above
    1e-14 times the largest, and both cutoffs scale with the constants.
    """
    if g.highest_root_frame is None:
        raise ValueError("normalization requires a highest-root su(2) frame")
    c, a = g.structure, np.arange(g.dim)
    scale = np.max(np.abs(c), initial=0.0)
    idx = np.argwhere((a[:, None, None] < a[:, None]) & (a[:, None] < a) & (np.abs(c) > 1e-14 * scale))
    coeffs, frame = c[tuple(idx.T)], np.asarray(g.highest_root_frame, dtype=float)
    if frame.shape != (g.dim, 3):
        raise ValueError(f"expected a {g.dim} x 3 highest-root frame")
    value = stack_values(coeffs, idx, frame[None])[0]
    if abs(value) <= 1e-12 * scale:
        raise ValueError("degenerate highest-root frame")
    return AltForm(g.dim, 3, dict(zip(map(tuple, (idx + 1).tolist()), ((1.0 / abs(value)) * coeffs).tolist())))


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

    def gamma_products(self, k):
        """(C(8, k), 16, 16): gamma_{i1} .. gamma_{ik} for each I of canonical_indices(8, k), built once per model."""
        cached = self._gamma_products.get(k)
        if cached is None:
            idx = _index_table(8, k)
            cached = np.broadcast_to(np.eye(16), (len(idx), 16, 16))
            for i in idx.T:
                cached = cached @ np.asarray(self.gamma)[i]
            self._gamma_products[k] = cached
        return cached

    def _component(self, endo, k):
        """Degree-k component of an endomorphism under Cl(V) ~ Lambda V*: c_I = tr(gamma_I^T endo) / 16.

        Each gamma_I is a signed permutation, so each diagonal entry of
        gamma_I^T endo is one signed entry of endo, and the trace adds them.
        """
        c = np.einsum("iab,ab->ib", self.gamma_products(k), endo).sum(axis=1) / 16.0
        idx = canonical_indices(8, k)
        return AltForm(8, k, {idx[i]: c[i] for i in np.flatnonzero(np.abs(c) > 1e-14).tolist()})

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
        basis = self.s_plus @ completions(coords[None, :, None])[0]
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

def _cartan(algebra):
    name = algebra.strip().lower().replace("(", "").replace(")", "")
    if not name.startswith("su"):
        raise ValueError(f"unsupported algebra {algebra!r}")
    return cartan_three_form(su_lie_algebra(int(name[2:])))


# family -> (builder of its form from a CalibrationSpec, the spec options it
# reads, the first one required); n is the dimension of a text form literal
_FAMILIES = {
    "associative": (lambda spec: associative_form(), ()),
    "coassociative": (lambda spec: coassociative_form(), ()),
    "cayley": (lambda spec: cayley_form(), ()),
    "special_lagrangian": (lambda spec: _upsilon(spec.m, spec.phase)[0], ("m", "phase")),
    "cartan": (lambda spec: _cartan(spec.algebra), ("algebra",)),
    "custom": (lambda spec: spec.form, ("form", "n")),
}


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
        reads = _FAMILIES[self.family][1]
        if reads and getattr(self, reads[0]) is None:
            raise ValueError(f"{self.family} requires {reads[0]}")

    @classmethod
    def from_json(cls, obj):
        """A spec from its JSON object; raises ValueError naming the first malformed field.

        m, algebra and form may be null or absent; phase may be absent.
        """
        if isinstance(obj, str):
            obj = json.loads(obj)
        if not isinstance(obj, dict):
            raise ValueError("a spec must be a JSON object with a 'family'")
        if not isinstance(obj.get("family"), str):
            raise ValueError("spec field 'family' must be a string")
        m, phase, algebra = obj.get("m"), obj.get("phase", 0.0), obj.get("algebra")
        if m is not None and type(m) is not int:  # bool is an int subclass
            raise ValueError("spec field 'm' must be an integer")
        if isinstance(phase, bool) or not isinstance(phase, (int, float)) or not math.isfinite(phase):
            raise ValueError("spec field 'phase' must be a finite number")
        if algebra is not None and not isinstance(algebra, str):
            raise ValueError("spec field 'algebra' must be a string")
        form = obj.get("form")
        if form is not None:
            form = form_from_json(form)
        return cls(family=obj["family"], m=m, phase=float(phase), algebra=algebra, form=form)


def build_calibration(spec):
    """Build the AltForm described by a CalibrationSpec."""
    return _FAMILIES[spec.family][0](spec)
