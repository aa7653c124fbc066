"""Calibration family constructors: frozen values and structural checks."""

import itertools

import numpy as np
import pytest

from calibkit import (
    AltForm,
    CalibrationSpec,
    FormModule,
    LieAlgebraData,
    OrientedPlane,
    SkewMap,
    associative_form,
    build_calibration,
    build_clifford,
    cartan_three_form,
    cayley_form,
    coassociative_form,
    hodge_star,
    octonion_left_mult,
    phi_module,
    so_action,
    special_lagrangian,
    stabilizer_dim,
    stabilizer_kernel,
    su3_principal_plane,
    su_lie_algebra,
    subspace_distance,
    wedge,
)
from calibkit.calibrations import _su_coords, _su_matrix_basis


def test_associative_frozen_values():
    phi = associative_form()
    assert (phi.n, phi.p) == (7, 3)
    assert len(phi.coeffs) == 7
    assert phi.norm() == pytest.approx(np.sqrt(7.0))
    assert phi.apply(np.eye(7)[:, :3]) == 1.0
    assert phi_module(phi).rank == 7
    assert stabilizer_dim(phi) == 14


def test_coassociative_frozen_values():
    psi = coassociative_form()
    assert (psi.n, psi.p) == (7, 4)
    assert psi.apply(np.eye(7)[:, 3:]) == 1.0
    assert phi_module(psi).rank == 7
    assert stabilizer_dim(psi) == 14
    # star of star returns the associative form (p(n-p) even)
    assert hodge_star(psi).approx_eq(associative_form(), tol=0.0)


def test_cayley_frozen_values():
    phi = cayley_form()
    assert (phi.n, phi.p) == (8, 4)
    assert len(phi.coeffs) == 14
    assert phi.apply(np.eye(8)[:, :4]) == 1.0
    assert hodge_star(phi).approx_eq(phi, tol=0.0)  # self-dual
    assert phi_module(phi).rank == 7
    assert stabilizer_dim(phi) == 21


def test_octonion_left_multiplication():
    L = octonion_left_mult()
    phi = associative_form()
    assert np.array_equal(L[0], np.eye(8))
    for i in range(1, 8):
        # imaginary units are orthogonal, square to -1, and anticommute
        assert np.allclose(L[i].T @ L[i], np.eye(8))
        assert np.allclose(L[i] @ L[i], -np.eye(8))
        for j in range(i + 1, 8):
            assert np.allclose(L[i] @ L[j] + L[j] @ L[i], 0.0)
    # u_i u_j = phi_ijk u_k for distinct imaginary units
    for i in range(1, 8):
        for j in range(1, 8):
            if i == j:
                continue
            prod = L[i][:, j]  # u_i * u_j in coordinates
            assert prod[0] == 0.0
            for k in range(1, 8):
                assert prod[k] == pytest.approx(phi.coefficient((i, j, k)), abs=0.0)


@pytest.mark.parametrize("m,dim_phi,dim_stab", [(2, 2, 4), (3, 7, 8), (4, 13, 15)])
def test_special_lagrangian_dimensions(m, dim_phi, dim_stab):
    sl = special_lagrangian(m)
    assert phi_module(sl.calib).rank == dim_phi
    assert stabilizer_dim(sl.calib) == dim_stab


def test_special_lagrangian_m2_stabilizer_is_u2():
    """At m = 2 the stabilizer is u(2), not su(2), checked against an explicit J'.

    Re(dz^1 ^ dz^2) = e13 - e24 is the Kaehler form g(J'., .) of a second
    orthogonal complex structure J'.  The stabilizer of a Kaehler form is the
    centralizer of J' in so(4), which is u(2) of dimension 4; so dim Phi = 6 - 4.
    """
    calib = special_lagrangian(2).calib
    # columns are images: J' e1 = e3, J' e2 = -e4, J' e3 = -e1, J' e4 = e2
    J = np.zeros((4, 4))
    J[2, 0], J[0, 2] = 1.0, -1.0
    J[3, 1], J[1, 3] = -1.0, 1.0
    assert np.array_equal(J @ J, -np.eye(4))
    assert np.array_equal(J.T, -J)
    pairs = list(itertools.combinations(range(4), 2))
    kaehler = AltForm(4, 2, {(i + 1, j + 1): J[j, i] for i, j in pairs})  # g(J'e_i, e_j)
    assert calib.approx_eq(kaehler, tol=0.0)
    # stabilizer <= u(2): every element the program finds commutes with J'
    kernel = stabilizer_kernel(calib)
    for t in kernel:
        assert np.allclose(t.entries @ J, J @ t.entries, atol=1e-12)
    # u(2) <= stabilizer: the centralizer of J', spanned by the averages
    # (A - J'AJ')/2 of the elementary generators, annihilates the form
    centralizer = []
    for i, j in pairs:
        a = SkewMap.rotation_generator(4, i + 1, j + 1).entries
        centralizer.append(0.5 * (a - J @ a @ J))
    assert np.linalg.matrix_rank(np.array([c.ravel() for c in centralizer])) == 4
    for c in centralizer:
        assert so_action(c, calib).norm() < 1e-12
    assert len(kernel) == 4


@pytest.mark.parametrize("m", [2, 3, 4])
def test_special_lagrangian_structure(m):
    sl = special_lagrangian(m)
    n = 2 * m
    # value 1 on the real locus span(x_1, .., x_m)
    real_frame = np.zeros((n, m))
    for j in range(m):
        real_frame[2 * j, j] = 1.0
    assert sl.calib.apply(real_frame) == pytest.approx(1.0)
    # sigma vanishes on the real locus and has norm sqrt(m)
    assert sl.sigma.apply(real_frame[:, :2]) == 0.0
    assert sl.sigma.norm() == pytest.approx(np.sqrt(m))
    # the module splits as span{Im Upsilon} + Phi_W
    mod = phi_module(sl.calib)
    spanned = FormModule.from_spanning(n, m, [sl.im_upsilon] + list(sl.phi_w.basis))
    assert subspace_distance(mod, spanned) < 1e-9


def test_special_lagrangian_phase_rotation():
    import math

    a = special_lagrangian(3, phase=0.4)
    b = special_lagrangian(3, phase=0.0)
    expected = math.cos(0.4) * b.calib - math.sin(0.4) * b.im_upsilon
    assert a.calib.approx_eq(expected, tol=1e-12)
    # phase rotation is an isometry of the pair (calib, im_upsilon)
    assert phi_module(a.calib).rank == phi_module(b.calib).rank


def test_special_lagrangian_rejects_bad_m():
    with pytest.raises(ValueError):
        special_lagrangian(1)
    with pytest.raises(ValueError):
        special_lagrangian(5)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_su_lie_algebra_valid(k):
    g = su_lie_algebra(k)
    assert g.dim == k * k - 1
    # the highest-root frame is orthonormal and closed under the bracket
    f = g.highest_root_frame
    assert np.allclose(f.T @ f, np.eye(3), atol=1e-12)
    for i, j in itertools.combinations(range(3), 2):
        br = g.bracket(f[:, i], f[:, j])
        resid = br - f @ (f.T @ br)
        assert np.max(np.abs(resid)) < 1e-12


@pytest.mark.parametrize("k", [2, 3, 4])
def test_su_structure_constants_match_pairwise_loop(k):
    """The stacked brackets equal, bit for bit, one bracket and trace per pair."""
    basis = _su_matrix_basis(k)
    n = len(basis)
    expected = np.zeros((n, n, n))
    for i, j in itertools.combinations(range(n), 2):
        br = basis[i] @ basis[j] - basis[j] @ basis[i]
        coords = _su_coords(br, basis)
        expected[i, j] = coords
        expected[j, i] = -coords
    assert np.array_equal(su_lie_algebra(k).structure, expected)


def test_lie_algebra_data_validation():
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = 1.0  # not antisymmetric in the first pair
    with pytest.raises(ValueError):
        LieAlgebraData(dim=3, structure=c)
    with pytest.raises(ValueError):
        LieAlgebraData(dim=3, structure=np.zeros((2, 2, 2)))


def test_cartan_form_su2_is_volume():
    phi = cartan_three_form(su_lie_algebra(2))
    assert phi.approx_eq(AltForm.volume(3), tol=1e-12)


def test_cartan_form_su3_frozen_values():
    g = su_lie_algebra(3)
    phi = cartan_three_form(g)
    assert (phi.n, phi.p) == (8, 3)
    assert phi.apply(g.highest_root_frame) == pytest.approx(1.0)
    assert phi_module(phi).rank == 20
    assert stabilizer_dim(phi) == 8
    # the principal three-dimensional subalgebra is a critical plane at 1/2
    assert phi.apply(su3_principal_plane().frame) == pytest.approx(0.5)


def test_clifford_model_relations():
    model = build_clifford()
    for i in range(8):
        gi = model.gamma[i]
        assert np.allclose(gi, gi.T)
        for j in range(8):
            anti = gi @ model.gamma[j] + model.gamma[j] @ gi
            assert np.allclose(anti, 2.0 * (i == j) * np.eye(16))
    vol = model.volume_element
    assert np.allclose(vol @ vol, np.eye(16))
    sp, sm = model.s_plus, model.s_minus
    assert np.allclose(sp.T @ sp, np.eye(8), atol=1e-12)
    assert np.allclose(sm.T @ sm, np.eye(8), atol=1e-12)
    assert np.allclose(vol @ sp, sp, atol=1e-12)
    assert np.allclose(vol @ sm, -sm, atol=1e-12)
    # gamma maps interchange the half-spinor spaces
    for g in model.gamma:
        assert np.max(np.abs(sp.T @ g @ sp)) < 1e-12


def test_spinor_square_component_degrees():
    model = build_clifford()
    x = model.s_plus[:, 0]
    for k in range(9):
        comp = model.spinor_square(x, k)
        if k in (0, 4, 8):
            assert comp.norm() > 0.5
        else:
            assert comp.norm() < 1e-10
    assert model.spinor_square(x, 0).coeffs == {(): 1.0}
    assert model.spinor_square(x, 8).approx_eq(AltForm.volume(8), tol=1e-10)


def test_spinor_square_matches_cayley_invariants():
    model = build_clifford()
    phi4 = model.spinor_square(model.s_plus[:, 0], 4)
    assert hodge_star(phi4).approx_eq(phi4, tol=1e-10)
    assert phi_module(phi4).rank == 7
    assert stabilizer_dim(phi4) == 21


def test_spinor_square_requires_unit_norm():
    model = build_clifford()
    with pytest.raises(ValueError):
        model.spinor_square(2.0 * model.s_plus[:, 0], 4)
    with pytest.raises(ValueError):
        model.spinor_square(model.s_plus[:, 0], 9)


def test_calibration_spec_dispatch():
    assert build_calibration(CalibrationSpec("associative")).approx_eq(associative_form())
    assert build_calibration(CalibrationSpec("cayley")).approx_eq(cayley_form())
    sl = build_calibration(CalibrationSpec("special_lagrangian", m=3, phase=0.1))
    assert sl.approx_eq(special_lagrangian(3, 0.1).calib)
    cf = build_calibration(CalibrationSpec("cartan", algebra="su(3)"))
    assert cf.approx_eq(cartan_three_form(su_lie_algebra(3)))
    custom = AltForm.basis(4, 1, 2)
    assert build_calibration(CalibrationSpec("custom", form=custom)) is custom


def test_calibration_spec_validation():
    with pytest.raises(ValueError):
        CalibrationSpec("no_such_family")
    with pytest.raises(ValueError):
        CalibrationSpec("special_lagrangian")
    with pytest.raises(ValueError):
        CalibrationSpec("cartan")
    with pytest.raises(ValueError):
        CalibrationSpec("custom")


def test_calibration_spec_from_json():
    spec = CalibrationSpec.from_json('{"family": "special_lagrangian", "m": 2}')
    assert spec.family == "special_lagrangian" and spec.m == 2
    spec = CalibrationSpec.from_json(
        {"family": "custom", "form": {"n": 4, "p": 2, "terms": [{"idx": [1, 2], "c": 1.0}]}}
    )
    assert spec.form.coeffs == {(1, 2): 1.0}
