"""Calibration family constructors: frozen values and structural checks."""

import itertools
import re

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
from calibkit import calibrations, critical
from calibkit.calibrations import _su_coords, _su_matrix_basis

from conftest import (
    loop_cartan_coefficients,
    loop_highest_root_frame,
    loop_octonion_left_mult,
    loop_spinor_component,
    su_structure,
    tensor_lie_verdict,
    trace_coords,
)


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


def test_octonion_table_matches_the_coefficient_loop():
    assert np.array_equal(octonion_left_mult(), loop_octonion_left_mult(associative_form()))


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


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("phase", [0.0, 0.4, -2.3])
def test_special_lagrangian_forms_are_a_rotated_complex_determinant(m, phase):
    """calib + i im_upsilon = e^{i phase} det(F_x + i F_y) on any frame F, F_x and F_y its x and y rows."""
    sl = special_lagrangian(m, phase)
    rng = np.random.default_rng([m, 17])
    for _ in range(5):
        frame = rng.standard_normal((2 * m, m))
        want = np.exp(1j * phase) * np.linalg.det(frame[0::2] + 1j * frame[1::2])
        assert abs(sl.calib.apply(frame) - want.real) < 1e-12
        assert abs(sl.im_upsilon.apply(frame) - want.imag) < 1e-12


def test_special_lagrangian_rejects_bad_m():
    with pytest.raises(ValueError):
        special_lagrangian(1)
    with pytest.raises(ValueError):
        special_lagrangian(5)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
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


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_su_structure_constants_match_pairwise_loop(k):
    """The brackets' coordinates from one einsum equal, bit for bit, one bracket and trace per pair and the stacked traces."""
    basis = _su_matrix_basis(k)
    n = len(basis)
    expected = np.zeros((n, n, n))
    for i, j in itertools.combinations(range(n), 2):
        br = basis[i] @ basis[j] - basis[j] @ basis[i]
        coords = trace_coords(br, basis)
        expected[i, j] = coords
        expected[j, i] = -coords
    structure = su_lie_algebra(k).structure
    assert np.array_equal(structure, expected)
    assert np.array_equal(structure, su_structure(k))


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_highest_root_frame_and_cartan_form_match_the_loops(k):
    """The frame's coordinates from one einsum and the form's terms from one gather equal the per-trace and per-triple loops, bit for bit."""
    basis = _su_matrix_basis(k)
    stack = np.array(basis[:5]) @ np.array(basis[-5:])
    assert np.array_equal(_su_coords(stack, basis), [trace_coords(x, basis) for x in stack])
    g = su_lie_algebra(k)
    assert np.array_equal(g.highest_root_frame, loop_highest_root_frame(k))
    got = cartan_three_form(g).coeffs
    assert list(got.items()) == list(loop_cartan_coefficients(g.structure, g.highest_root_frame).items())


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("scale", [1e-15, 1e-6, 1.0, 1e6])
def test_cartan_form_does_not_depend_on_the_scale(k, scale):
    """Both cutoffs scale with the structure constants: scaled su(k) gives the same terms, up to round-off.

    The scaled constants are set after construction, since LieAlgebraData's
    own checks are not what this tests.
    """
    ref = cartan_three_form(su_lie_algebra(k)).coeffs
    g = su_lie_algebra(k)
    g.structure = scale * g.structure
    got = cartan_three_form(g).coeffs
    assert list(got) == list(ref)
    assert max(abs(got[idx] - c) for idx, c in ref.items()) <= 1e-15


def test_cartan_form_of_an_abelian_algebra_is_degenerate():
    with pytest.raises(ValueError, match="degenerate"):
        cartan_three_form(LieAlgebraData(dim=3, structure=np.zeros((3, 3, 3)), highest_root_frame=np.eye(3)))


def _totally_antisymmetric(dim, idx, value):
    """The totally antisymmetric tensor that is value at idx."""
    t = np.zeros((dim,) * 3)
    for perm in itertools.permutations(range(3)):
        t[tuple(idx[q] for q in perm)] = value * (-1.0) ** sum(a > b for a, b in itertools.combinations(perm, 2))
    return t


def test_lie_algebra_data_validation():
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = 1.0  # not antisymmetric in the first pair
    with pytest.raises(ValueError):
        LieAlgebraData(dim=3, structure=c)
    with pytest.raises(ValueError):
        LieAlgebraData(dim=3, structure=np.zeros((2, 2, 2)))
    # e012 + e034 is totally antisymmetric, but on (e1, e2, e3) only [e3, [e1, e2]] = [e3, e0] = -e4 is nonzero
    c = _totally_antisymmetric(5, (0, 1, 2), 1.0) + _totally_antisymmetric(5, (0, 3, 4), 1.0)
    with pytest.raises(ValueError, match="Jacobi"):
        LieAlgebraData(dim=5, structure=c)


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_lie_algebra_checks_scale_with_the_constants(k, scale):
    """su(k)'s constants pass at any scale, and a perturbation of 1e-6 of their size fails each check at every scale."""
    g = su_lie_algebra(k)
    c = scale * g.structure
    assert np.array_equal(LieAlgebraData(g.dim, c, g.highest_root_frame).structure, c)
    delta = 1e-6 * np.max(np.abs(c))
    bad = c.copy()
    bad[0, 1, 2] += delta  # [e0, e1] and [e1, e0] disagree
    with pytest.raises(ValueError, match="not antisymmetric"):
        LieAlgebraData(g.dim, bad)
    bad = c.copy()
    bad[0, 1, 2] += delta
    bad[1, 0, 2] -= delta  # antisymmetric in the bracket, but the metric is not invariant
    with pytest.raises(ValueError, match="not invariant"):
        LieAlgebraData(g.dim, bad)
    if k > 2:  # every totally antisymmetric tensor on R^3 is a multiple of su(2)'s, so a Lie bracket
        with pytest.raises(ValueError, match="Jacobi"):
            LieAlgebraData(g.dim, c + _totally_antisymmetric(g.dim, (0, 1, 3), delta))


@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("scale", [1e-9, 1e-3, 1.0, 1e5])
def test_lie_algebra_triple_check_keeps_the_tensor_verdicts(k, scale):
    """The Jacobi sum on the triples i < j < k gives the full tensor's verdict, at four scales, on good and bad constants."""
    g = su_lie_algebra(k)
    c = scale * g.structure
    rng = np.random.default_rng(k)
    delta = 1e-6 * np.max(np.abs(c))
    candidates = [c]
    for idx in rng.choice(g.dim, size=(6, 3), replace=True):
        if len(set(idx.tolist())) == 3:  # a Jacobi defect: c plus a small totally antisymmetric tensor
            candidates.append(c + _totally_antisymmetric(g.dim, tuple(idx.tolist()), delta))
        bad = c.copy()
        bad[tuple(idx)] += delta  # not antisymmetric, or at a repeated index not invariant
        candidates.append(bad)
    verdicts = set()
    for cand in candidates:
        want = tensor_lie_verdict(g.dim, cand)
        verdicts.add(want)
        if want is None:
            assert np.array_equal(LieAlgebraData(g.dim, cand).structure, cand)
        else:
            with pytest.raises(ValueError, match=re.escape(want)):
                LieAlgebraData(g.dim, cand)
    assert None in verdicts and "structure constants violate the Jacobi identity" in verdicts


@pytest.mark.parametrize("scale", [1e-9, 1e-3, 1.0, 1e5])
def test_lie_algebra_triple_check_keeps_the_tensor_verdict_at_the_threshold(scale):
    """A Jacobi defect 5% either side of the threshold, on constants antisymmetric only to just within their tolerance.

    The check takes the Jacobi sum of the constants' antisymmetric part, so
    the triples decide it exactly; on the constants themselves they would not.
    """
    g = su_lie_algebra(3)
    c = scale * g.structure
    size = np.max(np.abs(c))
    defect = _totally_antisymmetric(g.dim, (0, 1, 3), size)
    # the Jacobi sum of c + eps defect is eps times a fixed tensor, whose largest entry sets the threshold's eps
    slope = np.max(np.abs(_jacobi_sum(c + 1e-6 * defect))) / 1e-6
    # [e0, e1] and [e1, e0] disagree just within the tolerance, in the signs of c[:, 2, 3], which alone puts the
    # Jacobi sum of c itself at 1.23 times the threshold and that of its antisymmetric part at 0.61 times
    skew = np.zeros_like(c)
    skew[0, 1, 2:] = 0.9e-10 * size * np.sign(c[2:, 2, 3])
    for factor, want in [(0.95, None), (1.05, "structure constants violate the Jacobi identity")]:
        cand = c + factor * 1e-10 * size**2 / slope * defect + skew
        assert tensor_lie_verdict(g.dim, cand) == want
        if want is None:
            assert np.array_equal(LieAlgebraData(g.dim, cand).structure, cand)
        else:
            with pytest.raises(ValueError, match=re.escape(want)):
                LieAlgebraData(g.dim, cand)


def _jacobi_sum(c):
    """The cyclic sum over (i, j, k) of sum_m c[i, j, m] c[m, k, l]."""
    cc = np.tensordot(c, c, axes=(2, 0))
    return cc + cc.transpose(2, 0, 1, 3) + cc.transpose(1, 2, 0, 3)


@pytest.mark.parametrize("k", [1, 6])
def test_su_lie_algebra_rejects_k_outside_2_to_5(k):
    with pytest.raises(ValueError, match="between 2 and 5"):
        su_lie_algebra(k)


def test_cartan_form_su5_module_and_stabilizer():
    """su(5), the scale target: n = 24, and the module has rank 252 = 276 - 24, as the stabilizer is su(5) itself."""
    phi = cartan_three_form(su_lie_algebra(5))
    assert (phi.n, phi.p) == (24, 3)
    assert phi_module(phi).rank == 252 == 24 * 23 // 2 - 24
    assert stabilizer_dim(phi) == 24


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


def test_spinor_components_match_the_trace_loop():
    """Each degree's coefficients from the stacked gamma products equal one product and trace per index, bit for bit."""
    model = build_clifford()
    rng = np.random.default_rng(3)
    xs = [model.s_plus[:, 0], model.s_minus[:, 2]] + [v / np.linalg.norm(v) for v in rng.standard_normal((3, 16))]
    for x in xs:
        for k in range(9):
            want = loop_spinor_component(model, 16.0 * np.outer(x, x), k)
            assert list(model.spinor_square(x, k).coeffs.items()) == list(want.items())
    x = model.s_plus @ (rng.standard_normal(8) @ np.linalg.qr(rng.standard_normal((8, 8)))[0])
    x /= np.linalg.norm(x)
    forms, _ = model.psi_forms(x)
    basis = model.s_plus @ critical.completions((model.s_plus.T @ x)[None, :, None])[0]
    for j, form in enumerate(forms, start=1):
        want = loop_spinor_component(model, 16.0 * np.outer(basis[:, j], x), 4)
        assert list(form.coeffs.items()) == list(want.items())


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


FAMILY_SPECS = [
    CalibrationSpec("associative"),
    CalibrationSpec("coassociative"),
    CalibrationSpec("cayley"),
    CalibrationSpec("custom", form=AltForm(5, 2, {(1, 2): 1.0, (3, 4): -0.5})),
] + [CalibrationSpec("special_lagrangian", m=m, phase=0.3) for m in (2, 3, 4)] + [
    CalibrationSpec("cartan", algebra=f"su{k}") for k in (2, 3, 4)
]


@pytest.mark.parametrize("spec", FAMILY_SPECS, ids=lambda spec: f"{spec.family}-{spec.m or spec.algebra or ''}")
def test_build_calibration_builds_only_the_form(monkeypatch, spec):
    """No family builds a module on the way to its form."""

    def fail(*args, **kwargs):
        raise AssertionError("build_calibration built a module")

    monkeypatch.setattr(FormModule, "from_spanning", fail)
    monkeypatch.setattr(critical, "phi_module", fail)
    monkeypatch.setattr(calibrations, "phi_module", fail, raising=False)
    assert build_calibration(spec).coeffs


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("phase", [0.0, 0.3, np.pi / 2, -1.1])
def test_special_lagrangian_calib_is_the_built_form(m, phase):
    """special_lagrangian and the family table share one builder: the same terms, in order, bit for bit."""
    built = build_calibration(CalibrationSpec("special_lagrangian", m=m, phase=phase))
    assert list(special_lagrangian(m, phase).calib.coeffs.items()) == list(built.coeffs.items())


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


@pytest.mark.parametrize(
    "obj, field",
    [
        ({"family": "special_lagrangian", "m": 3, "phase": None}, "phase"),
        ({"family": "special_lagrangian", "m": 3, "phase": "0.1"}, "phase"),
        ({"family": "special_lagrangian", "m": 3, "phase": True}, "phase"),
        ({"family": "special_lagrangian", "m": "3"}, "m"),
        ({"family": "special_lagrangian", "m": 3.5}, "m"),
        ({"family": "special_lagrangian", "m": 3.0}, "m"),
        ({"family": "special_lagrangian", "m": True}, "m"),
        ({"family": "cartan", "algebra": 4}, "algebra"),
        ({"family": 4}, "family"),
        ({"m": 3}, "family"),
    ],
)
def test_calibration_spec_from_json_names_the_malformed_field(obj, field):
    with pytest.raises(ValueError, match=f"'{field}'"):
        CalibrationSpec.from_json(obj)


def test_calibration_spec_from_json_takes_null_optional_fields():
    spec = CalibrationSpec.from_json({"family": "cartan", "algebra": "su3", "m": None, "form": None})
    assert (spec.algebra, spec.m, spec.phase, spec.form) == ("su3", None, 0.0, None)
    assert CalibrationSpec.from_json({"family": "special_lagrangian", "m": 3, "phase": 1}).phase == 1.0
    with pytest.raises(ValueError, match="JSON object"):
        CalibrationSpec.from_json("[1]")
