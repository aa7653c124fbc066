"""Criticality machinery: planes, the module Phi, the three tests, sff."""

import functools
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from calibkit import (
    AltForm,
    CalibrationSpec,
    FormModule,
    OrientedPlane,
    SearchParams,
    annihilator_check,
    associative_form,
    build_calibration,
    canonical_indices,
    cartan_three_form,
    cayley_form,
    coassociative_form,
    cousin_matrix,
    critical_spectrum,
    criticality_reports,
    evaluate,
    hodge_star,
    is_critical,
    octonion_left_mult,
    parse_form,
    phi_module,
    polar_space,
    qr_fix,
    random_plane,
    rho_closed,
    rho_product,
    sff_space,
    so_action,
    so_action_matrix,
    special_lagrangian,
    stabilizer_dim,
    stabilizer_kernel,
    su_lie_algebra,
    subspace_distance,
)
from calibkit import critical, exterior, grassmann
from calibkit.calibrations import build_clifford
from calibkit.critical import _adapted_values, _module_rows, completions, numerical_rank, tol_scale
from calibkit.eds import KERNEL_CUTOFF
from calibkit.exterior import _lex_rank, first_jet, orthonormal_jet

from conftest import (
    BUILTIN_SPECS,
    brute_eval,
    cofactor_jet,
    dense_action_blocks,
    dense_coefficients,
    dense_phi_module,
    dense_stabilizer_kernel,
    loop_action_entries,
    random_form,
    scatter_phi_module,
    scatter_stabilizer_kernel,
)


def expm_skew(theta):
    """Matrix exponential of a skew-symmetric array via complex eigendecomposition."""
    w, v = np.linalg.eig(np.asarray(theta, dtype=complex))
    return (v @ np.diag(np.exp(w)) @ np.linalg.inv(v)).real


# -- OrientedPlane -----------------------------------------------------------


def test_plane_completion_and_normals(rng):
    for _ in range(10):
        n = int(rng.integers(2, 9))
        p = int(rng.integers(1, n + 1))
        q, _ = qr_fix(rng.standard_normal((n, p)))
        xi = OrientedPlane(q)
        comp = xi.completion()
        assert np.allclose(comp.T @ comp, np.eye(n), atol=1e-10)
        assert np.array_equal(comp[:, :p], xi.frame)
        nn = xi.normal_frame()
        assert nn.shape == (n, n - p)
        if nn.size:
            assert np.max(np.abs(nn.T @ xi.frame)) < 1e-10


def test_plane_validation_and_orthonormalize(rng):
    with pytest.raises(ValueError):
        OrientedPlane(np.ones((4, 2)))
    xi = OrientedPlane(np.ones((4, 2)) + np.eye(4)[:, :2], orthonormalize=True)
    assert np.allclose(xi.frame.T @ xi.frame, np.eye(2), atol=1e-12)
    with pytest.raises(ValueError):
        OrientedPlane(np.eye(3)[:2, :])  # wide frame: p > n
    # dependent columns span no p-plane; QR would make up an arbitrary one
    e = np.eye(7)
    with pytest.raises(ValueError, match="dependent"):
        OrientedPlane(np.column_stack([e[:, 0], e[:, 0], e[:, 2]]), orthonormalize=True)
    with pytest.raises(ValueError, match="dependent"):
        OrientedPlane(np.zeros((4, 2)), orthonormalize=True)
    with pytest.raises(ValueError, match="dependent"):
        OrientedPlane.from_json({"columns": [e[0].tolist(), e[0].tolist(), e[2].tolist()]})


def test_is_critical_rejects_a_plane_in_another_dimension():
    phi = associative_form()
    with pytest.raises(ValueError):
        is_critical(OrientedPlane(np.eye(8)[:, :3]), phi)
    with pytest.raises(ValueError):
        is_critical(OrientedPlane(np.eye(7)[:, :4]), phi)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("check", [cousin_matrix, rho_closed])
def test_plane_checks_reject_a_plane_in_another_dimension(check, seed):
    """A 3-plane in R^8 against the associative form on R^7 is an error, not a 5 x 3 answer."""
    phi = associative_form()
    xi = random_plane(8, 3, seed)
    with pytest.raises(ValueError, match="against a"):
        check(*((xi, phi) if check is rho_closed else (phi, xi)))


def test_rho_product_rejects_vectors_in_another_dimension():
    with pytest.raises(ValueError, match="against vectors in R\\^8"):
        rho_product(associative_form(), [np.eye(8)[0], np.eye(8)[1]])


def test_annihilator_check_rejects_a_plane_the_module_does_not_fit():
    module = phi_module(associative_form())
    for frame in (np.eye(8)[:, :3], np.eye(7)[:, :4]):
        with pytest.raises(ValueError, match="against a"):
            annihilator_check(OrientedPlane(frame), module)


def test_criticality_report_rejects_a_module_that_does_not_fit_phi():
    """The module's rows are stacked under phi's, so a module of another degree or dimension is refused."""
    xi = OrientedPlane(np.eye(7)[:, :3])
    for other in (coassociative_form(), cayley_form()):
        with pytest.raises(ValueError, match="against a"):
            is_critical(xi, associative_form(), module=phi_module(other))


def test_plane_reversed_flips_sign(rng):
    phi = associative_form()
    q, _ = qr_fix(rng.standard_normal((7, 3)))
    xi = OrientedPlane(q)
    assert evaluate(phi, xi.reversed()) == pytest.approx(-evaluate(phi, xi))


def test_plane_json_round_trip(rng):
    q, _ = qr_fix(rng.standard_normal((6, 3)))
    xi = OrientedPlane(q)
    back = OrientedPlane.from_json(xi.to_json())
    assert np.allclose(back.frame, xi.frame, atol=1e-12)


def test_plane_spanning_preserves_first_direction():
    xi = OrientedPlane.spanning([2.0, 0.0, 0.0], [1.0, 1.0, 0.0])
    assert np.allclose(xi.frame[:, 0], [1.0, 0.0, 0.0])
    assert np.allclose(xi.frame[:, 1], [0.0, 1.0, 0.0])


def test_plane_spanning_rejects_dependent_vectors():
    with pytest.raises(ValueError, match="dependent"):
        OrientedPlane.spanning([1.0, 0.0, 0.0], [2.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="dependent"):
        OrientedPlane.spanning([1.0, 2.0, 0.0], [0.0, 0.0, 0.0])


# -- FormModule --------------------------------------------------------------


def test_form_module_rank_and_contains(rng):
    a = AltForm.basis(4, 1, 2)
    b = AltForm.basis(4, 3, 4)
    mod = FormModule.from_spanning(4, 2, [a, b, a + b, 2.0 * a])
    assert mod.rank == 2
    assert mod.contains(a - 3.0 * b)
    assert not mod.contains(AltForm.basis(4, 1, 3))


@pytest.mark.parametrize("c", [1e-12, 1e-6, 1.0, 1e6])
def test_form_module_contains_is_relative_to_the_form(c):
    """Membership does not depend on the form's scale: c e124 is never in associative's module, c times its elements are."""
    mod = phi_module(associative_form())
    assert not mod.contains(c * parse_form("e124", n=7))
    assert mod.contains(c * (mod.basis[0] - 2.0 * mod.basis[-1]))
    assert mod.contains(AltForm.zero(7, 3))


def test_form_module_values_match_apply(rng):
    phi = associative_form()
    mod = phi_module(phi)
    frames = rng.standard_normal((4, 7, 3))
    vals = mod.values_on(frames)
    for i, gamma in enumerate(mod.basis):
        for j in range(4):
            assert vals[i, j] == pytest.approx(gamma.apply(frames[j]), abs=1e-10)


def test_subspace_distance_basics():
    a = FormModule.from_spanning(4, 2, [AltForm.basis(4, 1, 2)])
    b = FormModule.from_spanning(4, 2, [AltForm.basis(4, 3, 4)])
    assert subspace_distance(a, a) == pytest.approx(0.0, abs=1e-14)
    assert subspace_distance(a, b) == pytest.approx(1.0)


def brute_action_rows(phi, theta):
    """(theta.phi)(e_I) = sum_i phi(.., theta e_{I_i}, ..) over canonical I, by brute force."""
    n, p = phi.n, phi.p
    rows = []
    for I in itertools.combinations(range(n), p):
        total = 0.0
        for slot, i in enumerate(I):
            frame = np.eye(n)[:, list(I)]
            frame[:, slot] = theta[:, i]
            total += brute_eval(phi, frame)
        rows.append(total)
    return np.array(rows)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 6),
    p_raw=st.integers(0, 5),
    seed=st.integers(0, 2**32 - 1),
    one_term=st.booleans(),
)
@example(n=4, p_raw=3, seed=1, one_term=False)  # p = n: o(n) fixes the volume form
@example(n=6, p_raw=0, seed=2, one_term=False)  # p = 1
@example(n=5, p_raw=2, seed=3, one_term=True)
def test_module_layer_against_brute_action(n, p_raw, seed, one_term):
    """Module, stabilizer and action matrix against the o(n) action evaluated by brute force."""
    rng = np.random.default_rng(seed)
    p = 1 + p_raw % n
    phi = random_form(rng, n, p, density=0.0 if one_term else 0.5)
    gens = []
    for a, b in itertools.combinations(range(n), 2):
        e = np.zeros((n, n))
        e[a, b], e[b, a] = 1.0, -1.0  # e_b -> e_a
        gens.append(e)
    ref = np.reshape([brute_action_rows(phi, e) for e in gens], (len(gens), math.comb(n, p)))
    assert np.max(np.abs(so_action_matrix(phi) - ref), initial=0.0) < 1e-12
    # an orthonormal basis of the reference image, independent of calibkit
    _, s, vt = np.linalg.svd(ref, full_matrices=False)
    ref_rank = int(np.sum(s > 1e-9 * s[0])) if s.size and s[0] > 0 else 0
    module = phi_module(phi)
    rows = module.dense_matrix()
    assert module.rank == ref_rank
    assert np.max(np.abs(rows @ rows.T - np.eye(ref_rank)), initial=0.0) < 1e-12
    assert subspace_distance(module, FormModule(n, p, vt[:ref_rank])) < 1e-10
    assert module.rank + stabilizer_dim(phi) == n * (n - 1) // 2
    kernel = stabilizer_kernel(phi)
    assert len(kernel) == stabilizer_dim(phi)
    for theta in kernel:
        assert np.max(np.abs(brute_action_rows(phi, theta.entries))) < 1e-10
    for i, gamma in enumerate(module.basis):
        assert np.array_equal(gamma.dense(), module.dense_matrix()[i])


# -- the map P and stabilizers ----------------------------------------------


def test_p_map_linearity(rng):
    phi = associative_form()
    m1 = rng.standard_normal((7, 7))
    m2 = rng.standard_normal((7, 7))
    t1, t2 = m1 - m1.T, m2 - m2.T
    lhs = so_action(t1 + 0.5 * t2, phi)
    rhs = so_action(t1, phi) + 0.5 * so_action(t2, phi)
    assert lhs.approx_eq(rhs, tol=1e-10)


def test_stabilizer_kernel_annihilates():
    for phi, dim in [(associative_form(), 14), (cayley_form(), 21)]:
        kernel = stabilizer_kernel(phi)
        assert len(kernel) == dim
        for theta in kernel:
            assert so_action(theta, phi).norm() < 1e-9
        assert stabilizer_dim(phi) == dim


def test_stabilizer_orbit_stays_calibrated(rng):
    """exp of stabilizer elements fixes the form, hence preserves criticality."""
    phi = associative_form()
    kernel = stabilizer_kernel(phi)
    xi = OrientedPlane(np.eye(7)[:, :3])
    for _ in range(5):
        w = rng.standard_normal(len(kernel))
        theta = sum(c * t.entries for c, t in zip(w, kernel))
        g = expm_skew(theta)
        rotated = OrientedPlane(g @ xi.frame, orthonormalize=True)
        rep = is_critical(rotated, phi)
        assert rep.is_critical
        assert rep.value == pytest.approx(1.0, abs=1e-8)


def expm_skew_exact(theta):
    """exp(theta) for skew theta from the Hermitian eigendecomposition of i theta: orthogonal to round-off."""
    w, v = np.linalg.eigh(1j * np.asarray(theta))
    return ((v * np.exp(-1j * w)) @ v.conj().T).real


EQUIVARIANCE_FAMILIES = {
    "associative": (associative_form, lambda: np.eye(7)[:, :3]),
    "cayley": (cayley_form, lambda: np.eye(8)[:, :4]),
    "slag3": (lambda: special_lagrangian(3).calib, lambda: np.eye(6)[:, ::2]),
}


@settings(max_examples=24, deadline=None, derandomize=True, database=None)
@given(family=st.sampled_from(sorted(EQUIVARIANCE_FAMILIES)), seed=st.integers(0, 2**32 - 1))
def test_stabilizer_rotations_preserve_value_verdict_and_cousins(family, seed):
    """g = exp(theta), theta in the stabilizer of phi: xi and g xi agree in value, verdict and |cousins|."""
    make_phi, make_base = EQUIVARIANCE_FAMILIES[family]
    phi = make_phi()
    module = phi_module(phi)
    kernel = stabilizer_kernel(phi)
    rng = np.random.default_rng(seed)

    def stabilizer_element():
        return expm_skew_exact(sum(c * t.entries for c, t in zip(rng.standard_normal(len(kernel)), kernel)))

    g = stabilizer_element()
    random_xi = OrientedPlane(qr_fix(rng.standard_normal((phi.n, phi.p)))[0])
    critical_xi = OrientedPlane(stabilizer_element() @ make_base())
    for xi in (random_xi, critical_xi):
        moved = OrientedPlane(g @ xi.frame)
        before, after = is_critical(xi, phi, module=module), is_critical(moved, phi, module=module)
        assert abs(after.value - before.value) < 1e-12
        assert after.is_critical == before.is_critical == (xi is critical_xi)
        norms = [np.linalg.norm(cousin_matrix(phi, plane)) for plane in (xi, moved)]
        assert abs(norms[1] - norms[0]) < 1e-12


@pytest.mark.parametrize("family", sorted(BUILTIN_SPECS))
def test_module_of_the_hodge_dual_is_the_dual_module(family):
    """P(*phi) is spanned by the Hodge stars of a basis of P(phi)."""
    phi = build_calibration(CalibrationSpec.from_json(BUILTIN_SPECS[family]))
    starred = FormModule.from_spanning(phi.n, phi.n - phi.p, [hodge_star(b) for b in phi_module(phi).basis])
    assert subspace_distance(phi_module(hodge_star(phi)), starred) < 1e-10


@pytest.mark.parametrize("family", sorted(BUILTIN_SPECS))
def test_module_is_so_n_equivariant(family):
    """P(g.phi) = g.P(phi) for a Haar-random g in SO(n) that moves phi.

    (g.a)_J = a(g^T e_J): g.phi is evaluated by permutation expansion and
    g.P(phi) through the compound matrix det g[J, I], so neither goes through
    so_action_matrix.
    """
    phi = build_calibration(CalibrationSpec.from_json(BUILTIN_SPECS[family]))
    n, p = phi.n, phi.p
    g, _ = qr_fix(np.random.default_rng(7).standard_normal((n, n)))
    g[:, 0] *= np.sign(np.linalg.det(g))
    idx = np.array(canonical_indices(n, p)) - 1
    moved = AltForm(n, p, {tuple(J + 1): brute_eval(phi, g.T[:, J]) for J in idx})
    assert np.linalg.norm(moved.dense() - phi.dense()) > 1e-3  # g is outside the stabilizer
    compound = np.linalg.det(g[idx[:, None, :, None], idx[None, :, None, :]])
    image = FormModule(n, p, phi_module(phi).dense_matrix() @ compound.T)
    assert subspace_distance(phi_module(moved), image) < 1e-10


# -- the block module --------------------------------------------------------


def assert_block_module_matches_the_dense_svd(phi):
    """phi_module and stabilizer_kernel against one SVD of the whole action matrix."""
    n = phi.n
    module, oracle = phi_module(phi), dense_phi_module(phi)
    assert module.rank == oracle.rank
    assert subspace_distance(module, oracle) <= 1e-12
    rows = module.dense_matrix()
    assert np.max(np.abs(rows @ rows.T - np.eye(module.rank)), initial=0.0) < 1e-12
    kernel = stabilizer_kernel(phi)
    want = dense_stabilizer_kernel(phi)
    got = np.reshape([theta.entries[np.triu_indices(n, 1)] for theta in kernel], (len(kernel), n * (n - 1) // 2))
    assert got.shape == want.shape
    assert np.max(np.abs(got.T @ got - want.T @ want), initial=0.0) <= 1e-12
    for theta in kernel:
        assert np.max(np.abs(so_action(theta, phi).dense()), initial=0.0) <= 1e-12 * tol_scale(phi)


# beside the built-in families: the p = 12 dual of su4, a rank-0 module whose
# generators' rows are all zero, the zero form, a form of one block, and one
# whose terms reach two module blocks, of 2 and 6 indices
MORE_BLOCK_FORMS = {
    "su4-dual": lambda: hodge_star(cartan_three_form(su_lie_algebra(4))),
    "volume": lambda: parse_form("e1234", n=4),
    "zero": lambda: AltForm.zero(5, 2),
    "one-block": lambda: parse_form("e12 + 2*e13 + 3*e23", n=3),
    "two-joined": lambda: parse_form("3*e17 + 2*e23 + 3*e24 + 3*e26 + 3*e36 + 2*e57", n=7),
}
BLOCK_FORMS = sorted(BUILTIN_SPECS) + sorted(MORE_BLOCK_FORMS)


def block_form(name):
    if name in BUILTIN_SPECS:
        return build_calibration(CalibrationSpec.from_json(BUILTIN_SPECS[name]))
    return MORE_BLOCK_FORMS[name]()


@pytest.mark.parametrize("name", BLOCK_FORMS)
def test_block_module_matches_the_dense_svd(name):
    assert_block_module_matches_the_dense_svd(block_form(name))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 7),
    p_raw=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
    density=st.sampled_from([0.05, 0.2, 0.5]),
)
def test_block_module_of_random_sparse_forms_matches_the_dense_svd(n, p_raw, seed, density):
    assert_block_module_matches_the_dense_svd(random_form(np.random.default_rng(seed), n, 1 + p_raw % n, density))


def assert_action_blocks_match_the_dense_labels(phi):
    """_action_blocks, labelled on the entries, against label propagation over the whole dense pattern, bit for bit."""
    zero, shapes = critical._action_blocks(phi)
    want_zero, want = dense_action_blocks(phi)
    assert np.array_equal(zero, want_zero) and len(shapes) == len(want)
    for got, exp in zip(shapes, want):
        for a, b in zip(got, exp):
            assert a.shape == b.shape and np.array_equal(a, b)


@pytest.mark.parametrize("name", sorted(BUILTIN_SPECS))
@pytest.mark.parametrize("dual", [False, True])
def test_action_blocks_match_the_dense_labels(name, dual):
    phi = block_form(name)
    assert_action_blocks_match_the_dense_labels(hodge_star(phi) if dual else phi)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 9),
    p_raw=st.integers(0, 8),
    seed=st.integers(0, 2**32 - 1),
    density=st.sampled_from([0.02, 0.1, 0.3]),
)
def test_action_blocks_of_random_sparse_forms_match_the_dense_labels(n, p_raw, seed, density):
    assert_action_blocks_match_the_dense_labels(random_form(np.random.default_rng(seed), n, 1 + p_raw % n, density))


def same_bits(a, b):
    """Equal shapes, values and signs of zero."""
    return a.shape == b.shape and np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def assert_module_matches_the_scatter_oracle(phi):
    """phi_module, its entries and stabilizer_kernel against the dense-scatter construction they replace, bit for bit."""
    want = loop_action_entries(phi)
    assert all(same_bits(a, b) for a, b in zip(exterior._action_entries(phi), want))
    module = phi_module(phi)
    rows, groups, block_idx0 = scatter_phi_module(phi)
    assert module.rank == len(rows) and same_bits(module.dense_matrix(), rows)
    assert len(module._groups) == len(groups) and all(map(same_bits, module._groups, groups))
    assert same_bits(module._block_idx0, block_idx0)
    pairs = phi.n * (phi.n - 1) // 2
    thetas = stabilizer_kernel(phi)
    kernel = np.reshape([theta.entries[np.triu_indices(phi.n, 1)] for theta in thetas], (len(thetas), pairs))
    assert same_bits(kernel, scatter_stabilizer_kernel(phi))


@pytest.mark.parametrize("name", sorted(BUILTIN_SPECS) + ["spinor"])
@pytest.mark.parametrize("dual", [False, True])
def test_module_matches_the_scatter_oracle(name, dual):
    if name == "spinor":
        model = build_clifford()
        phi = model.spinor_square(model.s_plus[:, 0], 4)
    else:
        phi = block_form(name)
    assert_module_matches_the_scatter_oracle(hodge_star(phi) if dual else phi)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 9),
    p_raw=st.integers(0, 9),
    seed=st.integers(0, 2**32 - 1),
    density=st.sampled_from([0.02, 0.1, 0.3, 1.0]),
)
def test_module_of_random_custom_forms_matches_the_scatter_oracle(n, p_raw, seed, density):
    assert_module_matches_the_scatter_oracle(random_form(np.random.default_rng(seed), n, p_raw % (n + 1), density))


def test_block_module_layout():
    """Block-sparse basis forms: associative has the seven 4-term forms of Lambda^3_7, su4 none over 34 terms."""
    module = phi_module(associative_form())
    assert [len(b.coeffs) for b in module.basis] == [4] * 7
    assert all(abs(abs(c) - 0.5) <= 1e-15 for b in module.basis for c in b.coeffs.values())
    su4 = phi_module(cartan_three_form(su_lie_algebra(4)))
    assert su4.rank == 90 and max(len(b.coeffs) for b in su4.basis) <= 34
    assert len(phi_module(parse_form("e12 + 2*e13 + 3*e23", n=3))._groups) == 1


@pytest.mark.parametrize("name", BLOCK_FORMS)
def test_grouped_contraction_matches_the_dense_one(name, rng):
    """The module's groups give the dense rows' jet to 1e-14, and [phi; module]'s rows are phi's and the module's.

    The jets go through orthonormal_jet, whose star path (the p = 12 dual of
    su4) maps each group's columns.
    """
    phi = block_form(name)
    module = phi_module(phi)
    n, p = phi.n, phi.p
    qs = completions(qr_fix(rng.standard_normal((5, n, p)))[0])
    dense = orthonormal_jet(module.dense_matrix(), module._idx0, qs, p)
    grouped = orthonormal_jet(module._groups, module._block_idx0, qs, p)
    for a, b in zip(dense, grouped):
        assert a.shape == b.shape and np.max(np.abs(a - b), initial=0.0) <= 1e-14
    # the search's rows: phi's terms, then the module's groups, where phi's
    # indices may repeat; a frame gets the same bits alone as in the stack
    idx0, groups = _module_rows(phi, module)
    values, first = orthonormal_jet(groups, idx0, qs, p)
    for i in range(len(qs)):
        alone = orthonormal_jet(groups, idx0, qs[i : i + 1], p)
        assert np.array_equal(values[i], alone[0][0]) and np.array_equal(first[i], alone[1][0])
    # a repeated index sums its columns
    rows = np.zeros((1 + module.rank, len(module._idx0)))
    np.add.at(rows, (slice(None), _lex_rank(idx0, n)), dense_coefficients(groups, len(idx0)))
    assert np.array_equal(rows[0], phi.dense())
    assert np.array_equal(rows[1:], module.dense_matrix())


@pytest.mark.parametrize("name", BLOCK_FORMS + ["rank-0"])
def test_gradient_jet_matches_the_cofactor_jet(name, rng):
    """[phi; module]'s jet and the sff stack's against cofactor_jet: values bit for bit, replacements to 1e-13.

    The row jets go through orthonormal_jet, whose star path takes the p = 12
    dual of su4 to 3 x 3 minors; rank-0 is associative's phi over a module of
    no rows.  The sff stack has 1 + p k frames with k normals each, k > p on
    su4.
    """
    phi = block_form("associative" if name == "rank-0" else name)
    n, p = phi.n, phi.p
    module = FormModule(n, p, []) if name == "rank-0" else phi_module(phi)
    idx0, groups = _module_rows(phi, module)
    qs = completions(qr_fix(rng.standard_normal((5, n, p)))[0])
    got = orthonormal_jet(groups, idx0, qs, p)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exterior, "first_jet", cofactor_jet)
        want = orthonormal_jet(groups, idx0, qs, p)
    assert np.array_equal(got[0], want[0])
    assert got[1].shape == want[1].shape and np.max(np.abs(got[1] - want[1]), initial=0.0) <= 1e-13
    if 2 * p <= n:
        xi = OrientedPlane(qs[0, :, :p])
        got = _adapted_values(phi, xi)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(critical, "first_jet", cofactor_jet)
            want = _adapted_values(phi, xi)
        assert got[0] == want[0]
        for a, b in zip(got[1:], want[1:]):
            assert a.shape == b.shape and np.max(np.abs(a - b), initial=0.0) <= 1e-13


@pytest.mark.parametrize("name", [name for name in BLOCK_FORMS if name != "su4-dual"])  # p = 12 minors are slow
def test_report_rho_residual_is_rho_evaluated_on_its_own(name):
    """residual_rho, read off the jet's cousin coefficients, agrees with rho over every (p-1)-subset to round-off."""
    phi = block_form(name)
    frames = qr_fix(np.random.default_rng(3).standard_normal((20, phi.n, phi.p)))[0]
    got = np.array([r.residual_rho for r in criticality_reports(frames, phi)])
    want = np.zeros(len(frames))
    for i, (f, q) in enumerate(zip(frames, completions(frames))):
        for a in range(phi.p):  # rho of the frame without column a, against every normal
            rho = rho_product(phi, np.delete(f, a, axis=1).T)
            want[i] = max(want[i], np.max(np.abs(rho @ q[:, phi.p :]), initial=0.0))
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-14 * max(1.0, np.max(want, initial=0.0))


@pytest.mark.parametrize("name", ["associative", "su3", "su4", "one-block"])
def test_criticality_reports_do_not_depend_on_the_module_basis(name, rng):
    """residual_module is |Phi(xi)|_2: every field stays put when the module's rows rotate."""
    phi = block_form(name)
    module = phi_module(phi)
    q = qr_fix(rng.standard_normal((module.rank, module.rank)))[0]
    rotated = FormModule(phi.n, phi.p, q @ module.dense_matrix())
    frames = qr_fix(rng.standard_normal((6, phi.n, phi.p)))[0]
    for a, b in zip(criticality_reports(frames, phi, module=module), criticality_reports(frames, phi, module=rotated)):
        assert a.is_critical == b.is_critical
        for field in ("residual_cousin", "residual_module", "residual_rho", "value"):
            assert abs(getattr(a, field) - getattr(b, field)) <= 1e-14
    norms = np.linalg.norm(module.values_on(frames), axis=0)
    assert np.max(np.abs([r.residual_module for r in criticality_reports(frames, phi)] - norms)) <= 1e-14


@pytest.mark.parametrize("name", ["associative", "su3", "su4", "one-block"])
def test_annihilator_check_does_not_depend_on_the_module_basis(name, rng):
    """annihilator_check is |Phi(xi)|_2: it stays put when the module's rows rotate, and reads residual_module."""
    phi = block_form(name)
    module = phi_module(phi)
    q = qr_fix(rng.standard_normal((module.rank, module.rank)))[0]
    rotated = FormModule(phi.n, phi.p, q @ module.dense_matrix())
    frames = qr_fix(rng.standard_normal((6, phi.n, phi.p)))[0]
    for frame, report in zip(frames, criticality_reports(frames, phi, module=module)):
        xi = OrientedPlane(frame)
        residual = annihilator_check(xi, module)
        assert abs(residual - annihilator_check(xi, rotated)) <= 1e-14
        assert abs(residual - report.residual_module) <= 1e-14


@functools.lru_cache(maxsize=None)
def seeded_catalog(family):
    """(phi, its 24-trial critical_spectrum at master seed 0) of a built-in family."""
    phi = block_form(family)
    return phi, critical_spectrum(phi, params=SearchParams(trials=24, master_seed=0))


@pytest.mark.parametrize("family", sorted(BUILTIN_SPECS))
def test_catalog_values_are_the_form_s_values_bit_for_bit(family):
    """phi has one evaluation route: a catalog plane's value is AltForm.apply at its frame, bit for bit."""
    phi, catalog = seeded_catalog(family)
    assert catalog.planes
    for xi, value in zip(catalog.planes, catalog.values):
        assert phi.apply(xi.frame) == value


@pytest.mark.parametrize("family", sorted(BUILTIN_SPECS))
def test_module_values_take_one_route(family, rng):
    """The module has one evaluation route: values_on, [phi; module]'s jet and orthonormal_jet agree bit for bit.

    orthonormal_jet is first_jet only up to p = n/2; above it (coassociative)
    it goes through the Hodge star.
    """
    phi = block_form(family)
    module = phi_module(phi)
    n, p = phi.n, phi.p
    qs = completions(qr_fix(rng.standard_normal((6, n, p)))[0])
    idx0, rows = _module_rows(phi, module)
    values = first_jet(rows, idx0, qs[:, :, :p], qs[:, :, p:])[0][:, 1:]
    assert np.array_equal(module.values_on(qs[:, :, :p]).T, values)
    if 2 * p <= n:
        assert np.array_equal(orthonormal_jet(module._groups, module._block_idx0, qs, p)[0], values)


@pytest.mark.parametrize("family", sorted(BUILTIN_SPECS))
def test_annihilator_check_is_residual_module_bit_for_bit(family, rng):
    """annihilator_check and is_critical's residual_module are one norm of one route, on random and catalog planes."""
    phi, catalog = seeded_catalog(family)
    module = phi_module(phi)
    frames = qr_fix(rng.standard_normal((20, phi.n, phi.p)))[0]
    for xi in [OrientedPlane(f) for f in frames] + catalog.planes:
        assert annihilator_check(xi, module) == is_critical(xi, phi, module=module).residual_module


# -- three-way equivalence ---------------------------------------------------


@pytest.mark.parametrize(
    "phi,calibrated_cols",
    [
        (associative_form(), (0, 1, 2)),
        (coassociative_form(), (3, 4, 5, 6)),
        (cayley_form(), (0, 1, 2, 3)),
    ],
)
def test_three_criticality_tests_agree(phi, calibrated_cols, rng):
    module = phi_module(phi)
    n, p = phi.n, phi.p
    # random planes: all three residuals are large together
    for _ in range(50):
        q, _ = qr_fix(rng.standard_normal((n, p)))
        xi = OrientedPlane(q)
        rep = is_critical(xi, phi, module=module)
        verdict_cousin = rep.residual_cousin < 1e-8
        verdict_module = rep.residual_module < 1e-8
        verdict_rho = rho_closed(xi, phi)
        assert verdict_cousin == verdict_module == verdict_rho
    # the calibrated coordinate plane: all three say critical
    xi = OrientedPlane(np.eye(n)[:, list(calibrated_cols)])
    rep = is_critical(xi, phi, module=module)
    assert rep.is_critical
    assert rep.residual_module < 1e-8
    assert rho_closed(xi, phi)


def test_cousin_matrix_zero_iff_annihilated(rng):
    phi = associative_form()
    module = phi_module(phi)
    xi = OrientedPlane(np.eye(7)[:, :3])
    assert np.max(np.abs(cousin_matrix(phi, xi))) < 1e-12
    assert annihilator_check(xi, module) < 1e-12
    q, _ = qr_fix(rng.standard_normal((7, 3)))
    bad = OrientedPlane(q)
    assert np.max(np.abs(cousin_matrix(phi, bad))) > 1e-3
    assert annihilator_check(bad, module) > 1e-3


def test_is_critical_tolerance_scales_with_form():
    phi = 1e-10 * associative_form()
    for seed in range(5):
        assert not is_critical(random_plane(7, 3, seed), phi).is_critical
    calibrated = OrientedPlane(np.eye(7)[:, :3])
    assert is_critical(calibrated, phi).is_critical
    # the zero form keeps the absolute tolerance: every plane is critical
    assert is_critical(random_plane(7, 3, 0), AltForm.zero(7, 3)).is_critical


def test_rho_closed_tolerance_scales_with_form():
    phi = 1e-10 * associative_form()
    for seed in range(5):
        assert not rho_closed(random_plane(7, 3, seed), phi)
    assert rho_closed(OrientedPlane(np.eye(7)[:, :3]), phi)
    # the zero form keeps the absolute tolerance: every plane is closed
    assert rho_closed(random_plane(7, 3, 0), AltForm.zero(7, 3))


BAD_TOLS = [math.nan, math.inf, 0.0, -1.0]


@pytest.mark.parametrize("tol", BAD_TOLS)
def test_criticality_reports_reject_bad_tolerances(tol):
    with pytest.raises(ValueError, match="tolerance must be positive and finite"):
        is_critical(OrientedPlane(np.eye(7)[:, :3]), associative_form(), tol=tol)


@pytest.mark.parametrize("tol", BAD_TOLS)
def test_rho_closed_rejects_bad_tolerances(tol):
    with pytest.raises(ValueError, match="tolerance must be positive and finite"):
        rho_closed(OrientedPlane(np.eye(7)[:, :3]), associative_form(), tol=tol)


@pytest.mark.parametrize("tol", BAD_TOLS)
def test_sff_space_rejects_bad_tolerances(tol):
    """A bad tolerance is a ValueError of its own, not a not-critical verdict on a calibrated plane."""
    with pytest.raises(ValueError, match="tolerance must be positive and finite"):
        sff_space(OrientedPlane(np.eye(7)[:, :3]), associative_form(), tol=tol)


@pytest.mark.parametrize("tol", BAD_TOLS)
def test_critical_spectrum_rejects_bad_cluster_tolerances_before_any_trial(tol, monkeypatch):
    def no_trials(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(grassmann, "_trials", no_trials)
    with pytest.raises(ValueError, match="tolerance must be positive and finite"):
        critical_spectrum(associative_form(), trials=6, cluster_tol=tol)


# c = 2^-40 and 2^20 scale phi exactly, 1e-6 and 1e6 round every coefficient
SCALES = (2.0**-40, 1e-6, 1.0, 1e6, 2.0**20)


def assert_criterion_3_at_every_scale(phi, planes, rng):
    """At every scale c of phi the three verdicts agree, with each other and with c = 1, and rho scales by c."""
    vectors = [list(rng.standard_normal((phi.p - 1, phi.n))) for _ in range(3)] if phi.p else []
    verdicts = {}
    for c in SCALES:
        scaled = c * phi
        module = phi_module(scaled)
        verdicts[c] = []
        for xi in planes:
            report = is_critical(xi, scaled, module=module)
            verdict = {report.is_critical, bool(report.residual_module < critical.DEFAULT_TOL), rho_closed(xi, scaled)}
            assert len(verdict) == 1, (c, report)
            verdicts[c].append(verdict.pop())
        for vs in vectors:
            rho = rho_product(phi, vs)
            assert np.max(np.abs(rho_product(scaled, vs) - c * rho)) <= 1e-14 * c * np.max(np.abs(rho))
    assert all(v == verdicts[1.0] for v in verdicts.values())


@pytest.mark.parametrize("family", sorted(BUILTIN_SPECS))
def test_criterion_3_at_every_scale_of_the_families(family, rng):
    """Criterion 3 on the catalog planes and on random planes of each family, phi scaled by c in SCALES."""
    phi, catalog = seeded_catalog(family)
    planes = catalog.planes + [random_plane(phi.n, phi.p, seed) for seed in range(5)]
    assert_criterion_3_at_every_scale(phi, planes, rng)


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 6), p_raw=st.integers(0, 6), seed=st.integers(0, 2**32 - 1))
@example(n=4, p_raw=0, seed=0)  # p = 0: a 0-plane is critical and closed under rho
def test_criterion_3_at_every_scale_of_custom_forms(n, p_raw, seed):
    """Criterion 3 on the catalog and random planes of a random custom form, p = 0 included."""
    rng = np.random.default_rng(seed)
    p = p_raw % (n + 1)
    phi = random_form(rng, n, p)
    catalog = critical_spectrum(phi, params=SearchParams(trials=4, master_seed=seed))
    planes = catalog.planes + [random_plane(n, p, seed + t) for t in range(3)]
    assert_criterion_3_at_every_scale(phi, planes, rng)


def test_zero_forms_are_critical_and_closed_under_rho_on_zero_planes():
    """A nonzero 0-form: is_critical, the module residual and rho_closed all call the 0-plane critical."""
    phi, xi = AltForm.constant(4, 2.0), OrientedPlane(np.zeros((4, 0)))
    report = is_critical(xi, phi)
    assert report.is_critical and report.residual_module == 0.0 and report.value == 2.0
    assert rho_closed(xi, phi) is True
    with pytest.raises(ValueError, match="degree >= 1"):
        rho_product(phi, [])


# -- rho product -------------------------------------------------------------


def test_rho_is_octonion_cross_product():
    phi = associative_form()
    L = octonion_left_mult()
    for i in range(1, 8):
        for j in range(1, 8):
            if i == j:
                continue
            u = np.eye(7)[:, i - 1]
            v = np.eye(7)[:, j - 1]
            r = rho_product(phi, [u, v])
            # Im(u_i u_j) read off the left-multiplication table
            assert np.allclose(r, L[i][1:, j], atol=1e-12)


def test_rho_is_scaled_bracket_for_cartan():
    g = su_lie_algebra(3)
    phi = cartan_three_form(g)
    rng = np.random.default_rng(7)
    for _ in range(10):
        u, v = rng.standard_normal((2, 8))
        r = rho_product(phi, [u, v])
        assert np.allclose(r, g.bracket(u, v) / np.sqrt(2.0), atol=1e-12)


def test_rho_orthogonal_to_arguments(rng):
    for _ in range(50):
        n = int(rng.integers(2, 8))
        p = int(rng.integers(2, min(n, 4) + 1))
        phi = random_form(rng, n, p)
        vs = [rng.standard_normal(n) for _ in range(p - 1)]
        r = rho_product(phi, vs)
        for v in vs:
            assert abs(r @ v) < 1e-10 * max(1.0, np.linalg.norm(r) * np.linalg.norm(v))


def test_rho_product_is_apply_bit_for_bit(rng):
    """rho goes through the same kernel as apply, so component j is phi(e_j, vs) exactly."""
    for phi in (associative_form(), cayley_form(), random_form(rng, 6, 3)):
        n = phi.n
        for _ in range(5):
            vs = list(rng.standard_normal((phi.p - 1, n)))
            r = rho_product(phi, vs)
            for j in range(n):
                assert r[j] == phi.apply(np.column_stack([np.eye(n)[:, j], *vs]))


def test_rho_product_arity_check():
    with pytest.raises(ValueError):
        rho_product(associative_form(), [np.zeros(7)])


# -- sff ---------------------------------------------------------------------


def test_sff_associative_regression():
    phi = associative_form()
    xi = OrientedPlane(np.eye(7)[:, :3])
    basis, all_trace_free = sff_space(xi, phi)
    assert len(basis) == 12
    assert all_trace_free
    for e in basis:
        assert e.h.shape == (4, 3, 3)
        assert np.allclose(e.h, np.swapaxes(e.h, 1, 2))


def test_sff_simple_two_form_cases():
    # dx1^dx2 in R^4 at its calibrated plane: the system is rigid
    f4 = parse_form("e12", n=4)
    basis, _ = sff_space(OrientedPlane(np.eye(4)[:, :2]), f4)
    assert basis == []
    # dx1^dx2 in R^5 at a zero-value critical plane: solutions exist but
    # are not trace-free, so minimality genuinely fails there
    f5 = parse_form("e12", n=5)
    basis, all_trace_free = sff_space(OrientedPlane(np.eye(5)[:, 2:4]), f5)
    assert len(basis) == 3
    assert not all_trace_free
    assert max(e.trace_residual() for e in basis) > 0.1


def test_sff_rejects_non_critical_plane(rng, monkeypatch):
    """The verdict and its residual are is_critical's, reached without building phi's module."""
    phi = associative_form()
    q, _ = qr_fix(rng.standard_normal((7, 3)))
    xi = OrientedPlane(q)
    residual = is_critical(xi, phi).residual_cousin

    def no_module(*args, **kwargs):
        raise AssertionError("sff_space built phi's module")

    monkeypatch.setattr(critical, "phi_module", no_module)
    with pytest.raises(ValueError, match=re.escape(f"plane is not critical (residual {residual:.3e})")):
        sff_space(xi, phi)


def test_sff_cartan_su3_is_rigid():
    """The highest-root su(2) plane admits only the zero second fundamental form."""
    g = su_lie_algebra(3)
    phi = cartan_three_form(g)
    basis, all_trace_free = sff_space(OrientedPlane(g.highest_root_frame), phi)
    assert basis == []
    assert not all_trace_free


def test_sff_special_lagrangian_trace_free():
    sl = special_lagrangian(3)
    frame = np.zeros((6, 3))
    for j in range(3):
        frame[2 * j, j] = 1.0
    basis, all_trace_free = sff_space(OrientedPlane(frame), sl.calib)
    assert basis
    assert all_trace_free


def test_is_critical_is_one_row_of_the_stacked_report(rng):
    """is_critical on a plane equals that plane's row of a stacked report."""
    su3 = su_lie_algebra(3)
    for phi, calibrated in (
        (associative_form(), np.eye(7)[:, :3]),
        (cayley_form(), np.eye(8)[:, :4]),
        (cartan_three_form(su3), np.asarray(su3.highest_root_frame, dtype=float)),
    ):
        module = phi_module(phi)
        frames = [qr_fix(rng.standard_normal((phi.n, phi.p)))[0] for _ in range(4)] + [calibrated]
        reports = criticality_reports(np.array(frames), phi, tol=1e-9, module=module)
        assert any(r.is_critical for r in reports) and not all(r.is_critical for r in reports)
        for frame, report in zip(frames, reports):
            assert is_critical(OrientedPlane(frame), phi, tol=1e-9, module=module) == report


# -- jet-built replacements against brute force ------------------------------


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 6), p_raw=st.integers(0, 5), seed=st.integers(0, 2**32 - 1))
@example(n=5, p_raw=0, seed=1)  # p = 1
@example(n=4, p_raw=2, seed=2)  # k = 1
@example(n=6, p_raw=2, seed=3)
def test_double_replacements_and_polar_spaces_against_brute_force(n, p_raw, seed):
    """G and T of _adapted_values, rho and polar_space against permutation expansions of explicit frames."""
    rng = np.random.default_rng(seed)
    p = 1 + p_raw % n
    k = n - p
    phi = random_form(rng, n, p)
    xi = OrientedPlane(qr_fix(rng.standard_normal((n, p)))[0])
    comp = xi.completion()
    phi_o, G, T = _adapted_values(phi, xi)
    assert abs(phi_o - brute_eval(phi, comp[:, :p])) < 1e-12
    assert G.shape == (p, k) and T.shape == (p, p, k, k)
    assert not np.any(T[np.arange(p), np.arange(p)])
    for a, s in itertools.product(range(p), range(k)):
        f = comp[:, :p].copy()
        f[:, a] = comp[:, p + s]
        assert abs(G[a, s] - brute_eval(phi, f)) < 1e-12
    for a, b in itertools.permutations(range(p), 2):
        for s, t in itertools.product(range(k), repeat=2):
            f = comp[:, :p].copy()
            f[:, a], f[:, b] = comp[:, p + s], comp[:, p + t]
            assert abs(T[a, b, s, t] - brute_eval(phi, f)) < 1e-12
    # polar space of a random (p-1)-flag: the kernel of gamma(flag, e_j) over the module
    module = phi_module(phi)
    flag = qr_fix(rng.standard_normal((n, p - 1)))[0]
    # rho of the flag: component j is phi(e_j, flag)
    rho = rho_product(phi, flag.T)
    for j, e in enumerate(np.eye(n)):
        assert abs(rho[j] - brute_eval(phi, np.column_stack([e, flag]))) < 1e-12
    polar = polar_space(flag, module)
    brute = np.array([[brute_eval(g, np.column_stack([flag, e])) for e in np.eye(n)] for g in module.basis])
    ref_rank = numerical_rank(np.linalg.svd(brute, compute_uv=False), KERNEL_CUTOFF) if module.rank else 0
    assert polar.shape == (n, n - ref_rank)
    for v in polar.T:
        for g in module.basis:
            assert abs(brute_eval(g, np.column_stack([flag, v]))) < 1e-9


# -- Theorem 1 away from calibrated planes -----------------------------------


@pytest.mark.parametrize(
    "phi",
    [associative_form(), cayley_form(), special_lagrangian(3).calib, special_lagrangian(4).calib],
    ids=["associative", "cayley", "slag3", "slag4"],
)
def test_sff_solutions_are_trace_free_at_every_nonzero_critical_plane(phi):
    """Theorem 1 pointwise: at a critical plane with nonzero value every sff solution is trace-free."""
    catalog = critical_spectrum(phi, trials=24, params=SearchParams(trials=24, master_seed=0))
    nonzero = [xi for xi, v in zip(catalog.planes, catalog.values) if abs(v) > 1e-6]
    assert nonzero
    for xi in nonzero:
        basis, _ = sff_space(xi, phi)
        assert all(e.trace_residual() < 1e-10 for e in basis)


def test_sff_at_a_zero_value_critical_plane_need_not_be_trace_free():
    """Theorem 1 needs its nonzero hypothesis: a value-0 su(4) critical plane has a non-minimal solution."""
    phi = cartan_three_form(su_lie_algebra(4))
    catalog = critical_spectrum(phi, trials=24, params=SearchParams(trials=24, master_seed=0))
    worst = [
        max((e.trace_residual() for e in sff_space(xi, phi)[0]), default=0.0)
        for xi, v in zip(catalog.planes, catalog.values)
        if abs(v) <= 1e-6
    ]
    assert max(worst, default=0.0) > 0.1
