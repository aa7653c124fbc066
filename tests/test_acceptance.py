"""Acceptance gate: ten criteria, one pass/fail line each.

Each criterion prints a single `[PASS]`/`[FAIL]` line (visible with -s or on
failure) and then asserts.  Sub-failures are collected so the assertion
message names every part that missed its target.
"""

import itertools
import json

import numpy as np
import pytest

from calibkit import (
    FormModule,
    OrientedPlane,
    SearchParams,
    associative_form,
    build_clifford,
    cartan_three_form,
    cayley_form,
    coassociative_form,
    cousin_matrix,
    evaluate,
    hodge_star,
    integral_element_codim,
    is_critical,
    cartan_test,
    parse_form,
    phi_module,
    qr_fix,
    random_plane,
    rho_closed,
    rho_product,
    sff_space,
    special_lagrangian,
    stabilizer_dim,
    stabilizer_kernel,
    su_lie_algebra,
    subspace_distance,
    trial_seed,
    comass_search,
    critical_spectrum,
)
from calibkit.cli import main as cli_main

from conftest import random_form


def verdict(name, failures):
    ok = not failures
    print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, "; ".join(failures)


def expm_skew(theta):
    w, v = np.linalg.eig(np.asarray(theta, dtype=complex))
    return (v @ np.diag(np.exp(w)) @ np.linalg.inv(v)).real


def calibrated_coordinate_plane(n, cols):
    return OrientedPlane(np.eye(n)[:, list(cols)])


def real_locus(m):
    frame = np.zeros((2 * m, m))
    for j in range(m):
        frame[2 * j, j] = 1.0
    return OrientedPlane(frame)


def families():
    """(name, form, a calibrated plane) for every constructed calibration."""
    out = [
        ("associative", associative_form(), calibrated_coordinate_plane(7, (0, 1, 2))),
        ("coassociative", coassociative_form(), calibrated_coordinate_plane(7, (3, 4, 5, 6))),
        ("cayley", cayley_form(), calibrated_coordinate_plane(8, (0, 1, 2, 3))),
    ]
    for m in (2, 3, 4):
        out.append((f"slag{m}", special_lagrangian(m).calib, real_locus(m)))
    g = su_lie_algebra(3)
    out.append(("cartan_su3", cartan_three_form(g), OrientedPlane(g.highest_root_frame)))
    return out


def stabilizer_orbit(phi, base, count, seed):
    """Critical planes constructed by rotating a calibrated plane with the stabilizer."""
    kernel = stabilizer_kernel(phi)
    rng = np.random.default_rng(seed)
    planes = []
    for _ in range(count):
        w = rng.standard_normal(len(kernel))
        theta = sum(c * t.entries for c, t in zip(w, kernel))
        g = expm_skew(theta)
        planes.append(OrientedPlane(g @ base.frame, orthonormalize=True))
    return planes


def test_criterion_01_module_dimensions():
    failures = []
    for name, phi, expected in [
        ("associative", associative_form(), 7),
        ("coassociative", coassociative_form(), 7),
        ("cayley", cayley_form(), 7),
        # m = 2: Re(dz1^dz2) is a Kaehler form with stabilizer u(2), so 6 - 4
        ("slag2", special_lagrangian(2).calib, 2),
        ("slag3", special_lagrangian(3).calib, 3 * 3 - 3 + 1),
        ("slag4", special_lagrangian(4).calib, 4 * 4 - 4 + 1),
    ]:
        got = phi_module(phi).rank
        if got != expected:
            failures.append(f"{name}: dim Phi = {got}, expected {expected}")
    verdict("criterion 1: module dimensions", failures)


def test_criterion_02_stabilizer_dimensions():
    failures = []
    for name, phi, expected in [
        ("associative", associative_form(), 14),
        ("coassociative", coassociative_form(), 14),
        ("cayley", cayley_form(), 21),
        # m = 2: Re(dz1^dz2) is a Kaehler form, stabilizer u(2), not su(2)
        ("slag2", special_lagrangian(2).calib, 4),
        ("slag3", special_lagrangian(3).calib, 3 * 3 - 1),
        ("slag4", special_lagrangian(4).calib, 4 * 4 - 1),
    ]:
        got = stabilizer_dim(phi)
        if got != expected:
            failures.append(f"{name}: stabilizer dim = {got}, expected {expected}")
    verdict("criterion 2: stabilizer dimensions", failures)


def test_criterion_03_three_way_equivalence():
    tol = 1e-8
    failures = []
    for fam_idx, (name, phi, base) in enumerate(families()):
        module = phi_module(phi)
        n, p = phi.n, phi.p
        planes = [random_plane(n, p, trial_seed(100 + fam_idx, t)) for t in range(1000)]
        planes += stabilizer_orbit(phi, base, 100, seed=200 + fam_idx)
        disagreements = 0
        for xi in planes:
            rep = is_critical(xi, phi, tol=tol, module=module)
            verdict_cousin = rep.residual_cousin < tol
            verdict_module = rep.residual_module < tol
            verdict_rho = rho_closed(xi, phi, tol=tol)
            if not (verdict_cousin == verdict_module == verdict_rho):
                disagreements += 1
        if disagreements:
            failures.append(f"{name}: {disagreements}/{len(planes)} verdicts disagree")
    verdict("criterion 3: three-way criticality equivalence", failures)


def test_criterion_04_comass_one():
    failures = []
    for name, phi, _ in families():
        value, _ = comass_search(phi, trials=200)
        if abs(value - 1.0) > 1e-6:
            failures.append(f"{name}: comass = {value:.8f}")
    verdict("criterion 4: comass 1 for every constructed calibration", failures)


def test_criterion_05_value_spectra():
    failures = []
    unimodular = [
        ("associative", associative_form()),
        ("coassociative", coassociative_form()),
        ("cayley", cayley_form()),
        ("slag2", special_lagrangian(2).calib),
        ("slag3", special_lagrangian(3).calib),
    ]
    for name, phi in unimodular:
        catalog = critical_spectrum(phi, trials=500)
        if not catalog.values:
            failures.append(f"{name}: no converged trials")
            continue
        off = [c for c, _ in catalog.clusters if abs(c - 1.0) > 1e-6]
        if off:
            failures.append(f"{name}: spurious |value| clusters {off}")
    g = su_lie_algebra(3)
    phi = cartan_three_form(g)
    catalog = critical_spectrum(phi, trials=500)
    centers = [c for c, _ in catalog.clusters]
    if not any(abs(c - 1.0) < 1e-6 for c in centers):
        failures.append(f"cartan_su3: no cluster at 1 (centers {centers})")
    if not any(1e-6 < c < 1.0 - 1e-6 for c in centers):
        failures.append(f"cartan_su3: no cluster strictly inside (0,1) (centers {centers})")
    worst_bracket = 0.0
    for xi in catalog.planes:
        proj = np.eye(8) - xi.frame @ xi.frame.T
        for i, j in itertools.combinations(range(3), 2):
            br = g.bracket(xi.frame[:, i], xi.frame[:, j])
            worst_bracket = max(worst_bracket, float(np.max(np.abs(proj @ br))))
    if worst_bracket > 1e-8:
        failures.append(f"cartan_su3: bracket closure residual {worst_bracket:.2e}")
    verdict("criterion 5: critical value spectra", failures)


def test_criterion_06_minimality():
    failures = []
    for name, phi, base in families():
        if abs(evaluate(phi, base)) < 1e-8:
            failures.append(f"{name}: base plane has zero value")
            continue
        # "every basis element is trace-free": vacuously true when the
        # solution space is {0} (a rigid plane, as for the root su(2))
        basis, all_trace_free = sff_space(base, phi)
        worst = max((e.trace_residual() for e in basis), default=0.0)
        if worst > 1e-10:
            failures.append(f"{name}: trace residual {worst:.2e}")
        if basis and not all_trace_free:
            failures.append(f"{name}: trace-free flag is False")
    # negative case: a zero-value critical plane of dx1^dx2 admits sff
    # solutions that are not trace-free
    f5 = parse_form("e12", n=5)
    xi0 = OrientedPlane(np.eye(5)[:, 2:4])
    basis, all_trace_free = sff_space(xi0, f5)
    if not basis:
        failures.append("dx12 zero-value plane: no sff solutions at all")
    elif all_trace_free or max(e.trace_residual() for e in basis) < 0.1:
        failures.append("dx12 zero-value plane: trace-free did not fail")
    verdict("criterion 6: minimality identity (trace-free sff)", failures)


def test_criterion_07_spinor_construction():
    failures = []
    model = build_clifford()
    x = model.s_plus[:, 0]
    for k in range(9):
        norm = model.spinor_square(x, k).norm()
        if k not in (0, 4, 8) and norm > 1e-10:
            failures.append(f"degree {k} component norm {norm:.2e}")
    if model.spinor_square(x, 0).coeffs.get((), 0.0) != pytest.approx(1.0, abs=1e-10):
        failures.append("phi_0 != 1")
    from calibkit import AltForm

    if not model.spinor_square(x, 8).approx_eq(AltForm.volume(8), tol=1e-10):
        failures.append("phi_8 != vol")
    forms, span = model.psi_forms(x)
    if len(forms) != 7:
        failures.append(f"N = {len(forms)} Psi-forms, expected 7")
    phi4 = model.spinor_square(x, 4)
    dist = subspace_distance(span, phi_module(phi4))
    if dist >= 1e-9:
        failures.append(f"span distance {dist:.2e}")
    # gamma_j (degree-4 part of 16(x_j o x_0 + x_0 o x_j)) equals 2 Psi_j
    coords = model.s_plus.T @ x
    rot, _ = qr_fix(np.column_stack([coords, np.eye(8)]))
    basis = model.s_plus @ rot[:, :8]
    basis[:, 0] = x
    for j in range(1, 8):
        endo = 16.0 * (np.outer(basis[:, j], x) + np.outer(x, basis[:, j]))
        gamma_j = model._component(endo, 4)
        diff = (gamma_j - 2.0 * forms[j - 1]).dense()
        if np.max(np.abs(diff)) > 1e-10:
            failures.append(f"gamma_{j} != 2 Psi_{j}")
    verdict("criterion 7: squared-spinor construction", failures)


def test_criterion_08_eds():
    failures = []
    psi = coassociative_form()
    report = cartan_test(calibrated_coordinate_plane(7, (3, 4, 5, 6)), phi_module(psi))
    if report.actual_codim != 4:
        failures.append(f"coassociative codim {report.actual_codim} != 4")
    if report.cartan_bound != 3:
        failures.append(f"coassociative bound {report.cartan_bound} != 3")
    if report.involutive_at_flag:
        failures.append("coassociative flagged involutive")
    for name, phi, base in families():
        module = phi_module(phi)
        for xi in [base] + stabilizer_orbit(phi, base, 5, seed=400):
            codim = integral_element_codim(xi, module)
            if codim < phi.n - phi.p:
                failures.append(f"{name}: codim {codim} < n-p = {phi.n - phi.p}")
                break
    phi = associative_form()
    xi = calibrated_coordinate_plane(7, (0, 1, 2))
    xi_perp = OrientedPlane(xi.normal_frame())
    codim_p = integral_element_codim(xi, phi_module(phi))
    codim_dual = integral_element_codim(xi_perp, phi_module(hodge_star(phi)))
    if codim_p != codim_dual:
        failures.append(f"Hodge-dual codims differ: {codim_p} vs {codim_dual}")
    verdict("criterion 8: exterior differential system checks", failures)


def test_criterion_09_gradient_and_orthogonality():
    failures = []
    rng = np.random.default_rng(42)
    h = 1e-5
    worst_fd = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 8))
        p = int(rng.integers(1, n))
        phi = random_form(rng, n, p)
        xi = random_plane(n, p, rng)
        g = cousin_matrix(phi, xi)
        nn = xi.normal_frame()
        for a in range(p):
            for s in range(n - p):
                delta = np.zeros((n, p))
                delta[:, a] = nn[:, s]
                plus, _ = qr_fix(xi.frame + h * delta)
                minus, _ = qr_fix(xi.frame - h * delta)
                fd = (evaluate(phi, plus) - evaluate(phi, minus)) / (2.0 * h)
                worst_fd = max(worst_fd, abs(g[s, a] - fd))
    if worst_fd > 1e-6:
        failures.append(f"gradient finite-difference mismatch {worst_fd:.2e}")
    worst_orth = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 8))
        p = int(rng.integers(2, min(n, 4) + 1))
        phi = random_form(rng, n, p)
        vs = [rng.standard_normal(n) for _ in range(p - 1)]
        r = rho_product(phi, vs)
        for v in vs:
            worst_orth = max(worst_orth, abs(float(r @ v)))
    if worst_orth > 1e-12:
        failures.append(f"rho orthogonality residual {worst_orth:.2e}")
    verdict("criterion 9: gradient consistency and rho orthogonality", failures)


def test_criterion_10_determinism(tmp_path, capsys):
    failures = []
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["search", "--family", "cayley", "--trials", "25", "--seed", "11", "--json"]
    code_a = cli_main(args + ["--out", str(a)])
    code_b = cli_main(args + ["--out", str(b)])
    capsys.readouterr()
    if code_a != 0 or code_b != 0:
        failures.append(f"exit codes {code_a}, {code_b}")
    elif a.read_bytes() != b.read_bytes():
        failures.append("catalogs differ between identically seeded runs")
    # per-trial seeding is schedule independent, so execution order (including
    # any parallel schedule) cannot change the catalog
    forward = [random_plane(8, 4, trial_seed(11, t)).frame for t in range(8)]
    backward = [random_plane(8, 4, trial_seed(11, t)).frame for t in reversed(range(8))]
    for f, bb in zip(forward, reversed(backward)):
        if not np.array_equal(f, bb):
            failures.append("trial seeds depend on schedule order")
            break
    verdict("criterion 10: deterministic search catalogs", failures)
