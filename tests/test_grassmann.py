"""Grassmannian sampling and search: determinism, gradients, convergence."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from calibkit import (
    AltForm,
    OrientedPlane,
    SearchParams,
    ascend,
    associative_form,
    cartan_three_form,
    cayley_form,
    coassociative_form,
    comass_search,
    cousin_matrix,
    critical_spectrum,
    evaluate,
    is_critical,
    parse_form,
    phi_module,
    qr_fix,
    random_plane,
    su_lie_algebra,
    trial_seed,
)
from calibkit import grassmann, special_lagrangian
from calibkit.critical import _module_rows, completions, tol_scale
from calibkit.exterior import stack_values
from calibkit.grassmann import _cluster_1d, _damped_step, _lockstep, _start_frames

from conftest import random_form

FAST = SearchParams(max_iters=2000, trials=30, master_seed=0)


def test_random_plane_determinism():
    a = random_plane(7, 3, trial_seed(0, 5))
    b = random_plane(7, 3, trial_seed(0, 5))
    c = random_plane(7, 3, trial_seed(0, 6))
    assert np.array_equal(a.frame, b.frame)
    assert not np.array_equal(a.frame, c.frame)


def test_trial_seed_is_schedule_independent():
    """Per-trial seeds do not depend on the order trials are drawn in."""
    forward = [random_plane(5, 2, trial_seed(3, t)).frame for t in range(4)]
    backward = [random_plane(5, 2, trial_seed(3, t)).frame for t in reversed(range(4))]
    for f, b in zip(forward, reversed(backward)):
        assert np.array_equal(f, b)


def test_random_plane_haar_mean_projector():
    """The mean projector of Haar planes is (p/n) I; loose statistical check."""
    n, p, trials = 5, 2, 3000
    acc = np.zeros((n, n))
    for t in range(trials):
        f = random_plane(n, p, trial_seed(1, t)).frame
        acc += f @ f.T
    acc /= trials
    assert np.max(np.abs(acc - (p / n) * np.eye(n))) < 0.03


def test_random_plane_rejects_bad_shape():
    with pytest.raises(ValueError):
        random_plane(3, 4, trial_seed(0, 0))


def test_riemann_gradient_matches_finite_differences(rng):
    """Directional derivatives through the QR retraction match the gradient."""
    h = 1e-6
    for _ in range(20):
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
                assert g[s, a] == pytest.approx(fd, abs=1e-6)


def test_ascend_reaches_calibrated_plane():
    phi = associative_form()
    start = random_plane(7, 3, trial_seed(0, 0))
    result = ascend(phi, start, FAST, sense="maximize")
    assert result.converged
    assert result.value == pytest.approx(1.0, abs=1e-8)
    assert result.report.is_critical


def test_ascend_minimize_reaches_negative_value():
    phi = associative_form()
    start = random_plane(7, 3, trial_seed(0, 1))
    result = ascend(phi, start, FAST, sense="minimize")
    assert result.converged
    assert result.value == pytest.approx(-1.0, abs=1e-8)


def test_ascend_critical_sense_converges():
    phi = cartan_three_form(su_lie_algebra(3))
    module = phi_module(phi)
    hits = 0
    for t in range(10):
        start = random_plane(8, 3, trial_seed(0, t))
        result = ascend(phi, start, FAST, sense="critical", module=module)
        if result.converged:
            hits += 1
            assert result.report.residual_cousin < 1e-9
    assert hits >= 5


def test_ascend_rejects_unknown_sense():
    phi = associative_form()
    with pytest.raises(ValueError):
        ascend(phi, random_plane(7, 3, trial_seed(0, 0)), FAST, sense="sideways")


def test_comass_estimate_associative():
    value, _ = comass_search(associative_form(), trials=20, params=FAST)
    assert value == pytest.approx(1.0, abs=1e-8)


def test_comass_search_returns_calibrated_plane():
    phi = associative_form()
    value, plane = comass_search(phi, trials=20, params=FAST)
    assert evaluate(phi, plane) == pytest.approx(value)
    assert is_critical(plane, phi).is_critical


def test_comass_search_scales_with_form():
    """Search tolerances are relative to phi, so a tiny multiple keeps its comass."""
    value, _ = comass_search(1e-10 * associative_form(), params=SearchParams(max_iters=200, trials=5))
    assert value == pytest.approx(1e-10, rel=1e-6)


def test_search_params_validation():
    with pytest.raises(ValueError):
        SearchParams(grad_tol=1e-3)
    for bad in (
        {"trials": -5},
        {"master_seed": -1},
        {"grad_tol": float("nan")},
        {"max_iters": 2.5},
        {"max_iters": 100.0},
        {"trials": 2.5},
        {"master_seed": 1.0},
        {"max_iters": True},
        {"trials": True},
        {"master_seed": False},
        {"trials": "3"},
        {"max_iters": "3"},
    ):
        with pytest.raises(ValueError):
            SearchParams(**bad)
    assert SearchParams(trials=0).trials == 0
    params = SearchParams(max_iters=np.int64(7), trials=np.int32(3), master_seed=np.uint8(2))
    assert (params.max_iters, params.trials, params.master_seed) == (7, 3, 2)
    # the step rule's constants are not settings
    with pytest.raises(TypeError):
        SearchParams(step_init=0.2)


def test_cluster_1d():
    assert _cluster_1d([], 0.1) == []
    clusters = _cluster_1d([1.0, 1.001, 0.5, 0.502, 0.0], 0.01)
    assert [c for _, c in clusters] == [1, 2, 2]
    centers = [c for c, _ in clusters]
    assert centers[0] == pytest.approx(0.0)
    assert centers[1] == pytest.approx(0.501)
    assert centers[2] == pytest.approx(1.0005)


def test_critical_spectrum_associative_is_unimodular():
    catalog = critical_spectrum(associative_form(), trials=40, params=FAST)
    assert catalog.trials == 40
    assert len(catalog.values) >= 30
    for center, _ in catalog.clusters:
        assert center == pytest.approx(1.0, abs=1e-6)


def test_trials_argument_is_the_catalog_s_trial_count():
    """trials= overrides params.trials, and the catalog and its payload report the count that ran."""
    catalog = critical_spectrum(associative_form(), trials=3, params=SearchParams(trials=200))
    assert catalog.trials == catalog.params.trials == 3
    payload = catalog.to_json()
    assert payload["trials"] == payload["params"]["trials"] == 3


def test_critical_spectrum_deterministic():
    phi = associative_form()
    a = critical_spectrum(phi, trials=15, params=FAST)
    b = critical_spectrum(phi, trials=15, params=FAST)
    assert a.values == b.values
    assert a.residuals == b.residuals
    for pa, pb in zip(a.planes, b.planes):
        assert np.array_equal(pa.frame, pb.frame)
    assert a.to_json() == b.to_json()


@pytest.mark.parametrize("family, counts", [("su4", [4, 14, 5, 1]), ("slag4", [8, 16])])
def test_catalog_clusters_scale_with_the_form(family, counts):
    """Cluster gaps are relative to max|coefficient|, so c * phi keeps phi's clusters at every scale.

    With the absolute gap both catalogs fall into one cluster of 24 at c <= 1e-6.
    A power of two scales every step exactly, so values/c keep their bits;
    1e-6 and 1e6 moved them by at most 1.33e-15 (6 ulps of 1) on the SkylakeX,
    Haswell, Zen, SandyBridge and Nehalem kernels of OpenBLAS.
    """
    phi = cartan_three_form(su_lie_algebra(4)) if family == "su4" else special_lagrangian(4).calib
    params = SearchParams(trials=24, master_seed=0)
    base = critical_spectrum(phi, params=params)
    assert [k for _, k in base.clusters] == counts
    for c in (2.0**-40, 2.0**-20, 1e-6, 1.0, 1e6, 2.0**20):
        catalog = critical_spectrum(c * phi, params=params)
        assert [k for _, k in catalog.clusters] == counts
        error = np.max(np.abs(np.array(catalog.values) / c - base.values))
        assert error <= (8 * np.finfo(float).eps if c in (1e-6, 1e6) else 0.0)


LOCKSTEP_FORMS = {
    "associative": associative_form,
    "cayley": cayley_form,
    "slag4": lambda: special_lagrangian(4).calib,
    "su3": lambda: cartan_three_form(su_lie_algebra(3)),
    "su4": lambda: cartan_three_form(su_lie_algebra(4)),  # the tall 90 x 36 Gauss-Newton Jacobian
}


@pytest.mark.parametrize("name", sorted(LOCKSTEP_FORMS))
@pytest.mark.parametrize("sense", ["maximize", "minimize", "critical"])
def test_trial_alone_equals_trial_in_block(name, sense):
    """A trial gives the same bits, iterations, value and residual alone as inside a lockstep block."""
    phi = LOCKSTEP_FORMS[name]()
    module = phi_module(phi)
    params = SearchParams(max_iters=2000, master_seed=3)
    starts = _start_frames(phi.n, phi.p, [trial_seed(3, t) for t in range(5)])
    frames, values, residuals, converged, iterations = _lockstep(phi, starts, params, sense, module)
    for t in range(len(starts)):
        alone = ascend(phi, random_plane(phi.n, phi.p, trial_seed(3, t)), params, sense=sense, module=module)
        assert np.array_equal(alone.plane.frame, frames[t])
        assert alone.iterations == iterations[t]
        assert alone.converged == converged[t]
        _, value, residual, _, _ = _lockstep(phi, starts[t : t + 1], params, sense, module)
        assert value[0] == values[t] and residual[0] == residuals[t]


@pytest.mark.parametrize("name", ["associative", "su3"])
@pytest.mark.parametrize("sense", ["maximize", "critical"])
@pytest.mark.parametrize("max_iters", [1, 3])
def test_search_results_are_read_at_the_returned_frames(name, sense, max_iters):
    """Trials stopped by max_iters report the value at the frame they return, bit for bit."""
    phi = LOCKSTEP_FORMS[name]()
    module = phi_module(phi)
    starts = _start_frames(phi.n, phi.p, [trial_seed(2, t) for t in range(6)])
    frames, values, residuals, converged, _ = _lockstep(phi, starts, SearchParams(max_iters=max_iters), sense, module)
    idx0, rows = _module_rows(phi, module)
    assert np.array_equal(values, stack_values(rows, idx0, frames)[:, 0])
    assert np.array_equal(converged, residuals < SearchParams().grad_tol * tol_scale(phi))


def test_catalogs_do_not_depend_on_the_block_size(monkeypatch):
    """Blocks of 1, a ragged split (4 + 4 + 3) and the default block give the same catalog bits."""
    phi = cartan_three_form(su_lie_algebra(3))
    catalog = critical_spectrum(phi, trials=11, params=FAST).to_json()
    comass = comass_search(phi, trials=11, params=FAST)
    for block in (1, 4):
        monkeypatch.setattr(grassmann, "_TRIAL_BLOCK", block)
        assert critical_spectrum(phi, trials=11, params=FAST).to_json() == catalog
        value, plane = comass_search(phi, trials=11, params=FAST)
        assert value == comass[0]
        assert np.array_equal(plane.frame, comass[1].frame)


def test_searches_split_over_default_blocks_match_one_stack(monkeypatch):
    """More trials than _TRIAL_BLOCK split the default block; one stack of them all gives the same bits."""
    phi = associative_form()
    trials = grassmann._TRIAL_BLOCK + 6
    catalog = critical_spectrum(phi, trials=trials, params=FAST).to_json()
    comass = comass_search(phi, trials=trials, params=FAST)
    monkeypatch.setattr(grassmann, "_TRIAL_BLOCK", trials)
    assert critical_spectrum(phi, trials=trials, params=FAST).to_json() == catalog
    value, plane = comass_search(phi, trials=trials, params=FAST)
    assert value == comass[0]
    assert np.array_equal(plane.frame, comass[1].frame)


def test_comass_search_takes_the_first_trial_within_tolerance():
    """Maximizers tie up to round-off; the lowest such trial index wins, not the last bit."""
    phi = cayley_form()
    params = SearchParams(max_iters=2000, trials=12, master_seed=5)
    found = [
        (v, f) for f, v, _, ok, _ in grassmann._trials(phi, params, "maximize", phi_module(phi)) if ok
    ]
    values = [v for v, _ in found]
    assert max(values) - min(values) < 1e-12  # every converged trial ties at the comass
    value, plane = comass_search(phi, params=params)
    assert value == found[0][0]
    assert np.array_equal(plane.frame, found[0][1])


# name -> (form, its catalog clusters and comass at 3 trials)
DEGENERATE_FORMS = {
    "volume": (lambda: AltForm.volume(4), [(1.0, 3)], 0.9999999999999998),  # k = 0
    "constant": (lambda: AltForm.constant(3, 2.0), [(2.0, 3)], 2.0),  # p = 0
    "zero": (lambda: AltForm.zero(5, 2), [(0.0, 3)], 0.0),  # a module of rank 0
    "e1": (lambda: parse_form("e1", n=3), [(1.0, 3)], 1.0),  # p = 1
}


@pytest.mark.parametrize("name", sorted(DEGENERATE_FORMS))
def test_degenerate_shapes_run_the_gauss_newton_loop(name):
    """p k = 0, a module of rank 0 and p = 1 need no special case: each first jet already decides."""
    make, clusters, comass = DEGENERATE_FORMS[name]
    phi = make()
    params = SearchParams(trials=3)
    assert critical_spectrum(phi, params=params).clusters == clusters
    assert comass_search(phi, params=params)[0] == comass
    result = ascend(phi, random_plane(phi.n, phi.p, trial_seed(0, 0)), params)
    assert result.converged and result.report.is_critical


def test_su4_catalog_of_the_search_su4_workload():
    """The 24-trial su(4) catalog at seed 1, as `calibkit search --family cartan --algebra su4` gives it."""
    phi = cartan_three_form(su_lie_algebra(4))
    catalog = critical_spectrum(phi, params=SearchParams(trials=24, master_seed=1))
    assert [count for _, count in catalog.clusters] == [14, 8, 2]
    assert [center for center, _ in catalog.clusters] == pytest.approx([0.0, 0.1**0.5, 0.5], abs=1e-12)


def test_su5_catalog_centres_are_principal_su2_values():
    """Every nonzero centre of a 24-trial su(5) catalog is 1/sqrt(sum d_i (d_i^2 - 1) / 6) for a partition d of 5.

    That is the value of the su(2) embedded by the partition, 1/sqrt of its
    Dynkin index; at seed 1 the catalog finds 0 and the partitions
    [5], [4, 1] and [3, 2]: 1/sqrt(20), 1/sqrt(10) and 1/sqrt(5).
    """
    phi = cartan_three_form(su_lie_algebra(5))
    catalog = critical_spectrum(phi, params=SearchParams(trials=24, master_seed=1))
    partitions = [(5,), (4, 1), (3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1)]
    expected = {d: 1.0 / math.sqrt(sum(x * (x * x - 1) for x in d) / 6.0) for d in partitions}
    centres = [center for center, _ in catalog.clusters]
    assert centres[0] == pytest.approx(0.0, abs=1e-12)
    for center in centres[1:]:
        assert min(abs(center - v) for v in expected.values()) < 1e-10
    assert [count for _, count in catalog.clusters] == [14, 7, 1, 2]
    assert centres[1:] == pytest.approx([expected[(5,)], expected[(4, 1)], expected[(3, 2)]], abs=1e-10)


# Gauss-Newton Jacobians: su4's and su3's tall ones, and wide ones
STEP_SHAPES = [(90, 36), (20, 15), (7, 12), (13, 16)]


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    shape=st.sampled_from(STEP_SHAPES),
    rank_raw=st.integers(0, 36),
    scale=st.sampled_from([1e-6, 1.0, 1e4]),
    seed=st.integers(0, 2**32 - 1),
)
@example(shape=(90, 36), rank_raw=36, scale=1.0, seed=0)  # full rank
@example(shape=(20, 15), rank_raw=7, scale=1.0, seed=1)  # rank-deficient
@example(shape=(7, 12), rank_raw=0, scale=1.0, seed=2)  # a zero Jacobian
def test_damped_step_is_the_lstsq_step_up_to_its_damping(shape, rank_raw, scale, seed):
    """Against lstsq(J, -r, rcond=1e-12), whose nonzero singular values are >= 1e-3 sigma_max.

    On J's row space the steps agree to 1e-8 relative beyond the damping's own
    shrink mu / (sigma_min^2 + mu); the null-space part is round-off of order
    eps |J| (|r| + |J| |lstsq step|) / mu.  A trial's step has the same bits
    alone as in a stack.
    """
    rng = np.random.default_rng(seed)
    rows, cols = shape
    rank = rank_raw % (min(shape) + 1)
    jac = scale * rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
    r = rng.standard_normal(rows)
    _, sigma, vt = np.linalg.svd(jac)
    assume(rank == 0 or sigma[rank - 1] >= 1e-3 * sigma[0])
    want = np.linalg.lstsq(jac, -r, rcond=1e-12)[0]
    step = _damped_step(jac[None], r[None])[0]
    other = rng.standard_normal((rows, cols))
    assert np.array_equal(_damped_step(np.stack([other, jac, 1e3 * other]), np.stack([r, r, r]))[1], step)
    mu = 1e-12 * np.max(np.sum(jac * jac, axis=0), initial=0.0) + np.finfo(float).tiny
    shrink = mu / (sigma[rank - 1] ** 2 + mu) if rank else 0.0
    row = vt[:rank]
    assert np.linalg.norm(row @ (step - want)) <= (1e-8 + shrink) * np.linalg.norm(want)
    null_part = np.linalg.norm(step - row.T @ (row @ step))
    noise = np.finfo(float).eps * sigma[0] * (np.linalg.norm(r) + sigma[0] * np.linalg.norm(want)) / mu
    assert null_part <= 10 * noise


@pytest.mark.parametrize(
    "rows, cols",
    [(5, 4), (5, 0), (0, 4), (0, 0)],  # a zero Jacobian; p k = 0; a module of rank 0; both
)
def test_damped_step_is_zero_without_a_jacobian(rows, cols):
    """A zero, empty or rank-0 Jacobian gives a zero step of p k entries, for any residual."""
    step = _damped_step(np.zeros((3, rows, cols)), np.ones((3, rows)))
    assert step.shape == (3, cols)
    assert np.all(step == 0.0)
    assert _damped_step(np.zeros((0, rows, cols)), np.zeros((0, rows))).shape == (0, cols)


SEARCH_FORMS = {
    "associative": (associative_form, 24),
    "coassociative": (coassociative_form, 24),
    "cayley": (cayley_form, 24),
    "slag3": (lambda: special_lagrangian(3).calib, 24),
    "slag4": (lambda: special_lagrangian(4).calib, 24),
    "su3": (lambda: cartan_three_form(su_lie_algebra(3)), 24),
    "su4": (lambda: cartan_three_form(su_lie_algebra(4)), 6),
}


@pytest.mark.parametrize("name", sorted(SEARCH_FORMS))
def test_search_values_and_residuals_pass_the_three_residual_report(name):
    """Catalog planes and the comass maximizer are critical by is_critical, with the values the search reports."""
    make, trials = SEARCH_FORMS[name]
    phi = make()
    params = SearchParams(trials=trials)
    tol = 1e-14 * tol_scale(phi)
    catalog = critical_spectrum(phi, params=params)
    assert catalog.planes
    for plane, value, residual in zip(catalog.planes, catalog.values, catalog.residuals):
        report = is_critical(plane, phi, tol=10 * params.grad_tol)
        assert report.is_critical
        assert abs(report.value - value) <= tol
        assert abs(report.residual_cousin - residual) <= tol
    value, plane = comass_search(phi, params=params)
    report = is_critical(plane, phi, tol=10 * params.grad_tol)
    assert report.is_critical
    assert abs(report.value - value) <= tol


@pytest.mark.parametrize("name", sorted(SEARCH_FORMS))
def test_reports_give_catalog_values_bit_for_bit(name):
    """is_critical takes the search's own jet of [phi; module], so every catalog plane reports its catalog value.

    ascend from trial 0's seed returns catalog plane 0 and reports its value too.
    """
    make, trials = SEARCH_FORMS[name]
    phi = make()
    module = phi_module(phi)
    params = SearchParams(trials=trials)
    catalog = critical_spectrum(phi, params=params)
    assert catalog.planes
    for plane, value in zip(catalog.planes, catalog.values):
        assert is_critical(plane, phi, module=module).value == value
    alone = ascend(phi, random_plane(phi.n, phi.p, trial_seed(0, 0)), params, sense="critical", module=module)
    assert alone.converged
    assert np.array_equal(alone.plane.frame, catalog.planes[0].frame)
    assert alone.value == catalog.values[0]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 9),
    p_raw=st.integers(0, 9),
    scale=st.sampled_from([0.0, 1e-8, 1.0, 1e3]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=5, p_raw=0, scale=1.0, seed=1)  # p = 0
@example(n=5, p_raw=5, scale=1.0, seed=2)  # p = n
@example(n=9, p_raw=4, scale=1e3, seed=3)
def test_retraction_carries_the_completion_of_its_frame(n, p_raw, scale, seed):
    """Completions keep their frames; a retracted one is qr_fix's frame, then its `completions`, orthogonal."""
    rng = np.random.default_rng(seed)
    p = p_raw % (n + 1)
    frames, _ = qr_fix(rng.standard_normal((3, n, p)))
    qs = completions(frames)
    assert np.array_equal(qs[:, :, :p], frames)
    assert np.max(np.abs(np.swapaxes(qs, 1, 2) @ qs - np.eye(n))) <= 1e-14
    coords = scale * rng.standard_normal((3, p, n - p))
    moved = grassmann._retract(qs, coords)
    expect, _ = qr_fix(frames + qs[:, :, p:] @ np.swapaxes(coords, 1, 2))
    assert np.max(np.abs(moved[:, :, :p] - expect), initial=0.0) <= 1e-14
    assert np.max(np.abs(moved[:, :, p:] - completions(moved[:, :, :p])[:, :, p:]), initial=0.0) <= 1e-14
    assert np.max(np.abs(np.swapaxes(moved, 1, 2) @ moved - np.eye(n))) <= 1e-14


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_ascent_carries_the_vertex_of_the_fitted_parabola(monkeypatch, sign):
    """An accepted try of step s carries the vertex of the parabola through (0, 0), slope g2, and (s, gain).

    With g2 = 4 and s = 0.5 the vertex is 1 / (2 (2 - gain)), clipped to
    [_SHRINK s, 2 s] = [0.25, 1]; a parabola that does not bend down carries 2 s.
    """
    calls = []
    monkeypatch.setattr(grassmann, "_line_search", lambda qs, *args: calls.append(args) or (qs, None, None, None))
    params = SearchParams()
    grassmann._ascent(associative_form(), _start_frames(7, 3, [0]), params, sign, 0.5)
    (_, _, start, _, _, rule), = calls
    assert np.array_equal(start, [4.0 * grassmann._STEP_INIT])  # the first try is 2 _STEP_INIT / scale
    gain = np.array([1.0, 1.25, 1.75, -2.0, 2.0, 3.0])
    first = np.zeros((len(gain), 3, 4))
    first[:, 1, 2] = 2.0
    value = np.linspace(-1.0, 1.0, len(gain))
    direction, step, moving, accept = rule(value, first, np.array([0.5, 30.0, 0.5, 0.5, 0.5, 0.5]))
    assert np.array_equal(direction, sign * first) and moving.all()
    assert np.array_equal(step, [0.5, 20.0, 0.5, 0.5, 0.5, 0.5])  # the carried step, capped at 10 / scale
    ok, carried = accept(np.arange(len(gain)), value + sign * gain, np.full(len(gain), 0.5))
    assert np.array_equal(ok, [True, True, True, False, True, True])
    assert carried == pytest.approx([0.5, 2.0 / 3.0, 1.0, 0.25, 1.0, 1.0], rel=1e-12)


def test_ascent_stops_within_a_few_iterations():
    """24-trial blocks over master seeds 0-4: the fitted step aims at 1 / curvature, where doubling took 17 and 18."""
    for phi, most in [(cayley_form(), 8), (special_lagrangian(4).calib, 12)]:
        for seed in range(5):
            starts = _start_frames(phi.n, phi.p, [trial_seed(seed, t) for t in range(24)])
            _, iterations = grassmann._ascent(phi, starts, SearchParams(master_seed=seed), 1.0, tol_scale(phi))
            assert iterations.max() <= most


def test_ascent_step_scales_with_form():
    """A tiny multiple of phi takes about as many ascent steps as phi itself."""
    params = SearchParams(max_iters=200, trials=5)
    starts = _start_frames(7, 3, [trial_seed(0, t) for t in range(5)])
    _, unit = grassmann._ascent(associative_form(), starts, params, 1.0, 1.0)
    _, tiny = grassmann._ascent(1e-10 * associative_form(), starts, params, 1.0, 1e-10)
    assert np.all(np.abs(tiny - unit) <= 0.1 * unit)
    assert np.all(unit < 200)
    value, _ = comass_search(1e-10 * associative_form(), params=params)
    assert value == pytest.approx(1e-10 * comass_search(associative_form(), params=params)[0], rel=1e-6)
