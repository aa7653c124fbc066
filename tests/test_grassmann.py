"""Grassmannian sampling and search: determinism, gradients, convergence."""

import numpy as np
import pytest

from calibkit import (
    OrientedPlane,
    SearchParams,
    ascend,
    associative_form,
    cartan_three_form,
    cayley_form,
    comass_estimate,
    comass_search,
    critical_spectrum,
    evaluate,
    is_critical,
    phi_module,
    qr_fix,
    random_plane,
    riemann_gradient,
    su_lie_algebra,
    trial_seed,
)
from calibkit import grassmann, special_lagrangian
from calibkit.grassmann import _cluster_1d, _lockstep, _start_frames

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
        g = riemann_gradient(phi, xi)
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
    value = comass_estimate(associative_form(), trials=20, params=FAST)
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
    with pytest.raises(ValueError):
        SearchParams(step_init=-1.0)


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


def test_critical_spectrum_deterministic():
    phi = associative_form()
    a = critical_spectrum(phi, trials=15, params=FAST)
    b = critical_spectrum(phi, trials=15, params=FAST)
    assert a.values == b.values
    assert a.residuals == b.residuals
    for pa, pb in zip(a.planes, b.planes):
        assert np.array_equal(pa.frame, pb.frame)
    assert a.to_json() == b.to_json()


LOCKSTEP_FORMS = {
    "associative": associative_form,
    "cayley": cayley_form,
    "slag4": lambda: special_lagrangian(4).calib,
    "su3": lambda: cartan_three_form(su_lie_algebra(3)),
}


@pytest.mark.parametrize("name", sorted(LOCKSTEP_FORMS))
@pytest.mark.parametrize("sense", ["maximize", "minimize", "critical"])
def test_trial_alone_equals_trial_in_block(name, sense):
    """A trial gives the same bits, iterations and report alone as inside a lockstep block."""
    phi = LOCKSTEP_FORMS[name]()
    module = phi_module(phi)
    params = SearchParams(max_iters=2000, master_seed=3)
    starts = _start_frames(phi.n, phi.p, [trial_seed(3, t) for t in range(5)])
    frames, reports, converged, iterations = _lockstep(phi, starts, params, sense, module)
    for t in range(len(starts)):
        alone = ascend(phi, random_plane(phi.n, phi.p, trial_seed(3, t)), params, sense=sense, module=module)
        assert np.array_equal(alone.plane.frame, frames[t])
        assert alone.iterations == iterations[t]
        assert alone.converged == converged[t]
        assert alone.report == reports[t]


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
        (r.value, f) for f, r, ok, _ in grassmann._trials(phi, 12, params, "maximize", phi_module(phi)) if ok
    ]
    values = [v for v, _ in found]
    assert max(values) - min(values) < 1e-12  # every converged trial ties at the comass
    value, plane = comass_search(phi, params=params)
    assert value == found[0][0]
    assert np.array_equal(plane.frame, found[0][1])


def test_ascent_step_scales_with_form():
    """A tiny multiple of phi takes about as many ascent steps as phi itself."""
    params = SearchParams(max_iters=200, trials=5)
    starts = _start_frames(7, 3, [trial_seed(0, t) for t in range(5)])
    _, unit = grassmann._ascent(associative_form(), starts, params, 1.0, 1.0)
    _, tiny = grassmann._ascent(1e-10 * associative_form(), starts, params, 1.0, 1e-10)
    assert np.all(np.abs(tiny - unit) <= 0.1 * unit)
    assert np.all(unit < 200)
    value, _ = comass_search(1e-10 * associative_form(), params=params)
    assert value == pytest.approx(1e-10 * comass_estimate(associative_form(), params=params), rel=1e-6)
