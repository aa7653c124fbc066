"""Pointwise exterior-differential-system checks for the induced ideal."""

import numpy as np
import pytest

from calibkit import (
    OrientedPlane,
    associative_form,
    cartan_test,
    coassociative_form,
    hodge_dual_ideal_check,
    integral_element_codim,
    parse_form,
    phi_module,
    polar_space,
    qr_fix,
)


def coordinate_plane(n, cols):
    return OrientedPlane(np.eye(n)[:, list(cols)])


def test_polar_space_below_top_degree_is_everything():
    module = phi_module(associative_form())
    h = polar_space(np.eye(7)[:, :1], module)  # k=1 < p-1=2
    assert h.shape == (7, 7)


def test_polar_space_associative_two_plane():
    """Every 2-plane in R^7 extends to associative 3-planes along a 3-dim polar space."""
    module = phi_module(associative_form())
    adapted = polar_space(np.eye(7)[:, :2], module)
    assert adapted.shape[1] == 3
    rng = np.random.default_rng(0)
    q, _ = qr_fix(rng.standard_normal((7, 2)))
    generic = polar_space(q, module)
    assert generic.shape[1] == 3


def test_polar_space_rejects_oversized_flag():
    module = phi_module(associative_form())
    with pytest.raises(ValueError):
        polar_space(np.eye(7)[:, :4], module)
    with pytest.raises(ValueError):  # k = p: flags stop at p - 1
        polar_space(np.eye(7)[:, :3], module)


def test_integral_codim_requires_integral_element():
    module = phi_module(associative_form())
    rng = np.random.default_rng(1)
    q, _ = qr_fix(rng.standard_normal((7, 3)))
    with pytest.raises(ValueError):
        integral_element_codim(OrientedPlane(q), module)


def test_cartan_test_associative_involutive():
    phi = associative_form()
    report = cartan_test(coordinate_plane(7, (0, 1, 2)), phi_module(phi))
    assert report.polar_codims == [0, 4]
    assert report.cartan_bound == 4
    assert report.actual_codim == 4
    assert report.involutive_at_flag
    assert report.bound_max_over_orders == 4


def test_cartan_test_coassociative_not_involutive():
    phi = coassociative_form()
    report = cartan_test(coordinate_plane(7, (3, 4, 5, 6)), phi_module(phi))
    assert report.cartan_bound == 3
    assert report.actual_codim == 4
    assert not report.involutive_at_flag


def test_cartan_test_simple_two_form_rigid():
    """dx1^dx2 in R^4: the integral planes are isolated, so the bound is strict."""
    module = phi_module(parse_form("e12", n=4))
    report = cartan_test(coordinate_plane(4, (0, 1)), module)
    assert report.polar_codims == [2]
    assert report.cartan_bound == 2
    assert report.actual_codim == 4
    assert not report.involutive_at_flag


def test_codim_bound_on_calibrated_planes():
    """codim >= n - p at any critical plane with nonzero value."""
    cases = [
        (associative_form(), (0, 1, 2)),
        (coassociative_form(), (3, 4, 5, 6)),
    ]
    for phi, cols in cases:
        module = phi_module(phi)
        codim = integral_element_codim(coordinate_plane(phi.n, cols), module)
        assert codim >= phi.n - phi.p


def test_hodge_dual_codims_agree_for_g2_pair():
    phi = associative_form()
    xi = coordinate_plane(7, (0, 1, 2))
    codim_p, codim_dual = hodge_dual_ideal_check(phi, xi=xi)
    assert codim_p == codim_dual == 4


def test_flag_report_json_round_trip():
    phi = associative_form()
    report = cartan_test(coordinate_plane(7, (0, 1, 2)), phi_module(phi))
    obj = report.to_json()
    assert obj["cartan_bound"] == 4
    assert obj["involutive_at_flag"] is True
