"""Pointwise exterior-differential-system checks for the induced ideal."""

import itertools

import numpy as np
import pytest

from calibkit import (
    OrientedPlane,
    associative_form,
    cartan_test,
    cayley_form,
    coassociative_form,
    hodge_dual_ideal_check,
    integral_element_codim,
    parse_form,
    phi_module,
    polar_space,
    qr_fix,
    special_lagrangian,
)

from test_acceptance import real_locus, stabilizer_orbit


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


def brute_bound_max(xi, module):
    """Max of the Cartan bound over all p! column orders, every level computed."""
    n, p = xi.n, xi.p
    return max(
        sum(n - polar_space(xi.frame[:, list(order[:a])], module).shape[1] for a in range(1, p))
        for order in itertools.permutations(range(p))
    )


@pytest.mark.parametrize(
    "phi, base",
    [
        (associative_form(), coordinate_plane(7, (0, 1, 2))),
        (coassociative_form(), coordinate_plane(7, (3, 4, 5, 6))),
        (cayley_form(), coordinate_plane(8, (0, 1, 2, 3))),
        (special_lagrangian(4).calib, real_locus(4)),
    ],
    ids=["associative", "coassociative", "cayley", "slag4"],
)
def test_bound_max_over_orders_is_exact(phi, base):
    """At random calibrated frames the reported max equals the brute-force max."""
    module = phi_module(phi)
    rng = np.random.default_rng(phi.n * phi.p)
    for plane in stabilizer_orbit(phi, base, 3, seed=phi.n):
        q, _ = qr_fix(rng.standard_normal((phi.p, phi.p)))
        xi = OrientedPlane(plane.frame @ q)
        report = cartan_test(xi, module)
        assert report.bound_max_over_orders == brute_bound_max(xi, module)
        assert report.bound_max_over_orders >= report.cartan_bound


def test_bound_max_over_orders_exceeds_the_given_flag():
    """Leaving out e6 or e7 of span(e1, e2, e6, e7) gives c_3 = 3, leaving out e7 only 2."""
    module = phi_module(parse_form("e1234 + e5678 + e1357"))
    xi = coordinate_plane(8, (0, 1, 5, 6))
    report = cartan_test(xi, module)
    assert report.cartan_bound == 2
    assert report.bound_max_over_orders == brute_bound_max(xi, module) == 3


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
