"""Pointwise exterior-differential-system checks for the induced ideal."""

import itertools
import json

import numpy as np
import pytest

from calibkit import (
    OrientedPlane,
    SearchParams,
    associative_form,
    cartan_test,
    cartan_three_form,
    cayley_form,
    coassociative_form,
    critical_spectrum,
    hodge_dual_ideal_check,
    integral_element_codim,
    parse_form,
    phi_module,
    polar_space,
    qr_fix,
    special_lagrangian,
    su_lie_algebra,
)
from calibkit.cli import main as cli_main

from test_acceptance import real_locus, stabilizer_orbit
from test_cli import FIVE_FORM


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


@pytest.mark.parametrize("check", [integral_element_codim, cartan_test])
def test_eds_checks_reject_a_plane_the_module_does_not_fit(check):
    """An 8 x 3 frame holds an associative plane in its first 7 rows, but is no 3-plane of R^7."""
    module = phi_module(associative_form())
    for frame in (np.eye(8)[:, :3], np.eye(7)[:, :4]):
        with pytest.raises(ValueError, match="against a"):
            check(OrientedPlane(frame), module)


def test_polar_space_rejects_oversized_flag():
    module = phi_module(associative_form())
    with pytest.raises(ValueError):
        polar_space(np.eye(7)[:, :4], module)
    with pytest.raises(ValueError, match="against a flag in R\\^8"):
        polar_space(np.eye(8)[:, :2], module)
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


def brute_cartan_bound(xi, module, order):
    """Cartan bound of one column order, with every level's polar space from polar_space."""
    return sum(xi.n - polar_space(xi.frame[:, list(order[:a])], module).shape[1] for a in range(1, xi.p))


def brute_bound_max(xi, module):
    """Max of the Cartan bound over all p! column orders, every level computed."""
    return max(brute_cartan_bound(xi, module, order) for order in itertools.permutations(range(xi.p)))


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


@pytest.mark.parametrize(
    "phi",
    [
        cartan_three_form(su_lie_algebra(3)),
        cartan_three_form(su_lie_algebra(4)),
        special_lagrangian(4).calib,
        parse_form(FIVE_FORM, n=9),
    ],
    ids=["su3", "su4", "slag4", "five-form"],
)
def test_polar_codims_from_the_jacobian_match_polar_space_at_searched_planes(phi):
    """At a searched plane of each non-maximal |value| cluster, both bounds equal polar_space's.

    cartan_test reads each polar codimension as the rank of a slice of the
    module Jacobian; polar_space computes each polar space on its own.
    """
    module = phi_module(phi)
    catalog = critical_spectrum(phi, params=SearchParams(trials=24))
    assert len(catalog.clusters) >= 2
    for center, _ in catalog.clusters[:-1]:
        xi = next(plane for plane, v in zip(catalog.planes, catalog.values) if abs(abs(v) - center) < 1e-4)
        report = cartan_test(xi, module)
        assert report.cartan_bound == brute_cartan_bound(xi, module, range(xi.p))
        assert report.bound_max_over_orders == brute_bound_max(xi, module)


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


def highest_root_case(k):
    """The Cartan 3-form of su(k) and its highest-root plane."""
    g = su_lie_algebra(k)
    return cartan_three_form(g), OrientedPlane(g.highest_root_frame)


@pytest.mark.parametrize(
    "phi, xi, codim",
    [
        (associative_form(), coordinate_plane(7, (0, 1, 2)), 4),
        (coassociative_form(), coordinate_plane(7, (3, 4, 5, 6)), 4),
        (cayley_form(), coordinate_plane(8, (0, 1, 2, 3)), 4),
        (special_lagrangian(3).calib, real_locus(3), 4),
        (special_lagrangian(4).calib, real_locus(4), 7),
        (*highest_root_case(3), 11),
        (*highest_root_case(4), 28),
    ],
    ids=["associative", "coassociative", "cayley", "slag3", "slag4", "su3", "su4"],
)
def test_hodge_dual_codims_agree_for_every_family(phi, xi, codim):
    """phi at xi and *phi at xi^perp; every dual of degree p > n/2 goes through its own star.

    RuntimeWarnings are errors, so the finite-difference rank agrees with the
    exact one on both sides.
    """
    assert hodge_dual_ideal_check(phi, xi=xi) == (codim, codim)


@pytest.mark.parametrize("literal, n, codim", [("e1", 3, 2), ("e1 + e2", 4, 3)])
def test_cartan_test_of_a_one_form_is_involutive(capsys, literal, n, codim):
    """A 1-form's flag is the origin: c_0 is the module rank, and the Pfaffian system is involutive."""
    phi = parse_form(literal, n=n)
    line = np.zeros((n, 1))
    line[[i - 1 for (i,) in phi.coeffs], 0] = 1.0
    module = phi_module(phi)
    report = cartan_test(OrientedPlane(line / np.linalg.norm(line)), module)
    assert module.rank == codim
    assert report.to_json() == {
        "flag_dims": [0],
        "polar_codims": [codim],
        "cartan_bound": codim,
        "actual_codim": codim,
        "involutive_at_flag": True,
        "bound_max_over_orders": codim,
    }
    assert cli_main(["eds", "--family", "custom", "--form", literal, "--n", str(n), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["cartan_bound"], payload["actual_codim"]) == (codim, codim)


def test_flag_report_json_round_trip():
    phi = associative_form()
    report = cartan_test(coordinate_plane(7, (0, 1, 2)), phi_module(phi))
    obj = report.to_json()
    assert obj["cartan_bound"] == 4
    assert obj["involutive_at_flag"] is True
