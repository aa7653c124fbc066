"""Pointwise exterior-differential-system analysis of the induced ideal.

The ideal is generated in degree p by the module of forms whose common
zero set on the Grassmannian is the critical variety.  This module computes
polar spaces along a flag, Cartan characters, the codimension of the space
of integral p-planes (as the rank of the linearized constraint), and the
Hodge-dual comparison.  The codimension takes module forms of degree
p > n/2, such as the duals of 3-forms, through their Hodge stars on
(n - p) x (n - p) minors (exterior.orthonormal_jet).
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .critical import OrientedPlane, _retract, check_fits, numerical_rank, phi_module
from .exterior import first_jet, hodge_star, orthonormal_jet

__all__ = [
    "FlagReport",
    "polar_space",
    "integral_element_codim",
    "cartan_test",
    "hodge_dual_ideal_check",
]

INTEGRAL_TOL = 1e-6
# step of the central differences that cross-check the exact linearization
FD_STEP = 1e-6
JACOBIAN_CUTOFF = 1e-4
KERNEL_CUTOFF = 1e-6


@dataclass
class FlagReport:
    flag_dims: list
    polar_codims: list  # c_1 .. c_{p-1}, or c_0 for p = 1
    cartan_bound: int
    actual_codim: int
    involutive_at_flag: bool
    bound_max_over_orders: int

    def to_json(self):
        return asdict(self)


def polar_space(e, module):
    """Polar space of a k-dim integral element (k < p) of the ideal generated by module.

    Returns an orthonormal basis (columns).  Below degree p-1 the relevant
    graded piece of the ideal vanishes, so the polar space is everything.
    """
    frame = getattr(e, "frame", e)
    frame = np.asarray(frame, dtype=float)
    n, k = frame.shape
    p = module.degree
    if n != module.n:
        raise ValueError(f"module of forms on R^{module.n} against a flag in R^{n}")
    if k >= p:
        raise ValueError(f"flag dimension {k} is not below the generator degree {p}")
    if k < p - 1 or module.rank == 0:
        return np.eye(n)
    # slot k of the padded flag replaced by e_j gives the module values on e ^ e_j
    padded = np.concatenate([frame, np.zeros((n, 1))], axis=1)
    _, first = first_jet(module.dense_matrix(), module._idx0, padded[None], np.eye(n)[None])
    _, s, vt = np.linalg.svd(first[0, :, k])
    return vt[numerical_rank(s, KERNEL_CUTOFF) :].T


def integral_element_codim(xi, module):
    """Codimension of the variety of integral p-planes at xi.

    The constraint map sends a tangent perturbation of the plane to the
    module values on the perturbed plane; the codimension is the rank of its
    linearization, computed exactly and cross-checked by central differences
    of step FD_STEP (a RuntimeWarning when the two ranks disagree).  The
    differences move xi's completion by the search's retraction, to the
    coordinates +-FD_STEP E_(a,s).  Both evaluate the module through
    orthonormal_jet, at the exact jet's completion and at the 2 p k moved
    ones, so a module of degree p > n/2 is evaluated on (n - p) x (n - p)
    minors of its Hodge star.
    """
    n, p = xi.n, xi.p
    k = n - p
    check_fits(n, p, module.n, module.degree)
    if module.rank == 0:
        return 0
    coeffs, idx0, q = module.dense_matrix(), module._idx0, xi.completion()[None]
    values, first = orthonormal_jet(coeffs, idx0, q, p)
    resid = np.max(np.abs(values))
    if resid > INTEGRAL_TOL:
        raise ValueError(f"plane is not an integral element (residual {resid:.3e})")
    if k == 0:
        return 0
    jac = first.reshape(module.rank, p * k)  # exact linearization
    rank = numerical_rank(np.linalg.svd(jac, compute_uv=False), JACOBIAN_CUTOFF)
    # the 2 p k planes at coordinates +-FD_STEP E_(a,s), retracted at once
    coords = FD_STEP * np.eye(p * k).reshape(p * k, p, k)
    vals = orthonormal_jet(coeffs, idx0, _retract(q, np.concatenate([coords, -coords])), p, jet=False)
    fd = (vals[: p * k] - vals[p * k :]).T / (2.0 * FD_STEP)
    if numerical_rank(np.linalg.svd(fd, compute_uv=False), JACOBIAN_CUTOFF) != rank:
        warnings.warn(
            "finite-difference and exact linearization ranks disagree; "
            "the integral variety may be singular here",
            RuntimeWarning,
        )
    return rank


def cartan_test(xi, module):
    """Cartan's test at the flag built from the frame columns in order.

    Below level p - 1 every polar space is all of R^n, so c_1 .. c_{p-2} are 0
    and the Cartan bound of a column order is c_{p-1} of its first p - 1
    columns: xi minus the last column d of the order.  bound_max_over_orders
    is the exact max of the bound over all p! orders, taken as the max of
    c_{p-1} over the p hyperplanes "xi minus column d".  The given flag is
    d = p - 1.  A 1-plane's flag is the origin alone; its one polar
    codimension c_0, that of the empty flag, is the rank of the module of
    1-forms.
    """
    n, p = xi.n, xi.p
    actual = integral_element_codim(xi, module)  # first: it rejects a plane the module does not fit
    hyper = [n - polar_space(np.delete(xi.frame, d, axis=1), module).shape[1] for d in range(p)]
    levels = list(range(1, p)) if p > 1 else list(range(p))
    codims = [0] * (len(levels) - 1) + hyper[-1:]
    bound = sum(codims)
    return FlagReport(
        flag_dims=levels,
        polar_codims=codims,
        cartan_bound=bound,
        actual_codim=actual,
        involutive_at_flag=bool(actual == bound),
        bound_max_over_orders=max(hyper, default=bound),
    )


def hodge_dual_ideal_check(phi, xi, module=None, codim_p=None):
    """Codimensions at a critical plane xi for phi and at its perp for *phi.

    The two are equal; both integers are returned so callers can assert it.
    Of phi and *phi, the one of degree above n/2 is evaluated through its
    own star, on minors of the smaller degree.  A caller that has run
    cartan_test at xi passes phi's module and the report's actual_codim as
    module and codim_p, so neither is redone.
    """
    if module is None:
        module = phi_module(phi)
    dual = hodge_star(phi)
    module_dual = phi_module(dual)
    xi_perp = OrientedPlane(xi.normal_frame())
    if codim_p is None:
        codim_p = integral_element_codim(xi, module)
    codim_dual = integral_element_codim(xi_perp, module_dual)
    return codim_p, codim_dual
