"""Pointwise exterior-differential-system analysis of the induced ideal.

The ideal is generated in degree p by the module of forms whose common
zero set on the Grassmannian is the critical variety.  Cartan's test reads
the polar codimensions, the Cartan bound and the codimension of the space of
integral p-planes from one jet of the module at the plane; polar_space
computes a polar space along any flag.  Module forms of degree p > n/2, such
as the duals of 3-forms, go through their Hodge stars on (n - p) x (n - p)
minors (exterior.orthonormal_jet), also in the Hodge-dual comparison.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .critical import OrientedPlane, _retract, check_fits, numerical_rank, phi_module
from .exterior import _slot_values, hodge_star, orthonormal_jet

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
    frame = np.asarray(getattr(e, "frame", e), dtype=float)
    n, k = frame.shape
    p = module.degree
    if n != module.n:
        raise ValueError(f"module of forms on R^{module.n} against a flag in R^{n}")
    if k >= p:
        raise ValueError(f"flag dimension {k} is not below the generator degree {p}")
    if k < p - 1 or module.rank == 0:
        return np.eye(n)
    # the module's values on e_j ^ e, one slot jet; their kernel in e_j is the polar space
    _, s, vt = np.linalg.svd(_slot_values(module._groups, module._block_idx0, frame[None])[0])
    return vt[numerical_rank(s, KERNEL_CUTOFF) :].T


def integral_element_codim(xi, module):
    """Codimension of the variety of integral p-planes at xi (cartan_test's actual_codim)."""
    return cartan_test(xi, module).actual_codim


def cartan_test(xi, module):
    """Cartan's test at the flag built from the frame columns in order.

    One jet of the module at xi's completion gives its values on xi and the
    exact linearization J[g, b, s] of the constraint map (column b turned
    towards normal s).  actual_codim, the codimension of the variety of
    integral p-planes at xi, is the rank of J, cross-checked by central
    differences of step FD_STEP at completions moved by the search's
    retraction to the coordinates +-FD_STEP E_(b,s) (a RuntimeWarning when
    the ranks disagree).  Below level p - 1 every polar space is all of R^n,
    so c_1 .. c_{p-2} are 0 and the Cartan bound of a column order is c_{p-1}
    of xi minus the order's last column d.  At an integral xi that polar
    space is xi + ker J[:, d, :], so c_{p-1} is the rank of J[:, d, :] at
    KERNEL_CUTOFF; bound_max_over_orders, the exact max over all p! orders,
    is its max over d.  The given flag is d = p - 1.  A 1-plane's one polar
    codimension c_0, of the empty flag, is the module's rank.  An empty J
    (module rank 0, or p = n) has rank 0.  orthonormal_jet evaluates a
    module of degree p > n/2 on (n - p) x (n - p) minors of its Hodge star.
    """
    n, p = xi.n, xi.p
    k = n - p
    check_fits(n, p, module.n, module.degree)
    coeffs, idx0, q = module._groups, module._block_idx0, xi.completion()[None]
    values, first = orthonormal_jet(coeffs, idx0, q, p)
    resid = np.max(np.abs(values), initial=0.0)
    if resid > INTEGRAL_TOL:
        raise ValueError(f"plane is not an integral element (residual {resid:.3e})")
    jac = first[0]  # exact linearization, (rank, p, k)
    hyper = [numerical_rank(s, KERNEL_CUTOFF) for s in np.linalg.svd(np.swapaxes(jac, 0, 1), compute_uv=False)]
    actual = numerical_rank(np.linalg.svd(jac.reshape(module.rank, p * k), compute_uv=False), JACOBIAN_CUTOFF)
    # the 2 p k planes at coordinates +-FD_STEP E_(a,s), retracted at once
    coords = FD_STEP * np.eye(p * k).reshape(p * k, p, k)
    vals = orthonormal_jet(coeffs, idx0, _retract(q, np.concatenate([coords, -coords])), p, jet=False)
    fd = (vals[: p * k] - vals[p * k :]).T / (2.0 * FD_STEP)
    if numerical_rank(np.linalg.svd(fd, compute_uv=False), JACOBIAN_CUTOFF) != actual:
        warnings.warn(
            "finite-difference and exact linearization ranks disagree; "
            "the integral variety may be singular here",
            RuntimeWarning,
        )
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
