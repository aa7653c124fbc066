"""Pointwise exterior-differential-system analysis of the induced ideal.

The ideal is generated in degree p by the module of forms whose common
zero set on the Grassmannian is the critical variety.  This module computes
polar spaces along a flag, Cartan characters, the codimension of the space
of integral p-planes (as the rank of the linearized constraint), and the
Hodge-dual comparison.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .critical import (
    OrientedPlane,
    annihilator_check,
    numerical_rank,
    phi_module,
    qr_fix,
)
from .exterior import first_jet, hodge_star
from .grassmann import SearchParams, comass_search

__all__ = [
    "FlagReport",
    "polar_space",
    "integral_element_codim",
    "cartan_test",
    "hodge_dual_ideal_check",
]

INTEGRAL_TOL = 1e-6
JACOBIAN_CUTOFF = 1e-4
KERNEL_CUTOFF = 1e-6


@dataclass
class FlagReport:
    flag_dims: list
    polar_codims: list  # c_1 .. c_{p-1}
    cartan_bound: int
    actual_codim: int
    involutive_at_flag: bool
    bound_max_over_orders: int

    def to_json(self):
        return {
            "flag_dims": self.flag_dims,
            "polar_codims": self.polar_codims,
            "cartan_bound": self.cartan_bound,
            "actual_codim": self.actual_codim,
            "involutive_at_flag": self.involutive_at_flag,
            "bound_max_over_orders": self.bound_max_over_orders,
        }


def _kernel(mat, cutoff=KERNEL_CUTOFF):
    """Orthonormal basis of the kernel of mat (columns of the output)."""
    _, s, vt = np.linalg.svd(np.atleast_2d(mat))
    return vt[numerical_rank(s, cutoff) :].T


def polar_space(e, module):
    """Polar space of a k-dim integral element (k < p) of the ideal generated by module.

    Returns an orthonormal basis (columns).  Below degree p-1 the relevant
    graded piece of the ideal vanishes, so the polar space is everything.
    """
    frame = getattr(e, "frame", e)
    frame = np.asarray(frame, dtype=float)
    n, k = frame.shape
    p = module.degree
    if k >= p:
        raise ValueError(f"flag dimension {k} is not below the generator degree {p}")
    if k < p - 1:
        return np.eye(n)
    if module.rank == 0:
        return np.eye(n)
    frames = np.zeros((n, n, k + 1))
    frames[:, :, :-1] = frame
    frames[:, :, -1] = np.eye(n)
    return _kernel(module.values_on(frames))


def integral_element_codim(xi, module, fd_check=True, fd_step=1e-6):
    """Codimension of the variety of integral p-planes at xi.

    The constraint map sends a tangent perturbation of the plane to the
    module values on the perturbed plane; the codimension is the rank of its
    linearization, computed exactly and cross-checked by finite differences.
    """
    resid = annihilator_check(xi, module)
    if resid > INTEGRAL_TOL:
        raise ValueError(f"plane is not an integral element (residual {resid:.3e})")
    n, p = xi.n, xi.p
    k = n - p
    if module.rank == 0 or k == 0:
        return 0
    nn = xi.normal_frame()
    _, first = first_jet(module.dense_matrix(), module._idx0, xi.frame[None], nn[None])
    jac = first.reshape(module.rank, p * k)  # exact linearization
    rank = numerical_rank(np.linalg.svd(jac, compute_uv=False), JACOBIAN_CUTOFF)
    if fd_check:
        # move[a, s] adds fd_step * nn[:, s] to column a; retract all 2 p k frames at once
        move = np.zeros((p, k, n, p))
        move[np.arange(p), :, :, np.arange(p)] = fd_step * nn.T
        move = move.reshape(p * k, n, p)
        q, _ = qr_fix(xi.frame + np.concatenate([move, -move]))
        vals = module.values_on(q)
        fd = (vals[:, : p * k] - vals[:, p * k :]) / (2.0 * fd_step)
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
    d = p - 1.
    """
    n, p = xi.n, xi.p
    drops = range(p) if p > 1 else ()  # a 1-plane has an empty flag
    hyper = [n - polar_space(np.delete(xi.frame, d, axis=1), module).shape[1] for d in drops]
    codims = [0] * (p - 2) + hyper[-1:]
    bound = sum(codims)
    actual = integral_element_codim(xi, module)
    return FlagReport(
        flag_dims=list(range(1, p)),
        polar_codims=codims,
        cartan_bound=bound,
        actual_codim=actual,
        involutive_at_flag=bool(actual == bound),
        bound_max_over_orders=max(hyper, default=bound),
    )


def hodge_dual_ideal_check(phi, xi=None, params=None, module=None, codim_p=None):
    """Codimensions at a critical plane for phi and at its perp for *phi.

    The two are equal; both integers are returned so callers can assert it.
    A caller that has run cartan_test at xi passes phi's module and the
    report's actual_codim as module and codim_p, so neither is redone.
    """
    if params is None:
        params = SearchParams()
    if module is None:
        module = phi_module(phi)
    if xi is None:
        _, xi = comass_search(phi, params=params, module=module)
    dual = hodge_star(phi)
    module_dual = phi_module(dual)
    xi_perp = OrientedPlane(xi.normal_frame())
    if codim_p is None:
        codim_p = integral_element_codim(xi, module)
    codim_dual = integral_element_codim(xi_perp, module_dual)
    return codim_p, codim_dual
