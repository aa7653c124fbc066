"""Sampling and first-order search on the oriented Grassmannian.

Maximization/minimization uses projected gradient steps with Armijo
backtracking and a QR retraction; the `critical` sense drives the module
residual (the values of the induced form module on the plane) to zero with
a damped Gauss-Newton iteration, which also reaches saddle points of the
form that plain ascent misses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .critical import (
    CriticalityReport,
    OrientedPlane,
    cousin_matrix,
    is_critical,
    phi_module,
    qr_fix,
    tol_scale,
)
from .exterior import batch_eval_dense, first_jet

__all__ = [
    "SearchParams",
    "AscendResult",
    "CriticalCatalog",
    "random_plane",
    "riemann_gradient",
    "ascend",
    "comass_search",
    "comass_estimate",
    "critical_spectrum",
]


@dataclass
class SearchParams:
    max_iters: int = 5000
    step_init: float = 0.1
    armijo_c: float = 1e-4
    shrink: float = 0.5
    grad_tol: float = 1e-10
    trials: int = 200
    master_seed: int = 0

    def __post_init__(self):
        if min(self.max_iters, self.step_init, self.armijo_c, self.shrink, self.grad_tol) <= 0:
            raise ValueError("search parameters must be positive")
        if self.grad_tol >= 1e-6:
            raise ValueError("grad_tol must be below 1e-6")

    def to_json(self):
        return {
            "max_iters": self.max_iters,
            "step_init": self.step_init,
            "armijo_c": self.armijo_c,
            "shrink": self.shrink,
            "grad_tol": self.grad_tol,
            "trials": self.trials,
            "master_seed": self.master_seed,
        }


@dataclass
class AscendResult:
    plane: OrientedPlane
    report: CriticalityReport
    converged: bool
    iterations: int

    @property
    def value(self):
        return self.report.value


@dataclass
class CriticalCatalog:
    planes: list
    values: list
    residuals: list
    clusters: list  # (center of |value|, count)
    params: SearchParams
    trials: int

    def to_json(self):
        return {
            "planes": [p.to_json()["columns"] for p in self.planes],
            "values": self.values,
            "residuals": self.residuals,
            "clusters": [{"center": c, "count": k} for c, k in self.clusters],
            "params": self.params.to_json(),
            "trials": self.trials,
        }


def trial_seed(master_seed, trial):
    """Schedule-independent per-trial seed."""
    return np.random.SeedSequence(entropy=int(master_seed), spawn_key=(int(trial),))


def random_plane(n, p, seed):
    """Haar-uniform oriented p-plane; identical seeds give identical planes."""
    if p > n:
        raise ValueError(f"p={p} exceeds n={n}")
    rng = np.random.default_rng(seed)
    q, _ = qr_fix(rng.standard_normal((n, p)))
    return OrientedPlane(q)


def riemann_gradient(phi, xi):
    """Gradient of phi on the Grassmannian at xi, shape (n-p, p).

    Entry [s, a] is the first-cousin coefficient obtained by replacing frame
    vector a with normal vector s; it is the rate of change of phi(xi) along
    the corresponding tangent rotation.
    """
    return cousin_matrix(phi, xi)


def _retract(frame, delta):
    q, _ = qr_fix(frame + delta)
    return OrientedPlane(q)


def _module_rows(phi, module):
    """Stack phi's own dense coefficients on top of the module's."""
    return module._idx0, np.vstack([phi.dense()[None, :], module.dense_matrix()])


def _gauss_newton_critical(start, params, module, idx0, rows, grad_tol):
    """Drive the module values on the plane to zero; returns (plane, iters, ok)."""
    xi = start
    n, p = xi.n, xi.p
    k = n - p
    if k == 0 or p == 0 or module.rank == 0:
        return xi, 0, True
    for it in range(1, params.max_iters + 1):
        nn = xi.normal_frame()
        vals, first = first_jet(rows, idx0, xi.frame, nn)
        if np.max(np.abs(first[0])) < grad_tol:
            return xi, it, True
        r = vals[1:]
        jac = first[1:].reshape(len(r), p * k)  # d gamma / d A[b*k+t]
        delta, *_ = np.linalg.lstsq(jac, -r, rcond=1e-12)
        base = float(r @ r)
        step = 1.0
        accepted = None
        for _ in range(30):
            move = nn @ (step * delta.reshape(p, k).T)
            cand = _retract(xi.frame, move)
            r_new = batch_eval_dense(rows, idx0, cand.frame[None])[1:, 0]
            if float(r_new @ r_new) < base * (1.0 - params.armijo_c * step) + 1e-30:
                accepted = cand
                break
            step *= params.shrink
        if accepted is None:
            return xi, it, False
        xi = accepted
    return xi, params.max_iters, False


def ascend(phi, start, params=None, sense="maximize", module=None):
    """Search from a starting plane; sense is maximize, minimize, or critical."""
    if params is None:
        params = SearchParams()
    if sense not in ("maximize", "minimize", "critical"):
        raise ValueError(f"unknown sense {sense!r}")
    if module is None:
        module = phi_module(phi)
    idx0, rows = _module_rows(phi, module)
    # gradients and residuals scale with phi; the zero form keeps absolute tolerances
    scale = tol_scale(phi)
    grad_tol = params.grad_tol * scale
    xi = start
    iterations = 0
    converged = True
    if sense in ("maximize", "minimize"):
        sign = 1.0 if sense == "maximize" else -1.0
        step = params.step_init
        polish_tol = 1e-3 * scale
        phi_idx, phi_c = phi._compact()
        for it in range(1, params.max_iters + 1):
            iterations = it
            nn = xi.normal_frame()
            value, first = first_jet(phi_c, phi_idx, xi.frame, nn)
            g = first.T
            gnorm2 = float(np.sum(g * g))
            if np.sqrt(gnorm2) < polish_tol:
                break
            accepted = None
            trial_step = min(step * 2.0, 10.0)
            for _ in range(60):
                cand = _retract(xi.frame, nn @ (trial_step * sign * g))
                new_value = phi.apply(cand.frame)
                if sign * (new_value - value) >= params.armijo_c * trial_step * gnorm2:
                    accepted = cand
                    step = trial_step
                    break
                trial_step *= params.shrink
            if accepted is None:
                break
            xi = accepted
        xi, extra, converged = _gauss_newton_critical(xi, params, module, idx0, rows, grad_tol)
        iterations += extra
    else:
        xi, iterations, converged = _gauss_newton_critical(start, params, module, idx0, rows, grad_tol)
    report = is_critical(xi, phi, tol=params.grad_tol * 10, module=module)
    return AscendResult(
        plane=xi,
        report=report,
        converged=bool(converged and report.is_critical),
        iterations=iterations,
    )


def comass_search(phi, trials=None, params=None, module=None):
    """Multistart maximization; returns (best value, best plane)."""
    if params is None:
        params = SearchParams()
    if trials is None:
        trials = params.trials
    if module is None:
        module = phi_module(phi)
    best_value, best_plane = -np.inf, None
    for t in range(trials):
        start = random_plane(phi.n, phi.p, trial_seed(params.master_seed, t))
        result = ascend(phi, start, params, sense="maximize", module=module)
        if result.converged and result.value > best_value:
            best_value, best_plane = result.value, result.plane
    if best_plane is None:
        raise RuntimeError("no trial converged; increase trials or max_iters")
    return best_value, best_plane


def comass_estimate(phi, trials=None, params=None):
    """Estimated comass: the maximum of phi over the oriented Grassmannian."""
    value, _ = comass_search(phi, trials=trials, params=params)
    return value


def _cluster_1d(values, tol):
    """Single-linkage clustering of sorted scalars at gap tolerance tol."""
    if not values:
        return []
    vals = sorted(values)
    clusters = []
    start = 0
    for i in range(1, len(vals) + 1):
        if i == len(vals) or vals[i] - vals[i - 1] > tol:
            group = vals[start:i]
            clusters.append((float(np.mean(group)), len(group)))
            start = i
    return clusters


def critical_spectrum(phi, trials=None, params=None, cluster_tol=1e-4):
    """Multistart saddle search; catalogs converged planes and |value| clusters."""
    if params is None:
        params = SearchParams()
    if trials is None:
        trials = params.trials
    module = phi_module(phi)
    planes, values, residuals = [], [], []
    for t in range(trials):
        start = random_plane(phi.n, phi.p, trial_seed(params.master_seed, t))
        result = ascend(phi, start, params, sense="critical", module=module)
        if result.converged:
            planes.append(result.plane)
            values.append(float(result.value))
            residuals.append(float(result.report.residual_cousin))
    clusters = _cluster_1d([abs(v) for v in values], cluster_tol)
    return CriticalCatalog(
        planes=planes,
        values=values,
        residuals=residuals,
        clusters=clusters,
        params=params,
        trials=trials,
    )
