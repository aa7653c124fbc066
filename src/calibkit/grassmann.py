"""Sampling and first-order search on the oriented Grassmannian.

Maximization/minimization uses projected gradient steps with Armijo
backtracking and a QR retraction; the `critical` sense drives the module
residual (the values of the induced form module on the plane) to zero with
a damped Gauss-Newton iteration, which also reaches saddle points of the
form that plain ascent misses.

Multistart searches step blocks of up to _TRIAL_BLOCK = 24 trials in
lockstep, as one (m, n, p) frame stack, so each iteration's Python, QR and
determinant calls are paid once per block rather than once per trial.  Each
trial keeps its own seed, step length, iteration count and stopping state,
and each frame is evaluated and retracted on its own, so a trial gives the
same bits alone (`ascend`) as in any block.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .critical import (
    CriticalityReport,
    OrientedPlane,
    completions,
    cousin_matrix,
    criticality_reports,
    phi_module,
    qr_fix,
    tol_scale,
)
from .exterior import first_jet, stack_values

__all__ = [
    "SearchParams",
    "AscendResult",
    "CriticalCatalog",
    "trial_seed",
    "random_plane",
    "riemann_gradient",
    "ascend",
    "comass_search",
    "comass_estimate",
    "critical_spectrum",
]

# trials stepped together in one frame stack.  Over 8, perfbench measured
# search-small at +56% trials/s with 24, +53% with 32 and +80% with 64, which
# runs each 40-trial job as one stack.  But perfbench keeps every pass's
# payload, so its peak_rss_mb grows with the passes a faster program makes:
# +10.9% at 64, past the 10% bound, against +4.9% at 24 and +8.5% at 32.
# Raise the block once perfbench stops keeping payloads.  The bound also keeps a search's memory
# flat in its trial count: the largest lockstep array, the su4 Gauss-Newton
# jet, takes 24 * 91 * 3 * 12 floats (0.63 MB) per block, and each 24-trial
# su4 job is one stack
_TRIAL_BLOCK = 24
# largest gap between sorted |values| within one catalog cluster
CLUSTER_TOL = 1e-4


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
        return asdict(self)


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


def _start_frames(n, p, seeds):
    """Haar-uniform orthonormal frames, one per seed, as an (m, n, p) stack."""
    if p > n:
        raise ValueError(f"p={p} exceeds n={n}")
    q, _ = qr_fix(np.stack([np.random.default_rng(s).standard_normal((n, p)) for s in seeds]))
    return q


def random_plane(n, p, seed):
    """Haar-uniform oriented p-plane; identical seeds give identical planes."""
    return OrientedPlane(_start_frames(n, p, [seed])[0])


def riemann_gradient(phi, xi):
    """Gradient of phi on the Grassmannian at xi, shape (n-p, p).

    Entry [s, a] is the first-cousin coefficient obtained by replacing frame
    vector a with normal vector s; it is the rate of change of phi(xi) along
    the corresponding tangent rotation.
    """
    return cousin_matrix(phi, xi)


def _retract(frames, normals, coords):
    """QR retraction of frame i moved by normals[i] @ coords[i].T, coords of shape (m, p, k)."""
    q, _ = qr_fix(frames + normals @ np.swapaxes(coords, 1, 2))
    return q


def _backtrack(frames, normals, direction, step, pending, tries, shrink, accept):
    """Backtracking along step * direction for the pending trials; returns (frames, moved, step).

    accept(j, cand, step) tells which candidates of the trials j pass.
    """
    frames, moved = frames.copy(), np.zeros(len(frames), dtype=bool)
    for _ in range(tries):
        j = np.flatnonzero(pending & ~moved)
        if not j.size:
            break
        cand = _retract(frames[j], normals[j], step[j][:, None, None] * direction[j])
        ok = accept(j, cand, step[j])
        frames[j[ok]] = cand[ok]
        moved[j[ok]] = True
        step[j[~ok]] *= shrink
    return frames, moved, step


def _module_rows(phi, module):
    """Stack phi's own dense coefficients on top of the module's."""
    return module._idx0, np.vstack([phi.dense()[None, :], module.dense_matrix()])


def _ascent(phi, frames, params, sign, scale):
    """Armijo ascent of sign * phi on every frame; returns (frames, iterations)."""
    phi_idx, phi_c = phi._compact()
    frames = frames.copy()
    # the gradient scales with phi, so step lengths scale with 1 / scale
    step = np.full(len(frames), params.step_init / scale)
    iterations = np.zeros(len(frames), dtype=int)
    active = np.ones(len(frames), dtype=bool)
    for it in range(1, params.max_iters + 1):
        live = np.flatnonzero(active)
        if not live.size:
            break
        iterations[live] = it
        nn = completions(frames[live])[:, :, phi.p :]
        value, first = first_jet(phi_c, phi_idx, frames[live], nn)
        gnorm2 = np.sum(first * first, axis=(1, 2))

        def rises(j, cand, s):
            new_value = stack_values(phi_c, phi_idx, cand)
            return sign * (new_value - value[j]) >= params.armijo_c * s * gnorm2[j]

        # polished trials stop; the rest stop unless their line search succeeds
        moving = ~(np.sqrt(gnorm2) < 1e-3 * scale)
        frames[live], active[live], trial_step = _backtrack(
            frames[live], nn, sign * first, np.minimum(step[live] * 2.0, 10.0 / scale), moving, 60, params.shrink, rises
        )
        step[live[active[live]]] = trial_step[active[live]]
    return frames, iterations


def _gauss_newton(frames, params, module, idx0, rows, grad_tol):
    """Drive the module values on every frame to zero; returns (frames, iterations, ok)."""
    m, n, p = frames.shape
    k = n - p
    iterations = np.zeros(m, dtype=int)
    if k == 0 or p == 0 or module.rank == 0:
        return frames, iterations, np.ones(m, dtype=bool)
    frames = frames.copy()
    ok = np.zeros(m, dtype=bool)
    active = np.ones(m, dtype=bool)
    for it in range(1, params.max_iters + 1):
        live = np.flatnonzero(active)
        if not live.size:
            break
        iterations[live] = it
        nn = completions(frames[live])[:, :, p:]
        vals, first = first_jet(rows, idx0, frames[live], nn)
        ok[live] = np.max(np.abs(first[:, 0]), axis=(1, 2)) < grad_tol
        r = vals[:, 1:]
        jac = first[:, 1:].reshape(len(live), -1, p * k)  # d gamma / d A[b*k+t]
        delta = np.zeros((len(live), p * k))
        for i in np.flatnonzero(~ok[live]):
            delta[i] = np.linalg.lstsq(jac[i], -r[i], rcond=1e-12)[0]
        base = (r[:, None, :] @ r[:, :, None])[:, 0, 0]

        def descends(j, cand, s):
            r_new = stack_values(rows, idx0, cand)[:, 1:]
            norm2 = (r_new[:, None, :] @ r_new[:, :, None])[:, 0, 0]
            return norm2 < base[j] * (1.0 - params.armijo_c * s) + 1e-30

        frames[live], active[live], _ = _backtrack(
            frames[live], nn, delta.reshape(-1, p, k), np.ones(len(live)), ~ok[live], 30, params.shrink, descends
        )
    return frames, iterations, ok


def _lockstep(phi, starts, params, sense, module):
    """Search from each frame of an (m, n, p) stack; returns (frames, reports, converged, iterations)."""
    if sense not in ("maximize", "minimize", "critical"):
        raise ValueError(f"unknown sense {sense!r}")
    idx0, rows = _module_rows(phi, module)
    # gradients and residuals scale with phi; the zero form keeps absolute tolerances
    scale = tol_scale(phi)
    frames, iterations = starts, np.zeros(len(starts), dtype=int)
    if sense != "critical":
        frames, iterations = _ascent(phi, starts, params, 1.0 if sense == "maximize" else -1.0, scale)
    frames, extra, ok = _gauss_newton(frames, params, module, idx0, rows, params.grad_tol * scale)
    reports = criticality_reports(frames, phi, tol=params.grad_tol * 10, module=module)
    converged = ok & np.array([r.is_critical for r in reports], dtype=bool)
    return frames, reports, converged, iterations + extra


def _trials(phi, trials, params, sense, module):
    """(frame, report, converged, iterations) of trials 0, 1, .. in order, run in lockstep blocks."""
    for lo in range(0, trials, _TRIAL_BLOCK):
        seeds = [trial_seed(params.master_seed, t) for t in range(lo, min(trials, lo + _TRIAL_BLOCK))]
        yield from zip(*_lockstep(phi, _start_frames(phi.n, phi.p, seeds), params, sense, module))


def ascend(phi, start, params=None, sense="maximize", module=None):
    """Search from a starting plane; sense is maximize, minimize, or critical."""
    if params is None:
        params = SearchParams()
    if module is None:
        module = phi_module(phi)
    (frame, report, converged, iterations), = zip(*_lockstep(phi, start.frame[None], params, sense, module))
    return AscendResult(OrientedPlane(frame), report, bool(converged), int(iterations))


def comass_search(phi, trials=None, params=None, module=None):
    """Multistart maximization; returns (best value, best plane).

    Maximizers tie up to round-off, so the first converged trial within
    grad_tol * 10 * max|coefficient| of the best value is taken.
    """
    if params is None:
        params = SearchParams()
    if trials is None:
        trials = params.trials
    if module is None:
        module = phi_module(phi)
    found = [(r.value, f) for f, r, ok, _ in _trials(phi, trials, params, "maximize", module) if ok]
    if not found:
        raise RuntimeError("no trial converged; increase trials or max_iters")
    best = max(v for v, _ in found) - params.grad_tol * 10 * tol_scale(phi)
    value, frame = next((v, f) for v, f in found if v >= best)
    return value, OrientedPlane(frame)


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


def critical_spectrum(phi, trials=None, params=None, cluster_tol=CLUSTER_TOL):
    """Multistart saddle search; catalogs converged planes and |value| clusters."""
    if params is None:
        params = SearchParams()
    if trials is None:
        trials = params.trials
    module = phi_module(phi)
    planes, values, residuals = [], [], []
    for frame, report, converged, _ in _trials(phi, trials, params, "critical", module):
        if converged:
            planes.append(OrientedPlane(frame))
            values.append(float(report.value))
            residuals.append(float(report.residual_cousin))
    clusters = _cluster_1d([abs(v) for v in values], cluster_tol)
    return CriticalCatalog(
        planes=planes,
        values=values,
        residuals=residuals,
        clusters=clusters,
        params=params,
        trials=trials,
    )
