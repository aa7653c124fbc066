"""Sampling and first-order search on the oriented Grassmannian.

Maximization/minimization uses projected gradient steps with Armijo
backtracking and a QR retraction.  Every sense ends with damped Gauss-Newton
on the module residual (the values of the induced form module on the plane),
which also reaches saddle points that plain ascent misses.  Its step is a
Levenberg-Marquardt step at a fixed damping (`_damped_step`): the normal
equations (J^T J + mu I) d = -J^T r of every unconverged trial are solved in
one batched LU solve, which costs a fraction of an SVD, and the step is 0
along the null directions of J, such as those tangent to a Morse-Bott
critical set.  Each trial carries its completion Q = [F N], which each
retraction's one QR renews, and Gauss-Newton takes one jet per line-search
try.  Its last jet, at the final frame of every converged trial, decides the
trial and gives a catalog's value and residual; `ascend` adds the
three-residual report.

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
    is_critical,
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


def _retract(qs, coords):
    """QR retraction of completions Q = [F N], (m, n, n), to F + N coords[i].T; returns the moved completions.

    The complete Q factor, signed so that diag(R) >= 0, has qr_fix's frame in
    front.  The frame and Q share their p Householder reflectors, so behind it
    are the frame's `completions`, up to round-off.
    """
    p = coords.shape[1]
    q, r = np.linalg.qr(qs[:, :, :p] + qs[:, :, p:] @ np.swapaxes(coords, 1, 2), mode="complete")
    d = np.sign(np.diagonal(r, axis1=1, axis2=2))
    d[d == 0] = 1.0
    q[:, :, :p] *= d[:, None, :]
    return q


def _backtrack(qs, direction, step, pending, tries, shrink, accept):
    """Backtracking from completions qs along step * direction for the pending trials; returns (qs, moved, step).

    accept(j, cand, step) tells which candidate completions of the trials j pass.
    """
    qs, moved = qs.copy(), np.zeros(len(qs), dtype=bool)
    for _ in range(tries):
        j = np.flatnonzero(pending & ~moved)
        if not j.size:
            break
        cand = _retract(qs[j], step[j][:, None, None] * direction[j])
        ok = accept(j, cand, step[j])
        qs[j[ok]] = cand[ok]
        moved[j[ok]] = True
        step[j[~ok]] *= shrink
    return qs, moved, step


def _module_rows(phi, module):
    """Stack phi's own dense coefficients on top of the module's."""
    return module._idx0, np.vstack([phi.dense()[None, :], module.dense_matrix()])


def _ascent(phi, frames, params, sign, scale):
    """Armijo ascent of sign * phi from every frame; returns (completions, iterations)."""
    phi_idx, phi_c = phi._compact()
    qs = completions(frames)
    # the gradient scales with phi, so step lengths scale with 1 / scale
    step = np.full(len(qs), params.step_init / scale)
    iterations = np.zeros(len(qs), dtype=int)
    active = np.ones(len(qs), dtype=bool)
    for it in range(1, params.max_iters + 1):
        live = np.flatnonzero(active)
        if not live.size:
            break
        iterations[live] = it
        value, first = first_jet(phi_c, phi_idx, qs[live, :, : phi.p], qs[live, :, phi.p :])
        gnorm2 = np.sum(first * first, axis=(1, 2))

        def rises(j, cand, s):
            new_value = stack_values(phi_c, phi_idx, cand[:, :, : phi.p])
            return sign * (new_value - value[j]) >= params.armijo_c * s * gnorm2[j]

        # polished trials stop; the rest stop unless their line search succeeds
        moving = ~(np.sqrt(gnorm2) < 1e-3 * scale)
        qs[live], active[live], trial_step = _backtrack(
            qs[live], sign * first, np.minimum(step[live] * 2.0, 10.0 / scale), moving, 60, params.shrink, rises
        )
        step[live[active[live]]] = trial_step[active[live]]
    return qs, iterations


def _damped_step(jac, r):
    """Levenberg-Marquardt steps d = -(J^T J + mu I)^-1 J^T r for a stack of Jacobians (m, R, c) and residuals (m, R).

    Each trial's damping mu is 1e-12 times the largest diagonal entry of its
    own J^T J, plus the smallest normal float, so a zero J gives a zero step.
    The step is lstsq's minimum-norm step with each singular direction scaled
    by sigma^2 / (sigma^2 + mu), and 0 on the null directions of J up to
    round-off, of relative order eps / 1e-12, that the line search judges.
    """
    jt = np.swapaxes(jac, 1, 2)
    gram = jt @ jac
    i = np.arange(gram.shape[1])
    gram[:, i, i] += 1e-12 * np.max(gram[:, i, i], axis=1, initial=0.0)[:, None] + np.finfo(float).tiny
    return np.linalg.solve(gram, -(jt @ r[:, :, None]))[:, :, 0]


def _gauss_newton(qs, params, idx0, rows, grad_tol):
    """Drive the module rows[1:] to zero from completions qs.

    Returns qs, iterations, ok and phi's (rows[0]) last value and residual.
    Each step reads the jet that its line search took at the accepted candidate.
    """
    m, n, p = len(qs), qs.shape[1], idx0.shape[1]
    k = n - p
    iterations = np.zeros(m, dtype=int)
    qs = qs.copy()
    vals, first = first_jet(rows, idx0, qs[:, :, :p], qs[:, :, p:])
    ok = np.zeros(m, dtype=bool)
    value, residual = np.zeros(m), np.zeros(m)
    active = np.ones(m, dtype=bool)
    for it in range(1, params.max_iters + 1):
        live = np.flatnonzero(active)
        if not live.size:
            break
        iterations[live] = it
        value[live], residual[live] = vals[live, 0], np.max(np.abs(first[live, 0]), axis=(1, 2), initial=0.0)
        ok[live] = residual[live] < grad_tol
        r = vals[live, 1:]
        todo = np.flatnonzero(~ok[live])
        delta = np.zeros((len(live), p * k))
        # d gamma / d A[b*k+t]; p k may be 0
        delta[todo] = _damped_step(first[live[todo], 1:].reshape(len(todo), len(rows) - 1, p * k), r[todo])
        base = (r[:, None, :] @ r[:, :, None])[:, 0, 0]

        def descends(j, cand, s):
            cand_vals, cand_first = first_jet(rows, idx0, cand[:, :, :p], cand[:, :, p:])
            r_new = cand_vals[:, 1:]
            norm2 = (r_new[:, None, :] @ r_new[:, :, None])[:, 0, 0]
            good = norm2 < base[j] * (1.0 - params.armijo_c * s) + 1e-30
            vals[live[j[good]]], first[live[j[good]]] = cand_vals[good], cand_first[good]
            return good

        qs[live], active[live], _ = _backtrack(
            qs[live], delta.reshape(len(live), p, k), np.ones(len(live)), ~ok[live], 30, params.shrink, descends
        )
    return qs, iterations, ok, value, residual


def _lockstep(phi, starts, params, sense, module):
    """Search from each frame of an (m, n, p) stack; returns (frames, values, residuals, converged, iterations)."""
    if sense not in ("maximize", "minimize", "critical"):
        raise ValueError(f"unknown sense {sense!r}")
    idx0, rows = _module_rows(phi, module)
    # gradients and residuals scale with phi; the zero form keeps absolute tolerances
    scale = tol_scale(phi)
    if sense == "critical":
        qs, iterations = completions(starts), np.zeros(len(starts), dtype=int)
    else:
        qs, iterations = _ascent(phi, starts, params, 1.0 if sense == "maximize" else -1.0, scale)
    qs, extra, converged, values, residuals = _gauss_newton(qs, params, idx0, rows, params.grad_tol * scale)
    return qs[:, :, : phi.p], values, residuals, converged, iterations + extra


def _trials(phi, trials, params, sense, module):
    """(frame, value, residual, converged, iterations) of trials 0, 1, .. in order, run in lockstep blocks."""
    for lo in range(0, trials, _TRIAL_BLOCK):
        seeds = [trial_seed(params.master_seed, t) for t in range(lo, min(trials, lo + _TRIAL_BLOCK))]
        yield from zip(*_lockstep(phi, _start_frames(phi.n, phi.p, seeds), params, sense, module))


def ascend(phi, start, params=None, sense="maximize", module=None):
    """Search from a starting plane; sense is maximize, minimize, or critical."""
    if params is None:
        params = SearchParams()
    if module is None:
        module = phi_module(phi)
    frames, _, _, converged, iterations = _lockstep(phi, start.frame[None], params, sense, module)
    plane = OrientedPlane(frames[0])
    report = is_critical(plane, phi, tol=params.grad_tol * 10, module=module)
    return AscendResult(plane, report, bool(converged[0]), int(iterations[0]))


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
    found = [(float(v), f) for f, v, _, ok, _ in _trials(phi, trials, params, "maximize", module) if ok]
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
    for frame, value, residual, converged, _ in _trials(phi, trials, params, "critical", module):
        if converged:
            planes.append(OrientedPlane(frame))
            values.append(float(value))
            residuals.append(float(residual))
    clusters = _cluster_1d([abs(v) for v in values], cluster_tol)
    return CriticalCatalog(
        planes=planes,
        values=values,
        residuals=residuals,
        clusters=clusters,
        params=params,
        trials=trials,
    )
