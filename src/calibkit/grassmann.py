"""Sampling and first-order search on the oriented Grassmannian.

Maximization/minimization uses projected gradient steps with Armijo
backtracking.  A trial's next first try is the vertex of the parabola fitted
to its last accepted try of step s, clipped to [_SHRINK s, 2 s], or 2 s where
that parabola does not bend down.  Every sense ends with damped Gauss-Newton
on the module residual (the values of the induced form module on the plane),
which also reaches saddle points that plain ascent misses.  Its step is a
Levenberg-Marquardt step at a fixed damping (`_damped_step`): the normal
equations (J^T J + mu I) d = -J^T r of every unconverged trial are solved in
one batched LU solve, which costs a fraction of an SVD, and the step is 0
along the null directions of J, such as those tangent to a Morse-Bott
critical set.  The step does not change when the module's orthonormal basis
does (J -> QJ, r -> Qr), so its jet takes the module as critical.phi_module
builds it, under phi's terms: su4's values contract 2,540 coefficients over
464 indices, not 91 * 455, and J comes from one cached 105 x 1,365 matrix.
Both phases are step rules for one backtracking line search
(`_line_search`).  Each trial carries its completion Q = [F N], which the
one QR of each retraction (`critical._retract`) renews, and each try takes
one jet at its candidate; an accepted candidate's jet is the one the next
step reads.  A trial's final jet, at the frame it returns, gives its value,
residual and verdict; `ascend` adds the three-residual report.

Multistart searches step blocks of up to _TRIAL_BLOCK = 24 trials in
lockstep, as one (m, n, p) frame stack, so each iteration's Python, QR and
determinant calls are paid once per block rather than once per trial.  Each
trial keeps its own seed, step length, iteration count and stopping state,
and each frame is evaluated and retracted on its own, so a trial gives the
same bits alone (`ascend`) as in any block.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from .critical import (
    CriticalityReport,
    OrientedPlane,
    _atol,
    _module_rows,
    _retract,
    completions,
    is_critical,
    phi_module,
    qr_fix,
    tol_scale,
)
from .exterior import first_jet

__all__ = [
    "SearchParams",
    "AscendResult",
    "CriticalCatalog",
    "trial_seed",
    "random_plane",
    "ascend",
    "comass_search",
    "critical_spectrum",
]

# trials stepped together in one frame stack.  Over 8, perfbench measured
# search-small at +56% trials/s with 24, +53% with 32 and +80% with 64, which
# runs each 40-trial job as one stack.  But perfbench keeps every pass's
# payload, so its peak_rss_mb grows with the passes a faster program makes:
# +10.9% at 64, past the 10% bound, against +4.9% at 24 and +8.5% at 32.
# Raise the block once perfbench stops keeping payloads.  The bound also keeps a search's memory
# flat in its trial count: the largest lockstep arrays are the su4
# Gauss-Newton jet, 24 * 91 * 3 * 12 floats (0.63 MB) per block, and its
# 24 * 90 * 36 Jacobian, while [phi; module]'s cached gradient matrix takes
# 105 * 1,365 floats (1.1 MB); a 24-trial su4 job is one stack, and its
# search peaks at 3.8 MB (tracemalloc), 5.8 MB when it builds the caches
_TRIAL_BLOCK = 24
# largest gap between sorted |values| within one catalog cluster, relative to max|coefficient|
CLUSTER_TOL = 1e-4
# the step rule's constants: the ascent's first try is twice _STEP_INIT / max|coefficient|, a
# try passes when it gains _ARMIJO_C times its first-order gain, and a failed try shrinks by _SHRINK
_STEP_INIT = 0.1
_ARMIJO_C = 1e-4
_SHRINK = 0.5


@dataclass
class SearchParams:
    max_iters: int = 5000
    grad_tol: float = 1e-10
    trials: int = 200
    master_seed: int = 0

    def __post_init__(self):
        counts = (self.max_iters, self.trials, self.master_seed)
        if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in counts):
            raise ValueError("max_iters, trials and master_seed must be integers")
        if not all(v > 0 for v in (self.max_iters, self.grad_tol)):  # NaN included
            raise ValueError("search parameters must be positive")
        if self.grad_tol >= 1e-6:
            raise ValueError("grad_tol must be below 1e-6")
        if min(self.trials, self.master_seed) < 0:
            raise ValueError("trials and master_seed must not be negative")

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

    @property
    def trials(self):
        return self.params.trials

    def to_json(self):
        return {
            "planes": [p.to_json()["columns"] for p in self.planes],
            "values": self.values,
            "residuals": self.residuals,
            "clusters": [{"center": c, "count": k} for c, k in self.clusters],
            "params": self.params.to_json(),
            "trials": self.params.trials,
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


def _line_search(qs, coeffs, idx0, step, params, tries, rule):
    """Backtracking line searches from completions qs in lockstep; returns (qs, iterations, values, first).

    Each iteration, rule(values, first, step) reads the live trials' jets of
    the forms coeffs and their steps, and returns their directions, first
    steps, which of them move, and accept(j, values, step), which tells which
    candidates of the moving trials j pass, and their next steps.  Each try
    takes one first_jet at the candidates; an accepted one's jet and next
    step are kept.  A trial that does not move stops.  values and first are
    the jets at the returned qs.
    """
    m, p = len(qs), idx0.shape[1]
    qs = qs.copy()
    values, first = first_jet(coeffs, idx0, qs[:, :, :p], qs[:, :, p:])
    iterations = np.zeros(m, dtype=int)
    active = np.ones(m, dtype=bool)
    for it in range(1, params.max_iters + 1):
        live = np.flatnonzero(active)
        if not live.size:
            break
        iterations[live] = it
        direction, trial_step, moving, accept = rule(values[live], first[live], step[live])
        moved = np.zeros(len(live), dtype=bool)
        for _ in range(tries):
            j = np.flatnonzero(moving & ~moved)
            if not j.size:
                break
            cand = _retract(qs[live[j]], trial_step[j][:, None, None] * direction[j])
            cand_values, cand_first = first_jet(coeffs, idx0, cand[:, :, :p], cand[:, :, p:])
            ok, carried = accept(j, cand_values, trial_step[j])
            t = live[j[ok]]
            qs[t], values[t], first[t], step[t] = cand[ok], cand_values[ok], cand_first[ok], carried[ok]
            moved[j[ok]] = True
            trial_step[j[~ok]] *= _SHRINK
        active[live] = moved
    return qs, iterations, values, first


def _ascent(phi, frames, params, sign, scale):
    """Armijo ascent of sign * phi from every frame; returns (completions, iterations).

    An accepted try of step s carries the vertex of the parabola through it,
    clipped to [_SHRINK s, 2 s], or 2 s where that parabola does not bend down.
    """
    phi_idx, phi_c = phi._compact()

    def rule(value, first, step):
        gnorm2 = np.sum(first * first, axis=(1, 2))

        def rises(j, new_value, s):
            # the parabola through (0, 0) with slope g2 and through (s, gain) peaks at 1 / curvature, where a
            # gradient step shrinks |grad| most; doubling settled near 2 / curvature
            g2, gain = gnorm2[j], sign * (new_value - value[j])
            vertex = np.divide(g2 * s * s, 2.0 * (g2 * s - gain), out=2.0 * s, where=g2 * s > gain)
            return gain >= _ARMIJO_C * s * g2, np.clip(vertex, _SHRINK * s, 2.0 * s)

        # the carried step, up to a cap; polished trials stop
        moving = ~(np.sqrt(gnorm2) < 1e-3 * scale)
        return sign * first, np.minimum(step, 10.0 / scale), moving, rises

    # the gradient scales with phi, so step lengths scale with 1 / scale; the first try is twice _STEP_INIT
    step = np.full(len(frames), 2.0 * _STEP_INIT / scale)
    qs, iterations, _, _ = _line_search(completions(frames), phi_c, phi_idx, step, params, 60, rule)
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
    """Drive the module's values to zero from completions qs; rows are critical._module_rows' groups [phi; module].

    Returns qs, iterations, ok and phi's (row 0) value and residual, all
    read from each trial's final jet, at the frame it returns.
    """
    p = idx0.shape[1]
    k = qs.shape[1] - p

    def residual(first):
        return np.max(np.abs(first[:, 0]), axis=(1, 2), initial=0.0)

    def rule(vals, first, step):
        ok = residual(first) < grad_tol
        r = vals[:, 1:]
        todo = np.flatnonzero(~ok)
        delta = np.zeros((len(vals), p * k))
        # d gamma / d A[b*k+t]; p k may be 0
        delta[todo] = _damped_step(first[todo, 1:].reshape(len(todo), r.shape[1], p * k), r[todo])
        base = (r[:, None, :] @ r[:, :, None])[:, 0, 0]

        def descends(j, new_vals, s):
            r_new = new_vals[:, 1:]
            norm2 = (r_new[:, None, :] @ r_new[:, :, None])[:, 0, 0]
            return norm2 < base[j] * (1.0 - _ARMIJO_C * s) + 1e-30, s

        # the full step first; converged trials stop
        return delta.reshape(len(vals), p, k), np.ones_like(step), ~ok, descends

    qs, iterations, vals, first = _line_search(qs, rows, idx0, np.ones(len(qs)), params, 30, rule)
    res = residual(first)
    return qs, iterations, res < grad_tol, vals[:, 0], res


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


def _trials(phi, params, sense, module):
    """(frame, value, residual, converged, iterations) of trials 0, 1, .. in order, run in lockstep blocks."""
    for lo in range(0, params.trials, _TRIAL_BLOCK):
        seeds = [trial_seed(params.master_seed, t) for t in range(lo, min(params.trials, lo + _TRIAL_BLOCK))]
        yield from zip(*_lockstep(phi, _start_frames(phi.n, phi.p, seeds), params, sense, module))


def _with_trials(params, trials):
    """params (SearchParams() when None) with trials, when given, as its trial count."""
    params = SearchParams() if params is None else params
    return params if trials is None else replace(params, trials=trials)


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
    params = _with_trials(params, trials)
    if module is None:
        module = phi_module(phi)
    found = [(float(v), f) for f, v, _, ok, _ in _trials(phi, params, "maximize", module) if ok]
    if not found:
        raise RuntimeError("no trial converged; increase trials or max_iters")
    best = max(v for v, _ in found) - params.grad_tol * 10 * tol_scale(phi)
    value, frame = next((v, f) for v, f in found if v >= best)
    return value, OrientedPlane(frame)


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
    """Multistart saddle search; catalogs converged planes and |value| clusters.

    Sorted |values| join one cluster across gaps up to cluster_tol times the
    largest |coefficient| of phi (cluster_tol for the zero form), which must
    be positive and finite.
    """
    params = _with_trials(params, trials)
    gap = _atol(phi, cluster_tol)
    module = phi_module(phi)
    planes, values, residuals = [], [], []
    for frame, value, residual, converged, _ in _trials(phi, params, "critical", module):
        if converged:
            planes.append(OrientedPlane(frame))
            values.append(float(value))
            residuals.append(float(residual))
    clusters = _cluster_1d([abs(v) for v in values], gap)
    return CriticalCatalog(planes=planes, values=values, residuals=residuals, clusters=clusters, params=params)
