"""Workload job lists, seeded inputs and the oracle every job is checked against.

A job is one `calibkit` CLI call.  Its inputs come from the workload seed only:
the seed reaches the program as `--seed` and as generated frame files.  The
oracle runs outside the timed region and uses the program only to obtain the
form's coefficients (`build_calibration` + `form_to_json`) and the su(k)
highest-root frame; criticality, values and clusters are re-derived here with
dense tensors, independently of the code under test.
"""

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

# Per family: CLI selector, spec for build_calibration, a calibrated base
# plane, and the expected invariants.  eds = (actual codim, Cartan bound,
# involutive at the flag); sff = solution dimension at a calibrated plane.
FAMILIES = {
    "associative": dict(
        argv=["--family", "associative"], spec={"family": "associative"},
        base=("columns", (0, 1, 2)), dim_phi=7, eds=(4, 4, True), sff=12, unimodular=True,
    ),
    "coassociative": dict(
        argv=["--family", "coassociative"], spec={"family": "coassociative"},
        base=("columns", (3, 4, 5, 6)), dim_phi=7, eds=(4, 3, False), sff=15, unimodular=True,
    ),
    "cayley": dict(
        argv=["--family", "cayley"], spec={"family": "cayley"},
        base=("columns", (0, 1, 2, 3)), dim_phi=7, eds=(4, 4, True), sff=24, unimodular=True,
    ),
    "slag3": dict(
        argv=["--family", "special_lagrangian", "--m", "3"],
        spec={"family": "special_lagrangian", "m": 3},
        base=("real_locus", 3), dim_phi=7, eds=(4, 3, False), sff=7, unimodular=True,
    ),
    "slag4": dict(
        argv=["--family", "special_lagrangian", "--m", "4"],
        spec={"family": "special_lagrangian", "m": 4},
        base=("real_locus", 4), dim_phi=13, eds=(7, 4, False), sff=16, unimodular=False,
    ),
    "su3": dict(
        argv=["--family", "cartan", "--algebra", "su3"], spec={"family": "cartan", "algebra": "su3"},
        base=("highest_root", 3), dim_phi=20, eds=(11, 5, False), sff=0, unimodular=False,
    ),
    "su4": dict(
        argv=["--family", "cartan", "--algebra", "su4"], spec={"family": "cartan", "algebra": "su4"},
        base=("highest_root", 4), dim_phi=90, eds=(28, 12, False), sff=0, unimodular=False,
    ),
}

SMALL = ("associative", "coassociative", "cayley", "slag3", "slag4", "su3")

# Multistart trials per job, sized so one pass of each workload takes a few
# seconds on a 2-core x86 machine.  su3 searches use 80 trials because about
# 15% of its trials reach the value-1 cluster, which the oracle requires.
SEARCH_TRIALS = {"su3": 80, "su4": 24}
COMASS_TRIALS = {"su4": 24}
DEFAULT_TRIALS = 40
EDS_TRIALS = 3

WORKLOADS = {
    "search-small": "comass + search on the n <= 8 families: per-step Python and small-LAPACK overhead",
    "search-su4": "comass + search on the su(4) Cartan form (n=15): determinants over 455 indices",
    "analysis": "module/check/sff/eds per family and a spinor job: form construction and module rebuilds",
}

VALUE_TOL = 1e-9
CRITICAL_TOL = 1e-7
COMASS_TOL = 1e-6
CLUSTER_TOL = 1e-4  # the CLI's default --cluster_tol


@dataclass
class Job:
    name: str
    argv: list
    trials: int = 0  # multistart trials the job runs
    expect: dict = field(default_factory=dict)


def _parity(perm):
    sign = 1
    perm = list(perm)
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


class DenseForm:
    """A p-form as a full antisymmetric n^p tensor, built from its JSON terms."""

    def __init__(self, obj):
        self.n, self.p = int(obj["n"]), int(obj["p"])
        t = np.zeros((self.n,) * self.p)
        perms = [(perm, _parity(perm)) for perm in itertools.permutations(range(self.p))]
        for term in obj["terms"]:
            idx = [int(i) - 1 for i in term["idx"]]
            for perm, sign in perms:
                t[tuple(idx[k] for k in perm)] = sign * float(term["c"])
        self.tensor = t

    def value(self, frame):
        v = self.tensor
        for a in range(self.p):
            v = np.tensordot(frame[:, a], v, axes=(0, 0))
        return float(v)

    def cousin_norm(self, frame):
        """Frobenius norm of the Grassmannian gradient at the plane of frame."""
        u, _, _ = np.linalg.svd(frame, full_matrices=True)
        normal = u[:, self.p:]
        total = 0.0
        for a in range(self.p):
            w = np.moveaxis(self.tensor, a, -1)
            for b in range(self.p):
                if b != a:
                    w = np.tensordot(frame[:, b], w, axes=(0, 0))
            total += float(np.sum((normal.T @ w) ** 2))
        return total ** 0.5

    def act(self, theta):
        """The o(n) action theta . phi, as a tensor."""
        out = np.zeros_like(self.tensor)
        for k in range(self.p):
            out += np.moveaxis(np.tensordot(self.tensor, theta, axes=([k], [0])), -1, k)
        return out

    def stabilizer(self):
        """Orthonormal basis of the stabilizer algebra, as skew n x n matrices."""
        n = self.n
        gens = []
        for i, j in itertools.combinations(range(n), 2):
            e = np.zeros((n, n))
            e[i, j], e[j, i] = 1.0, -1.0
            gens.append(e)
        # the stabilizer is the left null space of the (generators x n^p) action matrix
        mat = np.vstack([self.act(e).ravel() for e in gens])
        _, s, vt = np.linalg.svd(mat.T, full_matrices=False)
        rank = int(np.sum(s > 1e-9 * s[0]))
        return [np.tensordot(v, np.array(gens), axes=(0, 0)) for v in vt[rank:]]


def _expm_skew(theta):
    w, v = np.linalg.eigh(1j * theta)
    return (v @ np.diag(np.exp(-1j * w)) @ v.conj().T).real


def _base_frame(calibkit, fam, n):
    kind, arg = fam["base"]
    if kind == "columns":
        return np.eye(n)[:, list(arg)]
    if kind == "real_locus":
        frame = np.zeros((n, arg))
        for j in range(arg):
            frame[2 * j, j] = 1.0
        return frame
    return np.asarray(calibkit.su_lie_algebra(arg).highest_root_frame, dtype=float)


def calibrated_frame(calibkit, fam, form, rng):
    """A calibrated plane moved by a random stabilizer element, in a random oriented frame."""
    base = _base_frame(calibkit, fam, form.n)
    stab = form.stabilizer()
    theta = sum(c * s for c, s in zip(rng.standard_normal(len(stab)), stab))
    q, r = np.linalg.qr(rng.standard_normal((form.p, form.p)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    frame = _expm_skew(theta) @ base @ q
    if abs(form.value(frame) - 1.0) > VALUE_TOL or form.cousin_norm(frame) > CRITICAL_TOL:
        raise RuntimeError(f"generated frame for {fam['spec']} is not calibrated")
    return frame


def load_forms(calibkit, families):
    out = {}
    for name in families:
        spec = calibkit.CalibrationSpec.from_json(FAMILIES[name]["spec"])
        out[name] = DenseForm(calibkit.form_to_json(calibkit.build_calibration(spec)))
    return out


def build_jobs(calibkit, workload, seed, workdir):
    """The job list of a workload; frame files are written to workdir."""
    if workload == "search-su4":
        families = ("su4",)
    elif workload == "search-small":
        families = SMALL
    else:
        families = SMALL + ("su4",)
    forms = load_forms(calibkit, families)
    jobs = []

    def add(name, argv, trials=0, seeded=True, **expect):
        if seeded:
            argv = argv + ["--seed", str(seed * 1000 + len(jobs))]
        jobs.append(Job(name, argv, trials, expect))

    for k, fam_name in enumerate(families):
        fam, form = FAMILIES[fam_name], forms[fam_name]
        if workload != "analysis":
            t = COMASS_TRIALS.get(fam_name, DEFAULT_TRIALS)
            add(f"comass:{fam_name}", ["comass"] + fam["argv"] + ["--trials", str(t)], t,
                kind="comass", form=form)
            t = SEARCH_TRIALS.get(fam_name, DEFAULT_TRIALS)
            add(f"search:{fam_name}", ["search"] + fam["argv"] + ["--trials", str(t)], t,
                kind="search", form=form, family=fam_name)
            continue
        frame = calibrated_frame(calibkit, fam, form, np.random.default_rng([seed, k]))
        path = workdir / f"frame-{fam_name}.json"
        path.write_text(json.dumps({"n": form.n, "p": form.p, "columns": frame.T.tolist()}))
        add(f"module:{fam_name}", ["module"] + fam["argv"], kind="module", family=fam_name,
            n=form.n, seeded=False)
        add(f"check-frame:{fam_name}", ["check"] + fam["argv"] + ["--frame", str(path)],
            kind="check", critical=True, seeded=False)
        add(f"check-seed:{fam_name}", ["check"] + fam["argv"], kind="check", critical=False)
        add(f"sff:{fam_name}", ["sff"] + fam["argv"] + ["--frame", str(path)], kind="sff",
            family=fam_name, seeded=False)
        add(f"eds:{fam_name}", ["eds"] + fam["argv"] + ["--trials", str(EDS_TRIALS)], EDS_TRIALS,
            kind="eds", family=fam_name)
    if workload == "analysis":
        add("spinor", ["spinor"], kind="spinor", seeded=False)
    return jobs


# -- oracle ------------------------------------------------------------------


def _cluster(values, tol):
    vals = sorted(values)
    out, start = [], 0
    for i in range(1, len(vals) + 1):
        if i == len(vals) or vals[i] - vals[i - 1] > tol:
            group = vals[start:i]
            out.append((float(np.mean(group)), len(group)))
            start = i
    return out


def _check_plane(form, columns, value, problems, what):
    frame = np.array(columns, dtype=float).T
    if np.max(np.abs(frame.T @ frame - np.eye(frame.shape[1]))) > 1e-10:
        problems.append(f"{what}: frame not orthonormal")
        return
    if abs(form.value(frame) - value) > VALUE_TOL:
        problems.append(f"{what}: reported value {value} != {form.value(frame)}")
    if form.cousin_norm(frame) > CRITICAL_TOL:
        problems.append(f"{what}: plane is not critical")


def check(job, code, payload):
    """Problems with one job's exit code and payload; empty when it passes."""
    e = job.expect
    kind = e["kind"]
    if kind == "module":
        want = {"dim_phi": FAMILIES[e["family"]]["dim_phi"], "n": e["n"]}
        want["dim_stab"] = e["n"] * (e["n"] - 1) // 2 - want["dim_phi"]
        return [f"exit {code} != 0"] * (code != 0) + [
            f"{k} = {payload.get(k)} != {v}" for k, v in want.items() if payload.get(k) != v
        ]
    if kind == "check":
        problems = []
        if code != (0 if e["critical"] else 1):
            problems.append(f"exit {code}")
        if payload.get("is_critical") is not e["critical"]:
            problems.append(f"is_critical = {payload.get('is_critical')}")
        if e["critical"] and abs(payload.get("value", 0.0) - 1.0) > VALUE_TOL:
            problems.append(f"value {payload.get('value')} on a calibrated plane")
        return problems
    if kind == "sff":
        dim = FAMILIES[e["family"]]["sff"]
        problems = [f"exit {code}"] * (code != (0 if dim else 1))
        if payload.get("solution_dim") != dim:
            problems.append(f"solution_dim {payload.get('solution_dim')} != {dim}")
        if payload.get("all_trace_free") is not bool(dim):
            problems.append(f"all_trace_free = {payload.get('all_trace_free')}")
        return problems
    if kind == "eds":
        codim, bound, involutive = FAMILIES[e["family"]]["eds"]
        got = (payload.get("actual_codim"), payload.get("cartan_bound"), payload.get("involutive_at_flag"))
        problems = [f"exit {code}"] * (code != (0 if involutive else 1))
        if got != (codim, bound, involutive):
            problems.append(f"eds {got} != {(codim, bound, involutive)}")
        dual = payload.get("hodge_dual", {})
        if not dual.get("codim_p") == dual.get("codim_dual") == codim:
            problems.append(f"Hodge-dual codims {dual}")
        return problems
    if kind == "comass":
        problems = [f"exit {code}"] * (code != 0)
        value = payload.get("comass", 0.0)
        if abs(value - 1.0) > COMASS_TOL:
            problems.append(f"comass {value}")
        _check_plane(e["form"], payload.get("maximizer", []), value, problems, "maximizer")
        return problems
    if kind == "search":
        return _check_search(job, code, payload)
    if kind == "spinor":
        norms = payload.get("component_norms", {})
        problems = [f"exit {code}"] * (code != 0)
        if payload.get("n_psi_forms") != 7 or payload.get("dim_phi") != 7:
            problems.append(f"n_psi_forms/dim_phi {payload.get('n_psi_forms')}/{payload.get('dim_phi')}")
        if not payload.get("span_distance", 1.0) < 1e-9:
            problems.append(f"span distance {payload.get('span_distance')}")
        if abs(norms.get("0", 0.0) - 1.0) > 1e-10 or any(
            norms.get(str(k), 1.0) > 1e-10 for k in range(9) if k not in (0, 4, 8)
        ):
            problems.append(f"component norms {norms}")
        return problems
    raise ValueError(f"unknown job kind {kind}")


def _check_search(job, code, payload):
    e = job.expect
    problems = [f"exit {code}"] * (code != 0)
    planes, values = payload.get("planes", []), payload.get("values", [])
    if payload.get("trials") != job.trials:
        problems.append(f"trials {payload.get('trials')} != {job.trials}")
    if not planes or len(planes) != len(values) or len(values) != len(payload.get("residuals", [])):
        problems.append("catalog is empty or ragged")
        return problems
    for i, (cols, v) in enumerate(zip(planes, values)):
        _check_plane(e["form"], cols, v, problems, f"plane {i}")
    clusters = [(c["center"], c["count"]) for c in payload.get("clusters", [])]
    want = _cluster([abs(v) for v in values], CLUSTER_TOL)
    if len(clusters) != len(want) or any(
        k != kw or abs(c - cw) > 1e-12 for (c, k), (cw, kw) in zip(clusters, want)
    ):
        problems.append(f"clusters {clusters} != {want}")
    centers = [c for c, _ in clusters]
    if any(c > 1.0 + COMASS_TOL for c in centers):
        problems.append(f"cluster above the comass: {centers}")
    if FAMILIES[e["family"]]["unimodular"] and any(abs(c - 1.0) > COMASS_TOL for c in centers):
        problems.append(f"spurious clusters {centers}")
    if e["family"] == "su3" and not (
        any(abs(c - 1.0) < COMASS_TOL for c in centers)
        and any(COMASS_TOL < c < 1.0 - COMASS_TOL for c in centers)
    ):
        problems.append(f"su3 clusters {centers} lack 1 or an interior value")
    return problems
