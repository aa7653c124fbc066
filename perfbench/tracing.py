"""In-memory span tracing of calibkit's layers, installed by wrapping.

Every public function of every loaded `calibkit` module is wrapped in each
namespace that binds it, because the modules import each other's functions
by name (`grassmann.phi_module`, `eds.phi_module`, `cli.phi_module`, ...).
A few methods are wrapped too: `AltForm.__init__` and `AltForm.apply`
(form construction and single evaluation) and `OrientedPlane.__init__`.
A span's layer is the last component of the wrapped function's module.
"""

import inspect
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

METHODS = {"AltForm": ("__init__", "apply"), "OrientedPlane": ("__init__",)}


def _eval_counts(args, kwargs):
    """(frames, determinants, p) of a batch_eval_dense(coeff_mat, idx0, frames) call."""
    idx0 = args[1] if len(args) > 1 else kwargs["idx0"]
    frames = args[2] if len(args) > 2 else kwargs["frames"]
    m, t = np.shape(frames)[0], np.shape(idx0)[0]
    return m, m * t, np.shape(idx0)[1] if np.ndim(idx0) == 2 else 0


class Tracer:
    """Records spans (id, parent id, job id, name, start, end) while installed."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.job = 0
        self._stack = []
        self._next_id = 1
        self._patched = []

    # -- spans ---------------------------------------------------------------

    def _enter(self):
        parent = self._stack[-1] if self._stack else 0
        span_id = self._next_id
        self._next_id += 1
        self._stack.append(span_id)
        return span_id, parent, perf_counter()

    def _exit(self, name, span_id, parent, start):
        end = perf_counter()
        self._stack.pop()
        self.spans.append((span_id, parent, self.job, name, start, end))

    def run_job(self, job_id, fn, *args):
        """Call fn as the root span of one job."""
        self.job = job_id
        span = self._enter()
        try:
            return fn(*args)
        finally:
            self._exit("bench.job", *span)

    def _wrap(self, name, fn, before=None, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            span = tracer._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(name, *span)
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- counters at layer boundaries -----------------------------------------

    def _count_batch(self, args, kwargs):
        m, dets, p = _eval_counts(args, kwargs)
        self.counts["frames"] += m
        self.counts["dets"] += dets
        self.counts["gather_bytes"] += dets * p * p * 8

    def _count_apply(self, args, kwargs):
        form = args[0]
        t = len(getattr(form, "coeffs", ()))
        self.counts["frames"] += 1
        self.counts["dets"] += t
        self.counts["gather_bytes"] += t * form.p * form.p * 8

    def _count_ascend(self, result):
        self.counts["iterations"] += int(getattr(result, "iterations", 0))
        self.counts["converged"] += bool(getattr(result, "converged", False))

    # -- installation -------------------------------------------------------------

    def install(self):
        """Wrap calibkit's public functions and traced methods in place."""
        modules = [m for k, m in sorted(sys.modules.items()) if k == "calibkit" or k.startswith("calibkit.")]
        hooks = {
            "batch_eval_dense": (self._count_batch, None),
            "ascend": (None, self._count_ascend),
        }
        wrappers = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not getattr(obj, "__module__", "").startswith("calibkit"):
                    continue
                if id(obj) not in wrappers:
                    layer = obj.__module__.rsplit(".", 1)[-1]
                    before, after = hooks.get(obj.__name__, (None, None))
                    wrappers[id(obj)] = self._wrap(f"{layer}.{obj.__name__}", obj, before, after)
                self._patched.append((module, attr, obj))
                setattr(module, attr, wrappers[id(obj)])
        seen = set()
        for module in modules:
            for cls_name, methods in METHODS.items():
                cls = vars(module).get(cls_name)
                if cls is None or cls in seen:
                    continue
                seen.add(cls)
                layer = cls.__module__.rsplit(".", 1)[-1]
                for meth in methods:
                    orig = cls.__dict__.get(meth)
                    if orig is None:
                        continue
                    before = self._count_apply if meth == "apply" else None
                    self._patched.append((cls, meth, orig))
                    setattr(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", orig, before))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    # -- aggregation --------------------------------------------------------------

    def take(self):
        """Per-name (calls, total s, self s), the counters and the spans; clears them."""
        child = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            child[parent] += end - start
        stats = defaultdict(lambda: [0, 0.0, 0.0])
        for span_id, _, _, name, start, end in self.spans:
            s = stats[name]
            s[0] += 1
            s[1] += end - start
            s[2] += end - start - child[span_id]
        counts, spans = dict(self.counts), self.spans
        self.spans, self.counts = [], defaultdict(int)
        return dict(stats), counts, spans


def layer_metrics(stats, counts):
    """The per-layer metrics of one traced pass."""

    def calls(*names):
        return sum(stats.get(n, (0, 0.0, 0.0))[0] for n in names)

    def total(*names):
        return sum(stats.get(n, (0, 0.0, 0.0))[1] for n in names)

    def self_time(layer):
        return sum(s[2] for n, s in stats.items() if n.split(".", 1)[0] == layer)

    evals = ("exterior.batch_eval_dense", "exterior.AltForm.apply")
    eval_calls = calls(*evals)
    trials = calls("grassmann.ascend")
    return {
        "exterior.eval_s": total(*evals),
        "exterior.eval_calls": eval_calls,
        "exterior.dets": counts.get("dets", 0),
        "exterior.gather_bytes": counts.get("gather_bytes", 0),
        "exterior.frames_per_call": counts.get("frames", 0) / eval_calls if eval_calls else 0.0,
        "exterior.forms_built": calls("exterior.AltForm.__init__"),
        "exterior.form_init_s": total("exterior.AltForm.__init__"),
        "exterior.so_action_s": total("exterior.so_action"),
        "exterior.self_s": self_time("exterior"),
        "critical.phi_module_s": total("critical.phi_module"),
        "critical.phi_module_calls": calls("critical.phi_module"),
        "critical.planes_built": calls("critical.OrientedPlane.__init__"),
        "critical.plane_init_s": total("critical.OrientedPlane.__init__"),
        "critical.qr_fix_s": total("critical.qr_fix"),
        "critical.qr_fix_calls": calls("critical.qr_fix"),
        "critical.is_critical_s": total("critical.is_critical"),
        "critical.is_critical_calls": calls("critical.is_critical"),
        "critical.sff_space_s": total("critical.sff_space"),
        "critical.self_s": self_time("critical"),
        "grassmann.self_s": self_time("grassmann"),
        "grassmann.trials": trials,
        "grassmann.iterations": counts.get("iterations", 0),
        "grassmann.converged_ratio": counts.get("converged", 0) / trials if trials else 0.0,
        "eds.cartan_test_s": total("eds.cartan_test"),
        "eds.integral_codim_s": total("eds.integral_element_codim"),
        "eds.hodge_dual_s": total("eds.hodge_dual_ideal_check"),
        "eds.polar_space_calls": calls("eds.polar_space"),
        "eds.self_s": self_time("eds"),
        "calibrations.build_s": total("calibrations.build_calibration"),
        "calibrations.self_s": self_time("calibrations"),
        "cli.self_s": self_time("cli"),
    }


# Counts that must repeat exactly between passes and between runs of one
# program on one seed.
EXACT = (
    "exterior.dets",
    "exterior.gather_bytes",
    "exterior.forms_built",
    "critical.planes_built",
    "critical.phi_module_calls",
    "grassmann.iterations",
)
