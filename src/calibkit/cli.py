"""Command-line front end.

Machine-readable output goes to stdout, logs to stderr.  Exit codes:
0 success / affirmative verdict, 1 negative verdict, 2 usage error,
3 numerical failure or any other fault (its traceback on stderr).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
import traceback

import numpy as np

from . import calibrations, eds, grassmann
from .calibrations import CalibrationSpec, build_calibration, build_clifford
from .critical import (
    DEFAULT_TOL,
    NotCriticalError,
    OrientedPlane,
    is_critical,
    phi_module,
    sff_space,
    subspace_distance,
)
from .exterior import form_from_json, form_to_json, parse_form
from .grassmann import (
    CLUSTER_TOL,
    SearchParams,
    comass_search,
    critical_spectrum,
    random_plane,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

# the keys --config may set, at the library's own defaults
DEFAULTS = {
    "trials": SearchParams.trials,
    "tol": DEFAULT_TOL,
    "seed": SearchParams.master_seed,
    "grad_tol": SearchParams.grad_tol,
    "max_iters": SearchParams.max_iters,
    "cluster_tol": CLUSTER_TOL,
}


class SystemExit2(ValueError):
    """Usage error, mapped to exit code 2."""


def log(msg):
    print(msg, file=sys.stderr)


def emit(args, payload, text):
    out = json.dumps(payload, sort_keys=True) + "\n" if args.json else text + "\n"
    if args.out is not None:
        with open(args.out, "w") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)


def settings(args):
    cfg = dict(DEFAULTS)
    if args.config is not None:
        with open(args.config) as fh:
            overrides = json.load(fh)
        if not isinstance(overrides, dict):
            raise SystemExit2("--config must hold a JSON object")
        unknown = sorted(set(overrides) - set(DEFAULTS))
        if unknown:
            raise SystemExit2(f"unknown --config key {unknown[0]!r}")
        for key, default in DEFAULTS.items():
            val = overrides.get(key, default)
            # bool is an int subclass; an int is accepted where a float is expected
            kinds = int if isinstance(default, int) else (int, float)
            if isinstance(val, bool) or not isinstance(val, kinds):
                raise SystemExit2(f"--config key {key!r} must be a {type(default).__name__}")
        cfg.update(overrides)
    for key in ("trials", "tol", "seed"):
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    for key in ("tol", "cluster_tol", "grad_tol"):
        if not 0 < cfg[key] < math.inf:  # also rejects NaN
            raise SystemExit2(f"tolerance {key} must be positive and finite")
    for key, least in (("trials", 1), ("max_iters", 1), ("seed", 0)):
        if cfg[key] < least:
            raise SystemExit2(f"{key} must be at least {least}")
    return cfg


def load_form(args):
    """The calibration the spec options name; an option its family does not read is a usage error."""
    reads = calibrations._FAMILIES[args.family][1]
    for name in ("m", "phase", "algebra", "form", "n"):
        if getattr(args, name) is not None and name not in reads:
            raise SystemExit2(f"--{name} does not apply to --family {args.family}")
    form = args.form
    if form is not None:  # so the family is custom
        text = form.strip()
        if not text.startswith("{"):
            form = parse_form(text, n=args.n)
        elif args.n is not None:
            raise SystemExit2("--n does not apply to a JSON --form, which carries its own n")
        else:
            form = form_from_json(text)
    phase = 0.0 if args.phase is None else args.phase
    spec = CalibrationSpec(family=args.family, m=args.m, phase=phase, algebra=args.algebra, form=form)
    try:
        return build_calibration(spec)
    except np.linalg.LinAlgError:
        raise
    except ValueError as exc:
        given = " ".join(f"--{k} {getattr(args, k)}" for k in reads if getattr(args, k) is not None)
        raise SystemExit2(f"{given}: {exc}") from None


def load_plane(args, phi, cfg):
    if args.frame is not None and args.seed is not None:
        raise SystemExit2("give exactly one plane source (--frame or --seed)")
    if args.frame is not None:
        with open(args.frame) as fh:
            obj = json.load(fh)
        plane = OrientedPlane.from_json(obj)
        if (plane.n, plane.p) != (phi.n, phi.p):
            raise SystemExit2(f"--frame holds a {plane.p}-plane in R^{plane.n}, not a {phi.p}-plane in R^{phi.n}")
        given = np.array(obj["columns"], dtype=float).T
        if not np.array_equal(plane.frame, given):
            gram_err = np.max(np.abs(given.T @ given - np.eye(plane.p)))
            log(f"warning: frame re-orthonormalized (deviation {gram_err:.2e})")
        return plane
    return random_plane(phi.n, phi.p, grassmann.trial_seed(cfg["seed"], 0))


def search_params(cfg):
    return SearchParams(
        max_iters=cfg["max_iters"],
        grad_tol=cfg["grad_tol"],
        trials=cfg["trials"],
        master_seed=cfg["seed"],
    )


# -- subcommands -------------------------------------------------------------


def cmd_module(args, cfg):
    phi = load_form(args)
    module = phi_module(phi)
    n = phi.n
    payload = {
        "dim_phi": module.rank,
        "dim_stab": n * (n - 1) // 2 - module.rank,
        "n": n,
        "p": phi.p,
    }
    if args.basis:
        payload["basis"] = [form_to_json(b) for b in module.basis]
    text = f"dim Phi = {payload['dim_phi']}, stabilizer dim = {payload['dim_stab']}"
    emit(args, payload, text)
    return EXIT_OK


def cmd_check(args, cfg):
    phi = load_form(args)
    plane = load_plane(args, phi, cfg)
    report = is_critical(plane, phi, tol=cfg["tol"])
    payload = report.to_json()
    text = (
        f"value = {report.value:.12g}, residuals: cousin {report.residual_cousin:.3e}, "
        f"module {report.residual_module:.3e}, rho {report.residual_rho:.3e}; "
        f"critical: {report.is_critical}"
    )
    emit(args, payload, text)
    return EXIT_OK if report.is_critical else EXIT_NEGATIVE


def cmd_search(args, cfg):
    phi = load_form(args)
    catalog = critical_spectrum(phi, params=search_params(cfg), cluster_tol=cfg["cluster_tol"])
    payload = catalog.to_json()
    if args.csv is not None:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["trial", "value", "residual"])
            for i, (v, r) in enumerate(zip(catalog.values, catalog.residuals)):
                writer.writerow([i, repr(v), repr(r)])
    clusters = ", ".join(f"{c:.6g} (x{k})" for c, k in catalog.clusters)
    text = f"converged {len(catalog.values)}/{catalog.trials}; |value| clusters: {clusters}"
    emit(args, payload, text)
    return EXIT_OK


def cmd_comass(args, cfg):
    phi = load_form(args)
    value, plane = comass_search(phi, params=search_params(cfg))
    payload = {"comass": value, "maximizer": plane.to_json()["columns"]}
    emit(args, payload, f"comass estimate = {value:.12g}")
    return EXIT_OK


def cmd_eds(args, cfg):
    phi = load_form(args)
    module = phi_module(phi)
    _, plane = comass_search(phi, params=search_params(cfg), module=module)
    report = eds.cartan_test(plane, module)
    codim_p, codim_dual = eds.hodge_dual_ideal_check(
        phi, xi=plane, module=module, codim_p=report.actual_codim
    )
    payload = report.to_json()
    payload["hodge_dual"] = {"codim_p": codim_p, "codim_dual": codim_dual}
    text = (
        f"Cartan bound {report.cartan_bound}, actual codim {report.actual_codim}, "
        f"involutive: {report.involutive_at_flag}; dual codims ({codim_p}, {codim_dual})"
    )
    emit(args, payload, text)
    return EXIT_OK if report.involutive_at_flag else EXIT_NEGATIVE


def cmd_sff(args, cfg):
    phi = load_form(args)
    plane = load_plane(args, phi, cfg)
    try:
        basis, all_trace_free = sff_space(plane, phi, tol=cfg["tol"])
    except NotCriticalError as exc:
        log(str(exc))
        return EXIT_NEGATIVE
    except ValueError as exc:
        log(str(exc))
        return EXIT_NUMERICAL
    payload = {"solution_dim": len(basis), "all_trace_free": all_trace_free}
    emit(
        args,
        payload,
        f"solution dim = {len(basis)}, all trace free: {all_trace_free}",
    )
    return EXIT_OK if all_trace_free else EXIT_NEGATIVE


def cmd_spinor(args, cfg):
    model = build_clifford()
    x = model.s_plus[:, 0]
    norms = {k: model.spinor_square(x, k).norm() for k in range(9)}
    phi4 = model.spinor_square(x, 4)
    forms, span = model.psi_forms(x)
    module = phi_module(phi4)
    dist = subspace_distance(span, module)
    payload = {
        "component_norms": {str(k): norms[k] for k in norms},
        "n_psi_forms": len(forms),
        "span_distance": dist,
        "dim_phi": module.rank,
    }
    text = (
        f"degree norms: {', '.join(f'{k}:{norms[k]:.6g}' for k in norms)}; "
        f"N = {len(forms)}, span distance = {dist:.3e}"
    )
    emit(args, payload, text)
    return EXIT_OK


def _path(text):
    """A file path option's value; argparse names the option when it is empty."""
    if not text:
        raise argparse.ArgumentTypeError("empty path")
    return text


def _group(*parents):
    return argparse.ArgumentParser(add_help=False, parents=parents)


@functools.cache
def build_parser():
    """The argument parser, built on first use; each subcommand takes only the options it reads."""
    output = _group()
    output.add_argument("--json", action="store_true", help="JSON on stdout")
    output.add_argument("--config", type=_path, help="JSON file of default overrides")
    output.add_argument("--out", type=_path, help="write output to a file instead of stdout")
    spec = _group()
    spec.add_argument("--family", choices=calibrations._FAMILIES, required=True)
    spec.add_argument("--m", type=int)
    spec.add_argument("--phase", type=float)
    spec.add_argument("--algebra")
    spec.add_argument("--n", type=int, help="ambient dimension for --form literals")
    spec.add_argument("--form", help="form literal (e.g. 'e123 + e145') or AltForm JSON")
    seed = _group()
    seed.add_argument("--seed", type=int)
    search = _group(seed)
    search.add_argument("--trials", type=int)
    plane = _group(seed)
    plane.add_argument("--frame", type=_path, help="JSON file holding a plane frame")
    plane.add_argument("--tol", type=float)
    basis = _group()
    basis.add_argument("--basis", action="store_true", help="include the orthonormal basis")
    rows = _group()
    rows.add_argument("--csv", type=_path, help="also write (trial, value, residual) rows")
    commands = {
        "module": ("dimension and basis of the induced form module", [spec, output, basis]),
        "check": ("criticality report for a plane", [spec, plane, output]),
        "search": ("multistart critical-plane search", [spec, search, output, rows]),
        "comass": ("multistart comass estimate", [spec, search, output]),
        "eds": ("Cartan test and Hodge-dual comparison", [spec, search, output]),
        "sff": ("second-fundamental-form solution space", [spec, plane, output]),
        "spinor": ("squared-spinor component report", [output]),
    }
    parser = argparse.ArgumentParser(prog="calibkit", description="calibrated geometry toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, groups) in commands.items():
        sub.add_parser(name, help=text, parents=groups)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        # looked up at call time, so a rebound cmd_* runs even though the parser is built once
        return globals()[f"cmd_{args.command}"](args, settings(args))
    except (np.linalg.LinAlgError, RuntimeError) as exc:  # LinAlgError is a ValueError, so it goes first
        log(f"error: {exc}")
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:  # SystemExit2 and json.JSONDecodeError included
        log(f"error: {exc}")
        return EXIT_USAGE
    except Exception:  # a fault, such as a RuntimeWarning raised as an error
        traceback.print_exc()
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
