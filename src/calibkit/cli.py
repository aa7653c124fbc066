"""Command-line front end.

Machine-readable output goes to stdout, logs to stderr.  Exit codes:
0 success / affirmative verdict, 1 negative verdict, 2 usage error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from . import calibrations, eds, grassmann
from .calibrations import CalibrationSpec, build_calibration, build_clifford
from .critical import (
    OrientedPlane,
    is_critical,
    phi_module,
    sff_space,
    subspace_distance,
)
from .exterior import form_from_json, form_to_json, parse_form
from .grassmann import SearchParams, comass_search, critical_spectrum, random_plane

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

DEFAULTS = {
    "trials": 200,
    "tol": 1e-8,
    "seed": 0,
    "grad_tol": 1e-10,
    "max_iters": 5000,
    "cluster_tol": 1e-4,
}


def log(msg):
    print(msg, file=sys.stderr)


def emit(args, payload, text):
    out = json.dumps(payload, sort_keys=True) + "\n" if args.json else text + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)


def add_common(parser, plane=False):
    parser.add_argument("--family", choices=calibrations._FAMILIES)
    parser.add_argument("--m", type=int)
    parser.add_argument("--phase", type=float, default=0.0)
    parser.add_argument("--algebra")
    parser.add_argument("--n", type=int, help="ambient dimension for --form literals")
    parser.add_argument("--form", help="form literal (e.g. 'e123 + e145') or AltForm JSON")
    parser.add_argument("--trials", type=int)
    parser.add_argument("--tol", type=float)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--json", action="store_true", help="JSON on stdout")
    parser.add_argument("--config", help="JSON file of default overrides")
    parser.add_argument("--out", help="write output to a file instead of stdout")
    if plane:
        parser.add_argument("--frame", help="JSON file holding a plane frame")


def settings(args):
    cfg = dict(DEFAULTS)
    if args.config:
        with open(args.config) as fh:
            overrides = json.load(fh)
        if not isinstance(overrides, dict):
            raise SystemExit2("--config must hold a JSON object")
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
    for key in ("trials", "max_iters"):
        if cfg[key] < 1:
            raise SystemExit2(f"{key} must be at least 1")
    return cfg


class SystemExit2(Exception):
    """Usage error, mapped to exit code 2."""


def parse_spec(args):
    if args.family is None:
        raise SystemExit2("--family is required")
    form = None
    if args.family == "custom":
        if not args.form:
            raise SystemExit2("--family custom requires --form")
        text = args.form.strip()
        if text.startswith("{"):
            form = form_from_json(text)
        else:
            form = parse_form(text, n=args.n)
    return CalibrationSpec(
        family=args.family, m=args.m, phase=args.phase, algebra=args.algebra, form=form
    )


def load_plane(args, phi, cfg):
    if getattr(args, "frame", None) and args.seed is not None:
        raise SystemExit2("give exactly one plane source (--frame or --seed)")
    if getattr(args, "frame", None):
        with open(args.frame) as fh:
            obj = json.load(fh)
        plane = OrientedPlane.from_json(obj)
        gram_err = np.max(np.abs(plane.frame.T @ plane.frame - np.eye(plane.p)))
        if gram_err > 1e-10:
            log(f"warning: frame re-orthonormalized (deviation {gram_err:.2e})")
        return plane
    seed = cfg["seed"]
    return random_plane(phi.n, phi.p, grassmann.trial_seed(seed, 0))


def search_params(cfg):
    return SearchParams(
        max_iters=cfg["max_iters"],
        grad_tol=cfg["grad_tol"],
        trials=cfg["trials"],
        master_seed=cfg["seed"],
    )


# -- subcommands -------------------------------------------------------------


def cmd_module(args):
    cfg = settings(args)
    phi = build_calibration(parse_spec(args))
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


def cmd_check(args):
    cfg = settings(args)
    phi = build_calibration(parse_spec(args))
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


def cmd_search(args):
    cfg = settings(args)
    phi = build_calibration(parse_spec(args))
    catalog = critical_spectrum(
        phi, trials=cfg["trials"], params=search_params(cfg), cluster_tol=cfg["cluster_tol"]
    )
    payload = catalog.to_json()
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["trial", "value", "residual"])
            for i, (v, r) in enumerate(zip(catalog.values, catalog.residuals)):
                writer.writerow([i, repr(v), repr(r)])
    clusters = ", ".join(f"{c:.6g} (x{k})" for c, k in catalog.clusters)
    text = f"converged {len(catalog.values)}/{catalog.trials}; |value| clusters: {clusters}"
    emit(args, payload, text)
    return EXIT_OK


def cmd_comass(args):
    cfg = settings(args)
    phi = build_calibration(parse_spec(args))
    try:
        value, plane = comass_search(phi, trials=cfg["trials"], params=search_params(cfg))
    except RuntimeError as exc:
        log(str(exc))
        return EXIT_NUMERICAL
    payload = {"comass": value, "maximizer": plane.to_json()["columns"]}
    emit(args, payload, f"comass estimate = {value:.12g}")
    return EXIT_OK


def cmd_eds(args):
    cfg = settings(args)
    phi = build_calibration(parse_spec(args))
    module = phi_module(phi)
    try:
        _, plane = comass_search(phi, trials=cfg["trials"], params=search_params(cfg), module=module)
    except RuntimeError as exc:
        log(str(exc))
        return EXIT_NUMERICAL
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


def cmd_sff(args):
    cfg = settings(args)
    phi = build_calibration(parse_spec(args))
    plane = load_plane(args, phi, cfg)
    try:
        basis, all_trace_free = sff_space(plane, phi, tol=cfg["tol"])
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


def cmd_spinor(args):
    cfg = settings(args)
    model = build_clifford()
    x = model.s_plus[:, 0]
    norms = {k: model.spinor_square(x, k).norm() for k in range(9)}
    phi4 = model.spinor_square(x, 4)
    forms, span = model.psi_forms(x)
    dist = subspace_distance(span, phi_module(phi4))
    payload = {
        "component_norms": {str(k): norms[k] for k in norms},
        "n_psi_forms": len(forms),
        "span_distance": dist,
        "dim_phi": phi_module(phi4).rank,
    }
    text = (
        f"degree norms: {', '.join(f'{k}:{norms[k]:.6g}' for k in norms)}; "
        f"N = {len(forms)}, span distance = {dist:.3e}"
    )
    emit(args, payload, text)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="calibkit", description="calibrated geometry toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("module", help="dimension and basis of the induced form module")
    add_common(p)
    p.add_argument("--basis", action="store_true", help="include the orthonormal basis")
    p.set_defaults(func=cmd_module)

    p = sub.add_parser("check", help="criticality report for a plane")
    add_common(p, plane=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("search", help="multistart critical-plane search")
    add_common(p)
    p.add_argument("--csv", help="also write (trial, value, residual) rows")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("comass", help="multistart comass estimate")
    add_common(p)
    p.set_defaults(func=cmd_comass)

    p = sub.add_parser("eds", help="Cartan test and Hodge-dual comparison")
    add_common(p)
    p.set_defaults(func=cmd_eds)

    p = sub.add_parser("sff", help="second-fundamental-form solution space")
    add_common(p, plane=True)
    p.set_defaults(func=cmd_sff)

    p = sub.add_parser("spinor", help="squared-spinor component report")
    add_common(p)
    p.set_defaults(func=cmd_spinor)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except SystemExit2 as exc:
        log(f"error: {exc}")
        return EXIT_USAGE
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        log(f"error: {exc}")
        return EXIT_USAGE
    except RuntimeError as exc:
        log(f"error: {exc}")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
