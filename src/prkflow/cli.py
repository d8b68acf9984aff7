"""Command-line entry points.

Exit codes: 0 on success, 2 when a requested check or run fails, 1 on usage
errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

from . import harness, stability, tableau as tab
from .harness import (preset, PRESET_NAMES, build_grid, build_initial,
                      scheme_params, snapshot_run, config_from_json, config_to_json,
                      emit_field_vtk, emit_trace_csv, write_csv)
from .integrators import SCHEMES


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)


def _load_tableau(path):
    with open(path) as f:
        return tab.tableau_from_dict(json.load(f))


def cmd_check_tableau(args):
    t = _load_tableau(args.tableau)
    ok = True
    violations = tab.validate(t)
    if violations:
        ok = False
        print("structural violations:")
        for name, idx, res in violations:
            print(f"  {name} at {idx}: residual {res:.3e}")
    else:
        print(f"structure: OK (s = {t.s})")
    if args.order:
        residuals = tab.order_condition_residuals(t, args.order)
        worst = max(abs(r) for _, r in residuals)
        passed = tab.satisfies_order(t, args.order)
        ok = ok and passed
        print(f"order conditions through order {args.order}: "
              f"{'OK' if passed else 'FAILED'} (worst residual {worst:.3e})")
        for name, r in residuals:
            print(f"  {name}: {r:+.3e}")
    if args.certify:
        rep = tab.certify(t)
        print(f"b nonnegative: {rep.b_nonnegative}")
        print(f"Q eigenvalues: {rep.q_eigenvalues}")
        print(f"R eigenvalues: {rep.r_eigenvalues}")
        print(f"structure-preservation certificate: "
              f"{'OK' if rep.satisfies_theorem else 'FAILED'}")
        ok = ok and rep.satisfies_theorem
    return 0 if ok else 2


def cmd_stability_region(args):
    t = _load_tableau(args.tableau)
    re0, re1, im0, im1 = (float(v) for v in args.window.split(","))
    nx, ny = (int(v) for v in args.res.split(","))
    window = stability.RegionWindow(re0, re1, im0, im1, nx, ny)
    sample = stability.sample_region(t, window, alpha=args.alpha)
    re, im = window.grid()
    rows = []
    for i in range(nx):
        for j in range(ny):
            rows.append((re[i], im[j], int(sample.mask[i, j]), sample.max_abs_r[i, j]))
    write_csv(args.out, ("re", "im", "inside", "max_abs_R"), rows)
    n_in = int(sample.mask.sum())
    print(f"wrote {args.out}: {n_in}/{nx * ny} points inside")
    return 0 if n_in > 0 else 2


def _config_from_args(args):
    if args.config:
        with open(args.config) as f:
            cfg = config_from_json(f.read())
    else:
        cfg = preset(args.preset)
    overrides = {name: getattr(args, name) for name in ("k", "tau", "T", "seed")
                 if getattr(args, name) is not None}
    return dataclasses.replace(cfg, **overrides)


def cmd_run(args):
    cfg = _config_from_args(args)
    grid = build_grid(cfg)
    initial = build_initial(cfg, grid)
    scheme = args.scheme or cfg.scheme
    p = scheme_params(cfg, scheme=scheme)
    final, snaps, trace = snapshot_run(initial, p, cfg.T, cfg.snapshot_times)
    os.makedirs(cfg.output_dir, exist_ok=True)
    snapshots = []
    for t in sorted(snaps):
        path = os.path.join(cfg.output_dir, f"{cfg.preset}_{scheme}_t{t:g}.vtk")
        emit_field_vtk(snaps[t][0], grid, path)
        snapshots.append(path)
    trace_path = os.path.join(cfg.output_dir, f"{cfg.preset}_{scheme}_trace.csv")
    emit_trace_csv(trace, trace_path)
    final_path = os.path.join(cfg.output_dir, f"{cfg.preset}_{scheme}_final.vtk")
    emit_field_vtk(final, grid, final_path)
    iters = sum(r.solver_iters_total for r in trace.records)
    fallbacks = sum(r.fallback_solves for r in trace.records)
    print(f"steps completed: {len(trace)}; solver iterations: {iters}; "
          f"fallback solves: {fallbacks}; trace: {trace_path}; final: {final_path}")
    for s in snapshots:
        print(f"snapshot: {s}")
    if trace.failure is not None:
        t_fail, exc = trace.failure
        print(f"run aborted at t = {t_fail:g}: {exc}")
        return 2
    return 0


def _parse_schemes(text):
    # the sweep checks every name with the SchemeParams it builds
    return tuple(s.strip() for s in text.split(",") if s.strip())


def cmd_convergence(args):
    cfg = _config_from_args(args)
    schemes = _parse_schemes(args.schemes)
    rows = harness.convergence_driver(cfg, schemes, tau0=args.tau0,
                                      n_halvings=args.halvings, out_csv=args.out)
    print(f"{'scheme':>8} {'tau':>12} {'l2_error':>12} {'order':>7}")
    any_nan = False
    for scheme, tau, err, order in rows:
        any_nan = any_nan or math.isnan(err)
        print(f"{scheme:>8} {tau:12.4e} {err:12.4e} {order:7.3f}")
    if any_nan:
        print("warning: some cells failed (NAN)")
    return 0


def cmd_robustness(args):
    cfg = _config_from_args(args)
    schemes = _parse_schemes(args.schemes)
    taus = [float(v) for v in args.taus.split(",")]
    checkpoints = [float(v) for v in args.checkpoints.split(",")]
    table = harness.robustness_driver(cfg, schemes, taus, checkpoints, out_csv=args.out)
    for (scheme, tau), cells in table.items():
        row = "  ".join(f"{T:g}:{val}" for T, val in cells)
        print(f"{scheme} tau={tau:g}: {row}")
    return 0


def cmd_work_precision(args):
    cfg = _config_from_args(args)
    schemes = _parse_schemes(args.schemes)
    taus = [float(v) for v in args.taus.split(",")]
    times = [float(v) for v in args.times.split(",")]
    out = harness.work_precision_driver(cfg, schemes, taus, times, out_dir=args.out_dir)
    for T, rows in out.items():
        print(f"T = {T:g}:")
        for scheme, tau, wall, err in rows:
            print(f"  {scheme:>8} tau={tau:10.3e} wall={wall:8.3f}s err={err:.4e}")
    return 0


def cmd_dump_config(args):
    cfg = _config_from_args(args)
    print(config_to_json(cfg))
    return 0


def build_parser():
    parser = _Parser(prog="prkflow",
                     description="Structure-preserving integrators for unit-vector gradient flows")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-tableau", help="validate a tableau JSON file")
    p.add_argument("tableau")
    p.add_argument("--order", type=int, choices=(1, 2, 3), default=0)
    p.add_argument("--certify", action="store_true")
    p.set_defaults(func=cmd_check_tableau)

    p = sub.add_parser("stability-region", help="sample the explicit-part stability region")
    p.add_argument("tableau")
    p.add_argument("--window", default="-6,2,-4,4",
                   help="re0,re1,im0,im1 (use --window=-6,2,-4,4 for negatives)")
    p.add_argument("--res", default="400,400")
    p.add_argument("--alpha", type=float, default=math.pi / 2)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_stability_region)

    def add_config_options(p):
        p.add_argument("--config", help="full JSON configuration file")
        p.add_argument("--preset", choices=PRESET_NAMES)
        p.add_argument("--k", type=int)
        p.add_argument("--tau", type=float)
        p.add_argument("--T", type=float, dest="T")
        p.add_argument("--seed", type=int)
        p.set_defaults(needs_config=True)

    p = sub.add_parser("run", help="integrate a configured experiment")
    add_config_options(p)
    p.add_argument("--scheme", choices=SCHEMES)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("convergence", help="dyadic temporal convergence table")
    add_config_options(p)
    p.add_argument("--schemes", default="prk,prk_alt,sip1,lm2")
    p.add_argument("--tau0", type=float)
    p.add_argument("--halvings", type=int, default=5)
    p.add_argument("--out")
    p.set_defaults(func=cmd_convergence)

    p = sub.add_parser("robustness", help="errors/NAN table at checkpoint times")
    add_config_options(p)
    p.add_argument("--schemes", default="prk,prk_alt,lm2")
    p.add_argument("--taus", default="1e-3,2e-4")
    p.add_argument("--checkpoints", default="0.002,0.004,0.006,0.008,0.12,0.2")
    p.add_argument("--out")
    p.set_defaults(func=cmd_robustness)

    p = sub.add_parser("work-precision", help="timed accuracy sweeps")
    add_config_options(p)
    p.add_argument("--schemes", default="prk,sip1")
    p.add_argument("--taus", default="1e-3,5e-4,2.5e-4")
    p.add_argument("--times", default="0.02,0.08,0.2")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_work_precision)

    p = sub.add_parser("dump-config", help="print a preset's full configuration")
    add_config_options(p)
    p.set_defaults(func=cmd_dump_config)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "needs_config", False) and args.preset is None and args.config is None:
        parser.error("either --preset or --config is required")
    try:
        code = args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
