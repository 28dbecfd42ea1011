"""Command line: flow runs, verification of persisted records, plot data and
direct oracle queries.

Config files are flat ``key = value`` text with units spelled out in key
names (chart lengths, flow times, inverse lengths).  Exit codes: 0 success,
2 configuration error, 3 solver non-convergence, 4 invariant violation.
"""

import argparse
import os
import sys

import numpy as np

from . import initial_data as idm
from . import radial_oracle as orc
from . import weak_flow as wf
from . import variational as vr
from . import asymptotics as asym
from . import records
from .domain import build_domain, DomainError, LaneError

CONFIG_KEYS = {
    "preset": str,
    "grid_file": str,
    "mass": float,
    "n": int,
    "e0_radius_chart": float,
    "e0_center_chart": str,
    "level_L_flowtime": float,
    "alpha_exponent": float,
    "grid_h_chart": float,
    "mode": str,
    "eps_last_per_length": float,
    "eps0_per_length": float,
    "variant": str,
}


def parse_config(path):
    cfg = {}
    try:
        with open(path) as fh:
            for ln, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"line {ln}: expected key = value")
                k, _, v = line.partition("=")
                k = k.strip()
                v = v.strip()
                if k not in CONFIG_KEYS:
                    raise ValueError(f"line {ln}: unknown key '{k}'")
                cfg[k] = CONFIG_KEYS[k](v)
    except OSError as exc:
        raise ValueError(str(exc))
    return cfg


def build_from_config(cfg):
    if "grid_file" in cfg:
        ids = idm.load_grid_data(cfg["grid_file"])
    else:
        preset = cfg.get("preset", "flat")
        params = {}
        if "mass" in cfg:
            params["m"] = cfg["mass"]
        if "n" in cfg:
            params["n"] = cfg["n"]
        ids = idm.build_preset(preset, **params)
    e0 = {"radius": cfg.get("e0_radius_chart", 1.0)}
    if "e0_center_chart" in cfg:
        e0["center"] = [float(x) for x in cfg["e0_center_chart"].split()]
    dom = build_domain(ids, e0, L=cfg.get("level_L_flowtime", 6.0),
                       alpha=cfg.get("alpha_exponent", min(1.9, ids.n - 0.1)),
                       h=cfg.get("grid_h_chart", 1.0 / 64),
                       mode=cfg.get("mode", "auto"))
    return ids, dom


def cmd_flow(args):
    try:
        cfg = parse_config(args.config)
        ids, dom = build_from_config(cfg)
        ids.validate()
    except (ValueError, DomainError, idm.InitialDataError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        rec = wf.epsilon_sweep(
            dom,
            eps_last=cfg.get("eps_last_per_length", 1e-3),
            eps0=cfg.get("eps0_per_length"),
            variant=cfg.get("variant", "stimcf"))
    except wf.FlowConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except wf.FlowError as exc:
        print(f"solver non-convergence: {exc}", file=sys.stderr)
        return 3
    wf.detect_jumps(rec)
    normals = wf.reconstruct_normal_field(rec)
    status = 0
    hard = []
    for rep in rec.apriori:
        hard += rep.violations
    ext = wf.interior_extrema(rec)
    if not ext["ok"]:
        hard.append("strict interior extrema beyond tolerance")
    if hard:
        status = 4
    records.save_record(rec, args.out, config=cfg)
    with open(os.path.join(args.out, "report.txt"), "w") as fh:
        fh.write(f"status {status}\n")
        fh.write(f"cauchy_ok {rec.cauchy_ok}\n")
        fh.write(f"normals_cauchy {normals.cauchy_ok}\n")
        for j in rec.jumps:
            hr = wf.verify_horizon(rec, j)
            fh.write(f"jump t0={j.value:.17g} outer_radius="
                     f"{j.outer_radius:.17g} max_rel_residual="
                     f"{hr.max_rel_residual:.17g} band_excess="
                     f"{wf.jump_band_excess(rec, j):.17g}\n")
        for v in hard:
            fh.write(f"violation {v}\n")
    print(f"record written to {args.out} (status {status})")
    return status


CHECKS = ("minimality", "monotone", "blowdown", "horizon")
BLOWDOWN_SCALES = (1.0, 0.5, 0.25, 0.125)


def _blowdown_scales(rec):
    """The leading BLOWDOWN_SCALES whose pulled-back annulus the record's
    domain still covers."""
    scales = []
    for lam in BLOWDOWN_SCALES:
        try:
            asym.blowdown_compare(rec, [lam], n_samples=8)
        except wf.FlowError:
            break
        scales.append(lam)
    return scales


def cmd_verify(args):
    checks = args.check.split(",") if args.check else list(CHECKS)
    unknown = [ck for ck in checks if ck not in CHECKS]
    if unknown:
        print(f"unknown check '{unknown[0]}'", file=sys.stderr)
        return 2
    try:
        rec = records.load_record(args.record)
    except records.RecordError as exc:
        print(f"record error: {exc}", file=sys.stderr)
        return 2
    wf.detect_jumps(rec)
    failures = []
    for ck in checks:
        try:
            if ck == "minimality":
                rep = vr.minimality_test(rec, n_random=30)
                print(f"minimality: {len(rep.rows)} competitors, "
                      f"{'ok' if rep.ok else 'FAIL'}")
                if not rep.ok:
                    failures.append(ck)
            elif ck == "monotone":
                tr = vr.monotone_quantity(rec)
                dq = np.diff(tr["Q"])
                ok = np.all(dq > -1e-8 * np.abs(tr["Q"][:-1]).max())
                print(f"monotone: min dQ = {dq.min():.3e} "
                      f"{'ok' if ok else 'FAIL'}")
                if not ok:
                    failures.append(ck)
                # reported, not gated: a trapped E0 violates the identity
                for j in rec.jumps:
                    ai = vr.area_identity_check(rec, j)
                    print(f"monotone: area identity at t0 = {j.value:.4g}, "
                          f"relative residual {ai['rel_residual']:.3e}")
            elif ck == "blowdown":
                scales = _blowdown_scales(rec)
                if len(scales) < 2:
                    print("blowdown: skipped (domain too small)")
                else:
                    bt = asym.blowdown_compare(rec, scales)
                    ok = bt.nonincreasing() and bt.errors[-1] < 0.1
                    print(f"blowdown: errors {np.round(bt.errors, 5).tolist()} "
                          f"{'ok' if ok else 'FAIL'}")
                    if not ok:
                        failures.append(ck)
            elif ck == "horizon":
                for j in rec.jumps:
                    hr = wf.verify_horizon(rec, j)
                    labels = ", ".join(sorted(hr.labels))
                    print(f"horizon: {hr} labels {labels}")
                    if not hr.passed:
                        failures.append(ck)
                if not rec.jumps:
                    print("horizon: no jumps (vacuous pass)")
        except LaneError:
            print(f"{ck}: skipped (radial lane only)")
    return 4 if failures else 0


def cmd_plotdata(args):
    try:
        rec = records.load_record(args.record)
    except records.RecordError as exc:
        print(f"record error: {exc}", file=sys.stderr)
        return 2
    wf.detect_jumps(rec)
    os.makedirs(args.out, exist_ok=True)
    kind = args.kind
    path = os.path.join(args.out, f"{kind}.csv")
    try:
        if kind == "levelsets":
            lo, hi = rec.valid_time_range()
            ts = np.linspace(lo, hi * 0.95, 60)
            radii = wf.level_radius(rec, ts)
            with open(path, "w") as fh:
                fh.write("t,radius\n")
                for t, r in zip(ts, radii):
                    fh.write("%.17g,%.17g\n" % (t, r))
        elif kind == "Q-trace":
            tr = vr.monotone_quantity(rec)
            with open(path, "w") as fh:
                fh.write("t,Q,dQ_dt,predicted_dQ_dt,area\n")
                for i in range(len(tr["t"])):
                    fh.write("%.17g,%.17g,%.17g,%.17g,%.17g\n" % (
                        tr["t"][i], tr["Q"][i], tr["dQ_dt"][i],
                        tr["predicted"][i], tr["area"][i]))
        elif kind == "blowdown":
            scales = _blowdown_scales(rec)
            if not scales:
                print("domain too small for any blowdown scale", file=sys.stderr)
                return 2
            bt = asym.blowdown_compare(rec, scales)
            with open(path, "w") as fh:
                fh.write("scale,sup_error,normalization,floor\n")
                for i in range(len(bt.scales)):
                    fh.write("%.17g,%.17g,%.17g,%.17g\n" % (
                        bt.scales[i], bt.errors[i], bt.normalizations[i],
                        bt.floor[i]))
        elif kind == "jump-profile":
            with open(path, "w") as fh:
                fh.write("r,u\n")
                for r, u in zip(rec.domain.radii, rec.u):
                    fh.write("%.17g,%.17g\n" % (r, u))
    except LaneError as exc:
        print(f"{kind}: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {path}")
    return 0


def cmd_oracle(args):
    params = {}
    if args.mass is not None:
        params["m"] = args.mass
    if args.n is not None:
        params["n"] = args.n
    try:
        ids = idm.build_preset(args.preset, **params)
        prof = orc.RadialProfile.from_initial_data(ids)
    except (idm.InitialDataError, orc.OracleError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.what == "diagnostics":
            H, P, Phi = prof.sphere_diagnostics(args.radius)
            print("r,H,P,Phi")
            print("%.17g,%.17g,%.17g,%.17g" % (args.radius, H, P, Phi))
        elif args.what == "horizon":
            root = orc.horizon_root(prof)
            print("none" if root is None else "%.17g" % root)
        elif args.what == "trajectory":
            traj = orc.smooth_flow_ode(prof, args.radius, args.t_end)
            if args.out:
                orc.trajectory_csv(traj, args.out)
                print(f"wrote {args.out} (blowup={traj['blowup']})")
            else:
                print("t,r,H,P,Phi,area")
                for i in range(len(traj["t"])):
                    print(",".join("%.17g" % traj[c][i] for c in
                                   ("t", "r", "H", "P", "Phi", "area")))
    except orc.OracleError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(prog="stimcf")
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("flow", help="run a configured flow to a record dir")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_flow)
    p = sub.add_parser("verify", help="re-run verification suites on a record")
    p.add_argument("record")
    p.add_argument("--check", default=None,
                   help="comma list: minimality,monotone,blowdown,horizon")
    p.set_defaults(func=cmd_verify)
    p = sub.add_parser("plotdata", help="emit plain CSV plot data")
    p.add_argument("record")
    p.add_argument("--kind", required=True,
                   choices=["levelsets", "Q-trace", "blowdown", "jump-profile"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plotdata)
    p = sub.add_parser("oracle", help="query the radial reference solutions")
    p.add_argument("what", choices=["diagnostics", "horizon", "trajectory"])
    p.add_argument("--preset", default="flat")
    p.add_argument("--mass", type=float, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--t-end", type=float, default=1.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_oracle)
    args = ap.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
