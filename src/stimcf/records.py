"""Run descriptions and FlowRecord persistence.

A run is a flat config (``CONFIG_KEYS``, ``parse_config``), and
``build_from_config`` is the one place that turns it into initial data and a
domain, for ``stimcf flow`` and ``load_record`` alike.

A record is a directory with manifest, arrays and CSV reports, and a copy
of the grid file (``grid_data``) of a run made from one.  The manifest is
flat key/value text; binary arrays are little-endian float64 with a
one-line header, and every payload's SHA-256 goes into the manifest so
reloads detect corruption.  Identical configurations reproduce bit-identical
manifests (no timestamps inside the hashed section).
"""

import hashlib
import json
import os
import shutil

import numpy as np

from . import initial_data as idm
from .domain import build_domain, DomainError

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


def preset_data(preset, mass=None, n=None):
    """The preset initial data, with its mass and n when given."""
    params = {k: v for k, v in (("m", mass), ("n", n)) if v is not None}
    return idm.build_preset(preset, **params)


def build_from_config(cfg):
    """(initial data, domain) of a typed config, with the defaults of
    ``stimcf flow`` for every key it leaves out."""
    if "grid_file" in cfg:
        ids = idm.load_grid_data(cfg["grid_file"])
    else:
        ids = preset_data(cfg.get("preset", "flat"), cfg.get("mass"),
                          cfg.get("n"))
    e0 = {"radius": cfg.get("e0_radius_chart", 1.0)}
    if "e0_center_chart" in cfg:
        e0["center"] = [float(x) for x in cfg["e0_center_chart"].split()]
    dom = build_domain(ids, e0, L=cfg.get("level_L_flowtime", 6.0),
                       alpha=cfg.get("alpha_exponent", min(1.9, ids.n - 0.1)),
                       h=cfg.get("grid_h_chart", 1.0 / 64),
                       mode=cfg.get("mode", "auto"))
    return ids, dom


GRID_COPY = "grid_data"      # a record's copy of the run's grid file


class RecordError(RuntimeError):
    pass


def _sha(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_array(path, arr):
    arr = np.asarray(arr, float)
    with open(path, "wb") as fh:
        head = f"stimcf-array v1 shape {' '.join(map(str, arr.shape))}\n"
        fh.write(head.encode())
        fh.write(arr.astype("<f8").tobytes(order="C"))


def read_array(path):
    with open(path, "rb") as fh:
        head = fh.readline().decode().strip().split()
        if head[:2] != ["stimcf-array", "v1"]:
            raise RecordError(f"bad array header in {path}")
        shape = tuple(int(s) for s in head[3:])
        data = np.frombuffer(fh.read(), dtype="<f8")
    return data.reshape(shape)


def write_csv(fh, names, *columns):
    """Write a header of `names` and one row per index of `columns`, every
    value at 17 significant digits, to the open text file `fh`."""
    fh.write(",".join(names) + "\n")
    for row in zip(*columns):
        fh.write(",".join("%.17g" % v for v in row) + "\n")


def _domain_keys(dom):
    """The manifest's ``domain.*`` entries, checked when the record loads."""
    values = {"h": dom.h, "L": dom.L, "alpha": dom.alpha, "R0": dom.R0,
              "grade_radius": dom.r_g}
    return {"domain.kind": dom.kind,
            **{f"domain.{k}": "%.17g" % v for k, v in values.items()}}


def save_record(rec, outdir, config=None):
    """Persist a FlowRecord.  `config` is the flat config dict used to build
    the run (needed to rebuild the domain on load); a grid file it names is
    copied into the record as ``grid_data``.  The manifest hashes the files
    this run writes, and an optional payload that it does not write is
    removed, so a record written over another run's holds only its own."""
    os.makedirs(outdir, exist_ok=True)
    dom = rec.domain
    written = ["u.f64", "sweep.json", "jumps.csv"]
    if config and "grid_file" in config:
        copy = os.path.join(outdir, GRID_COPY)
        # a run into its own record reads its grid file from this copy
        if not (os.path.exists(copy)
                and os.path.samefile(config["grid_file"], copy)):
            shutil.copyfile(config["grid_file"], copy)
        written.append(GRID_COPY)
    write_array(os.path.join(outdir, "u.f64"), rec.solution.interior)
    # when K = 0 the IMCF reference is the flow solution (load_record
    # restores it from u.f64)
    if rec.imcf is not None and rec.imcf is not rec.solution:
        write_array(os.path.join(outdir, "u_imcf.f64"), rec.imcf.interior)
        written.append("u_imcf.f64")
    # the payloads only some runs write, left by another run
    for name in {"u_imcf.f64", GRID_COPY} - set(written):
        p = os.path.join(outdir, name)
        if os.path.exists(p):
            os.remove(p)
    sweep_rows = []
    for i, eps in enumerate(rec.epsilons):
        row = {"eps": eps,
               "sup_delta": rec.sup_deltas[i - 1] if i > 0 else float("nan"),
               "trace": [[float(s), int(it), float(rn), bool(ok)]
                         for (s, it, rn, ok) in rec.traces[i]]}
        sweep_rows.append(row)
    with open(os.path.join(outdir, "sweep.json"), "w") as fh:
        json.dump({"rows": sweep_rows, "cauchy_ok": bool(rec.cauchy_ok),
                   "grad_increase_fraction": rec.grad_increase_fraction,
                   "suggestion": rec.suggestion}, fh, indent=1)
    with open(os.path.join(outdir, "jumps.csv"), "w") as fh:
        # one row per jump, transposed into write_csv's columns
        write_csv(fh, ["t0", "t_lo", "t_hi", "volume", "inner_radius",
                       "outer_radius", "cells"],
                  *zip(*((j.value, j.t_lo, j.t_hi, j.volume, j.inner_radius,
                          j.outer_radius, len(j.cells)) for j in rec.jumps)))
    manifest = {}
    if config:
        for k, v in sorted(config.items()):
            manifest[f"config.{k}"] = v
    manifest["variant"] = rec.variant
    manifest["eps_schedule"] = " ".join("%.17g" % e for e in rec.epsilons)
    manifest["eps_last"] = "%.17g" % rec.eps_last
    manifest["bc"] = "%.17g" % rec.solution.bc
    manifest["residual_norm"] = "%.17g" % rec.solution.residual_norm
    manifest.update(_domain_keys(dom))
    for name in written:
        manifest[f"sha256.{name}"] = _sha(os.path.join(outdir, name))
    with open(os.path.join(outdir, "manifest.txt"), "w") as fh:
        for k in sorted(manifest):
            fh.write(f"{k} = {manifest[k]}\n")
    return outdir


def read_manifest(record_dir):
    path = os.path.join(record_dir, "manifest.txt")
    if not os.path.exists(path):
        raise RecordError(f"no manifest in {record_dir}")
    out = {}
    with open(path) as fh:
        for line in fh:
            if "=" in line:
                k, _, v = line.partition("=")
                out[k.strip()] = v.strip()
    return out


def verify_hashes(record_dir):
    man = read_manifest(record_dir)
    bad = []
    for k, v in man.items():
        if k.startswith("sha256."):
            name = k[len("sha256."):]
            p = os.path.join(record_dir, name)
            if not os.path.exists(p) or _sha(p) != v:
                bad.append(name)
    if bad:
        raise RecordError(f"hash mismatch in {record_dir}: {', '.join(bad)}")
    return True


def load_record(record_dir):
    """Rebuild a FlowRecord from a persisted directory.

    The domain is rebuilt from the record's config by ``build_from_config``,
    reading the record's hashed copy of a grid file rather than the original
    path, then checked against the manifest's ``domain.*`` entries.
    Solver state (u, IMCF reference) is restored exactly; sweep-tail fields
    are reconstructed from the final solution alone, which is enough for the
    verification suites.
    """
    from . import solver as sv
    from .weak_flow import FlowRecord

    verify_hashes(record_dir)
    man = read_manifest(record_dir)
    cfg = {k[len("config."):]: v for k, v in man.items()
           if k.startswith("config.")}
    if not cfg:
        raise RecordError("record has no config; cannot rebuild its domain")
    if "grid_file" in cfg:
        cfg["grid_file"] = os.path.join(record_dir, GRID_COPY)
    unknown = sorted(set(cfg) - set(CONFIG_KEYS))
    if unknown:
        raise RecordError(f"record config has unknown key '{unknown[0]}'")
    try:
        _, dom = build_from_config({k: CONFIG_KEYS[k](v)
                                    for k, v in cfg.items()})
    except (ValueError, DomainError, idm.InitialDataError) as exc:
        raise RecordError(f"cannot rebuild the record's domain: {exc}")
    rec = FlowRecord(dom, man.get("variant", "stimcf"))
    u = read_array(os.path.join(record_dir, "u.f64"))
    if u.shape != (dom.n_unknowns,):
        raise RecordError(f"u.f64 holds {u.size} values; the rebuilt domain "
                          f"has {dom.n_unknowns} unknowns")
    # the same node count with other radii would otherwise load silently
    for k, v in _domain_keys(dom).items():
        if man.get(k) != v:
            raise RecordError(f"record {k} = {man.get(k)} differs from the "
                              f"rebuilt domain's {v}")
    rec.epsilons = [float(x) for x in man["eps_schedule"].split()]
    bc = float(man["bc"])
    eps_last = float(man["eps_last"])
    sol = sv.ScalarSolution(dom, u, eps_last, 1.0, bc,
                            float(man["residual_norm"]), 0, True, 0.0)
    rec.solution = sol
    rec.tail = [(eps_last, u.copy(), dom.gradient(u, bc))]
    p_im = os.path.join(record_dir, "u_imcf.f64")
    if os.path.exists(p_im):
        rec.imcf = sv.ScalarSolution(dom, read_array(p_im), eps_last, 0.0,
                                     bc, 0.0, 0, True, 0.0)
    elif dom.k_is_zero():
        rec.imcf = sol
    with open(os.path.join(record_dir, "sweep.json")) as fh:
        sweep = json.load(fh)
    rec.cauchy_ok = sweep["cauchy_ok"]
    rec.grad_increase_fraction = sweep.get("grad_increase_fraction", [])
    rec.sup_deltas = [row["sup_delta"] for row in sweep["rows"][1:]]
    return rec
