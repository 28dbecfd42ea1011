"""Run descriptions and FlowRecord persistence.

A run is a flat config (``CONFIG_KEYS``, ``parse_config``), and
``build_from_config`` is the one place that turns it into initial data and a
domain, for ``stimcf flow`` and ``load_record`` alike.

A record is a directory of payloads and a manifest.  The payloads are
``u.f64`` (the limit u), ``tail.f64`` (the tail rungs above it),
``sweep.json`` (each rung's eps, trace rows and sup-norm delta, and the
gradient-growth shares), ``jumps.csv`` and, for a run made from a grid
file, its copy ``grid_data``.  Binary arrays are little-endian float64 with
a one-line header.  The manifest is flat key/value text holding only the
run's ``config.*``, the rebuilt domain's ``domain.*`` checks and each
payload's ``sha256.*``: every run value comes from a hashed payload, so an
edited manifest loads the flow's record or is refused.  Identical
configurations reproduce bit-identical manifests (no timestamps).
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
                try:
                    cfg[k] = CONFIG_KEYS[k](v)
                except ValueError:
                    raise ValueError(f"line {ln}: key '{k}' needs a "
                                     f"{CONFIG_KEYS[k].__name__}, not '{v}'")
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
    copied into the record as ``grid_data``.  The payloads are those of the
    module docstring; the manifest holds the config, the domain checks and
    the payloads' hashes, and no run value.  A ``grid_data`` that this run
    does not write is removed, so a record written over another run's holds
    only its own payloads."""
    os.makedirs(outdir, exist_ok=True)
    written = ["u.f64", "tail.f64", "sweep.json", "jumps.csv"]
    copy = os.path.join(outdir, GRID_COPY)
    if config and "grid_file" in config:
        # a run into its own record reads its grid file from this copy
        if not (os.path.exists(copy)
                and os.path.samefile(config["grid_file"], copy)):
            shutil.copyfile(config["grid_file"], copy)
        written.append(GRID_COPY)
    elif os.path.exists(copy):
        os.remove(copy)
    write_array(os.path.join(outdir, "u.f64"), rec.solution.interior)
    # the tail rungs but the final one, which is u.f64; their eps are those
    # of the last sweep.json rows
    write_array(os.path.join(outdir, "tail.f64"),
                [x for _, x in rec.tail[:-1]])
    sweep_rows = []
    for i, eps in enumerate(rec.epsilons):
        row = {"eps": eps,
               "sup_delta": rec.sup_deltas[i - 1] if i > 0 else float("nan"),
               "trace": [[float(s), int(it), float(rn), bool(ok)]
                         for (s, it, rn, ok) in rec.traces[i]]}
        sweep_rows.append(row)
    with open(os.path.join(outdir, "sweep.json"), "w") as fh:
        json.dump({"rows": sweep_rows,
                   "grad_increase_fraction": rec.grad_increase_fraction},
                  fh, indent=1)
    with open(os.path.join(outdir, "jumps.csv"), "w") as fh:
        # one row per jump, transposed into write_csv's columns
        write_csv(fh, ["t0", "t_lo", "t_hi", "volume", "inner_radius",
                       "outer_radius", "cells"],
                  *zip(*((j.value, j.t_lo, j.t_hi, j.volume, j.inner_radius,
                          j.outer_radius, len(j.cells)) for j in rec.jumps)))
    manifest = {f"config.{k}": v for k, v in (config or {}).items()}
    manifest.update(_domain_keys(rec.domain))
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
    """The FlowRecord that a flow persisted into `record_dir`.

    The domain is rebuilt from the record's config by ``build_from_config``,
    reading the record's hashed copy of a grid file rather than the original
    path, then checked against the manifest's ``domain.*`` entries.  Every
    payload read here must have its hash in the manifest, or the record is
    refused by the file's name, and a ``sweep.json`` that lacks an entry
    read here is refused by the entry's name.  The run comes from the
    hashed payloads alone: the epsilons, traces and deltas from the
    ``sweep.json`` rows, the tail rungs from ``tail.f64`` and ``u.f64``,
    and the solution's s, iterations, residual and converged flag from the
    last trace row of the last rung; bc is L - 2, the sweep's one boundary
    value.  The Newton floor is not persisted, so the reloaded solution's
    is NaN.  These go to the ``FlowRecord`` constructor that the sweep
    uses, so the record is the flow's, not a reconstruction; only the
    a-priori reports and a K != 0 IMCF reference are not kept
    (``apriori`` is [], ``imcf`` None).
    """
    from . import solver as sv
    from .weak_flow import FlowRecord, TAIL_RUNGS

    man = read_manifest(record_dir)
    cfg = {k[len("config."):]: v for k, v in man.items()
           if k.startswith("config.")}
    if not cfg:
        raise RecordError("record has no config; cannot rebuild its domain")
    for name in ["u.f64", "tail.f64", "sweep.json"] + (
            [GRID_COPY] if "grid_file" in cfg else []):
        if f"sha256.{name}" not in man:
            raise RecordError(f"record manifest has no hash of {name}")
    verify_hashes(record_dir)
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
    u = read_array(os.path.join(record_dir, "u.f64"))
    if u.shape != (dom.n_unknowns,):
        raise RecordError(f"u.f64 holds {u.size} values; the rebuilt domain "
                          f"has {dom.n_unknowns} unknowns")
    # the same node count with other radii would otherwise load silently
    for k, v in _domain_keys(dom).items():
        if man.get(k) != v:
            raise RecordError(f"record {k} = {man.get(k)} differs from the "
                              f"rebuilt domain's {v}")
    tail = [*read_array(os.path.join(record_dir, "tail.f64"))
            .reshape(-1, dom.n_unknowns), u]
    with open(os.path.join(record_dir, "sweep.json")) as fh:
        sweep = json.load(fh)
    try:
        rows = sweep["rows"]
        epsilons = [row["eps"] for row in rows]
        traces = [[tuple(r) for r in row["trace"]] for row in rows]
        sup_deltas = [row["sup_delta"] for row in rows[1:]]
        grad_increase_fraction = sweep["grad_increase_fraction"]
    except KeyError as exc:
        raise RecordError(f"sweep.json has no entry {exc}") from None
    except TypeError as exc:
        raise RecordError(f"sweep.json is malformed: {exc}") from None
    if len(tail) != min(TAIL_RUNGS, len(rows)):
        raise RecordError(f"sweep.json has {len(rows)} rungs, which do not "
                          f"end in the {len(tail)} rungs of tail.f64")
    if not traces[-1]:
        raise RecordError("sweep.json has no trace row of the final rung")
    s, iterations, residual_norm, converged = traces[-1][-1]
    sol = sv.ScalarSolution(dom, u, epsilons[-1], s, dom.L - 2.0,
                            residual_norm, iterations, converged, float("nan"))
    return FlowRecord(dom, sol, None, epsilons, traces, sup_deltas,
                      grad_increase_fraction, [],
                      list(zip(epsilons[-len(tail):], tail)))
