import ast
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stimcf import build_domain, build_preset, cli, records, save_grid_data
from stimcf import initial_data as idm
from stimcf import weak_flow as wf
from stimcf.solver import ScalarSolution


FLAT_CFG = """\
# quickstart: expanding spheres in flat space
preset = flat
n = 2
e0_radius_chart = 1.0
level_L_flowtime = 5.0
alpha_exponent = 1.9
grid_h_chart = 0.015625
eps_last_per_length = 1e-3
"""

ANISO_CFG = """\
preset = paper_anisotropic
e0_radius_chart = 1.0
level_L_flowtime = 6.0
alpha_exponent = 1.9
grid_h_chart = 0.0078125
eps_last_per_length = 1e-4
"""


@pytest.fixture(scope="module")
def flat_record(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    cfg = base / "flat.cfg"
    cfg.write_text(FLAT_CFG)
    out = base / "rec"
    status = cli.main(["flow", "--config", str(cfg), "--out", str(out)])
    assert status == 0
    return out


@pytest.fixture(scope="module")
def aniso_record(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli_aniso")
    cfg = base / "aniso.cfg"
    cfg.write_text(ANISO_CFG)
    out = base / "rec"
    assert cli.main(["flow", "--config", str(cfg), "--out", str(out)]) == 0
    return out


def test_flow_quickstart_exit_zero(flat_record):
    assert (flat_record / "manifest.txt").exists()
    assert (flat_record / "u.f64").exists()
    report = (flat_record / "report.txt").read_text()
    assert "status 0" in report


def test_flow_rejects_bad_alpha(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(FLAT_CFG.replace("alpha_exponent = 1.9",
                                    "alpha_exponent = 2.0"))
    status = cli.main(["flow", "--config", str(cfg),
                       "--out", str(tmp_path / "o")])
    assert status == 2


def _flow_rejects_config(tmp_path, capsys, text, message):
    """`stimcf flow` on config `text` exits 2 with `message`, no record."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    status = cli.main(["flow", "--config", str(cfg),
                       "--out", str(tmp_path / "o")])
    assert status == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_flow_rejects_negative_eps_last(tmp_path, capsys):
    # a sweep that cannot start is a configuration error, not a solver one:
    # a negative eps_last, an eps_last above the top rung and an unknown
    # operator variant
    for old, new in [("eps_last_per_length = 1e-3",
                      "eps_last_per_length = -1e-3"),
                     ("eps_last_per_length = 1e-3",
                      "eps_last_per_length = 0.05"),
                     ("preset = flat", "preset = flat\nvariant = bogus")]:
        _flow_rejects_config(tmp_path, capsys, FLAT_CFG.replace(old, new),
                             "config error")


def test_flow_rejects_unknown_preset(tmp_path, capsys):
    # grid data comes in through grid_file, not through a preset
    _flow_rejects_config(tmp_path, capsys, FLAT_CFG.replace(
        "preset = flat", "preset = custom_grid"), "unknown preset")


def test_flow_rejects_missing_grid_file(tmp_path, capsys):
    _flow_rejects_config(tmp_path, capsys, FLAT_CFG + "grid_file = "
                         f"{tmp_path / 'missing.grid'}\n", "config error")


def test_flow_rejects_unknown_key(tmp_path, capsys):
    for key in ("bogus_key", "grad_tol_factor", "tol_h_rel", "tol_min_rel",
                "probe_times_flowtime", "tol_newton_per_length",
                "tol_sweep_flowtime", "eps0_per_length"):
        _flow_rejects_config(tmp_path, capsys, FLAT_CFG + f"{key} = 1\n",
                             f"unknown key '{key}'")


def test_flow_names_a_value_that_does_not_convert(tmp_path, capsys):
    _flow_rejects_config(tmp_path, capsys, FLAT_CFG.replace(
        "level_L_flowtime = 5.0", "level_L_flowtime = abc"),
        "line 5: key 'level_L_flowtime' needs a float, not 'abc'")


def test_every_config_key_is_read():
    """Each key of records.CONFIG_KEYS appears as a string constant somewhere
    in records.py or cli.py outside the table itself, so no accepted key is
    ignored."""
    trees = [ast.parse(open(mod.__file__).read()) for mod in (records, cli)]
    table = next(node.value for node in ast.walk(trees[0])
                 if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "CONFIG_KEYS"
                         for t in node.targets))
    in_table = {id(node) for node in ast.walk(table)}
    used = {node.value for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and id(node) not in in_table}
    assert sorted(set(records.CONFIG_KEYS) - used) == []


def test_flow_report_reads_the_normals_and_the_jump_band(flat_record,
                                                       aniso_record):
    flat = (flat_record / "report.txt").read_text().splitlines()
    assert "normals_cauchy True" in flat
    assert ("decay g_minus_delta=-inf:ok r_dg=-inf:ok r2_d2g=-inf:ok "
            "K=-inf:ok r_dK=-inf:ok") in flat
    assert not [line for line in flat if line.startswith("jump ")]
    aniso = (aniso_record / "report.txt").read_text().splitlines()
    jumps = [line for line in aniso if line.startswith("jump ")]
    assert len(jumps) == 1
    # a genuine plateau stays below one cell layer
    assert float(jumps[0].split("band_excess=")[1]) < 1.0


def test_report_suggests_a_longer_schedule_only_when_not_cauchy(
        flat_record, tmp_path, monkeypatch):
    assert not [line for line in (flat_record / "report.txt").read_text()
                .splitlines() if line.startswith("suggestion")]
    # at a zero tolerance no sweep is Cauchy; the verdict is not a gate
    monkeypatch.setattr(wf, "TOL_SWEEP", 0.0)
    cfg = tmp_path / "flat.cfg"
    cfg.write_text(FLAT_CFG)
    out = tmp_path / "rec"
    assert cli.main(["flow", "--config", str(cfg), "--out", str(out)]) == 0
    report = (out / "report.txt").read_text().splitlines()
    assert "cauchy_ok False" in report
    assert [line for line in report
            if line.startswith("suggestion sweep not Cauchy at tol 0")]


def test_verify_monotone_reports_the_area_identity(aniso_record, capsys):
    assert cli.main(["verify", str(aniso_record), "--check", "monotone"]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines()
             if "area identity" in line]
    assert len(lines) == 1
    # E0 is trapped, so |dE0+| falls short of |dE0| + the bulk term
    assert float(lines[0].rsplit(" ", 1)[1]) < 0


def test_verify_horizon_prints_the_labels(aniso_record, capsys):
    assert cli.main(["verify", str(aniso_record), "--check", "horizon"]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("horizon:")]
    assert len(lines) == 1
    assert lines[0].endswith("labels MOTS, generalized_horizon")


def test_graded_record_rebuilds_its_radii(aniso_record, tmp_path):
    rec = records.load_record(str(aniso_record))
    dom = build_domain(build_preset("paper_anisotropic"), {"radius": 1.0},
                       L=6.0, alpha=1.9, h=0.0078125)
    assert dom.r_g < dom.r_out
    assert rec.domain.r_g == dom.r_g
    assert np.array_equal(rec.domain.r, dom.r)
    # a manifest whose grade radius differs from the rebuilt one is refused
    edited = tmp_path / "edited"
    shutil.copytree(aniso_record, edited)
    manifest = edited / "manifest.txt"
    key = "domain.grade_radius = %.17g" % dom.r_g
    assert key in manifest.read_text()
    manifest.write_text(manifest.read_text().replace(
        key, "domain.grade_radius = %.17g" % (2 * dom.r_g)))
    with pytest.raises(records.RecordError, match="grade_radius"):
        records.load_record(str(edited))


def test_verify_fresh_record_passes(flat_record):
    status = cli.main(["verify", str(flat_record)])
    assert status == 0


def test_verify_single_section(flat_record):
    status = cli.main(["verify", str(flat_record), "--check", "monotone"])
    assert status == 0


def test_verify_rejects_an_unknown_check_before_running_any(flat_record,
                                                            capsys):
    status = cli.main(["verify", str(flat_record), "--check", "horizon,bogus"])
    out, err = capsys.readouterr()
    assert status == 2
    assert out == ""
    assert "unknown check 'bogus'" in err


def test_verify_detects_truncated_array(flat_record, tmp_path):
    broken = tmp_path / "broken"
    shutil.copytree(flat_record, broken)
    with open(broken / "u.f64", "r+b") as fh:
        fh.seek(64)
        fh.write(b"\x00\x00\x00\x00")
    status = cli.main(["verify", str(broken)])
    assert status == 2


@pytest.mark.parametrize("payload", ["u.f64", "sweep.json"])
def test_payload_without_its_hash_is_refused(flat_record, tmp_path, capsys,
                                             payload):
    # a payload that the reload reads is read only under its hash: with the
    # manifest's entry gone, an edited payload is refused by name, exit 2
    out = tmp_path / "rec"
    shutil.copytree(flat_record, out)
    manifest = out / "manifest.txt"
    manifest.write_text("".join(
        line for line in manifest.read_text().splitlines(True)
        if not line.startswith(f"sha256.{payload} =")))
    if payload == "sweep.json":
        sweep = json.loads((out / payload).read_text())
        sweep["grad_increase_fraction"][0] = 0.5
        (out / payload).write_text(json.dumps(sweep))
    else:
        with open(out / payload, "r+b") as fh:
            fh.seek(64)
            fh.write(b"\x00\x00\x00\x00")
    assert cli.main(["verify", str(out)]) == 2
    assert cli.main(["plotdata", str(out), "--kind", "levelsets",
                     "--out", str(tmp_path / "plot")]) == 2
    err = capsys.readouterr().err
    assert err.count(f"record error: record manifest has no hash of "
                     f"{payload}") == 2


def test_plotdata_kinds(flat_record, tmp_path):
    for kind in ("levelsets", "Q-trace", "blowdown", "jump-profile"):
        out = tmp_path / kind
        status = cli.main(["plotdata", str(flat_record), "--kind", kind,
                           "--out", str(out)])
        assert status == 0
        body = (out / f"{kind}.csv").read_text().strip().splitlines()
        assert len(body) >= 2
    if True:
        status = cli.main(["plotdata", str(flat_record), "--kind",
                           "levelsets", "--out", str(tmp_path / "ls2")])
        assert status == 0


def test_levelsets_match_exponential(flat_record, tmp_path):
    out = tmp_path / "ls"
    cli.main(["plotdata", str(flat_record), "--kind", "levelsets",
              "--out", str(out)])
    rows = (out / "levelsets.csv").read_text().strip().splitlines()[1:]
    data = np.array([[float(x) for x in r.split(",")] for r in rows])
    t, radius = data[:, 0], data[:, 1]
    sel = t > 0.1
    assert np.max(np.abs(radius[sel] - np.exp(t[sel] / 2))
                  / np.exp(t[sel] / 2)) < 0.02


def test_oracle_queries(capsys):
    assert cli.main(["oracle", "horizon", "--preset", "paper_anisotropic"]) == 0
    out = capsys.readouterr().out.strip()
    assert abs(float(out) - 1.1644839) < 1e-5
    assert cli.main(["oracle", "diagnostics", "--preset", "paper_anisotropic",
                     "--radius", "2.0"]) == 0
    out = capsys.readouterr().out.strip().splitlines()[-1]
    H, P = float(out.split(",")[1]), float(out.split(",")[2])
    assert H == pytest.approx(1.0) and P == pytest.approx(-6 / 65)
    assert cli.main(["oracle", "trajectory", "--preset", "flat", "--n", "2",
                     "--radius", "1.0", "--t-end", "0.5"]) == 0


def test_oracle_query_errors_are_config_errors(capsys):
    # a radius outside the profile domain, and a trapped start sphere
    for argv in (["diagnostics", "--preset", "flat", "--radius", "0"],
                 ["trajectory", "--preset", "paper_anisotropic",
                  "--radius", "1.0"]):
        assert cli.main(["oracle", *argv]) == 2
        assert "config error" in capsys.readouterr().err


def test_oracle_trajectory_end_time_edge_cases(tmp_path):
    # in a fresh process with a timeout, so that an integration that never
    # ends fails the test: a non-finite end time is a config error, and a
    # zero one writes the start sphere once
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    path = tmp_path / "traj.csv"

    def trajectory(t_end):
        return subprocess.run(
            [sys.executable, "-m", "stimcf.cli", "oracle", "trajectory",
             "--preset", "flat", "--n", "2", f"--t-end={t_end}",
             "--out", str(path)],
            env=env, capture_output=True, text=True, timeout=60)

    for t_end in ("nan", "inf", "-inf"):
        out = trajectory(t_end)
        assert out.returncode == 2, (t_end, out.stderr)
        assert "config error" in out.stderr and "not finite" in out.stderr
    assert not path.exists()
    out = trajectory("0")
    assert out.returncode == 0, out.stderr
    rows = path.read_text().splitlines()
    assert len(rows) == 2 and rows[1].startswith("0,1,2,")


def test_manifest_determinism(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(FLAT_CFG.replace("level_L_flowtime = 5.0",
                                    "level_L_flowtime = 3.0"))
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert cli.main(["flow", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append((out / "manifest.txt").read_text())
    assert outs[0] == outs[1]


def test_record_roundtrip_preserves_solution(flat_record):
    rec = records.load_record(str(flat_record))
    assert rec.cauchy_ok
    assert rec.solution.interior.ndim == 1


PAYLOADS = ["jumps.csv", "manifest.txt", "report.txt", "sweep.json",
            "tail.f64", "u.f64"]


def test_flat_record_stores_u_once(flat_record):
    # K = 0: the IMCF reference is the flow solution, read from u.f64
    assert sorted(os.listdir(flat_record)) == PAYLOADS
    rec = records.load_record(str(flat_record))
    u = records.read_array(str(flat_record / "u.f64"))
    assert np.array_equal(rec.imcf.interior, u)
    assert cli.main(["verify", str(flat_record)]) == 0


def test_manifest_holds_no_run_value(aniso_record):
    # every run value lives in a hashed payload; the manifest holds the
    # config, the domain checks and the hashes only.  A K != 0 record keeps
    # no IMCF reference, so its reload has none
    assert sorted(os.listdir(aniso_record)) == PAYLOADS
    keys = records.read_manifest(str(aniso_record))
    assert [k for k in keys
            if not k.startswith(("config.", "domain.", "sha256."))] == []
    assert records.load_record(str(aniso_record)).imcf is None


def _grid_file_config(tmp_path):
    """A config over a grid file of flat n = 1 samples that cover the
    domain (|x| < 12), so the interpolated metric is the identity."""
    shape = (33, 33)
    data = tmp_path / "flat2d.grid"
    save_grid_data(data, origin=(-16.0, -16.0), spacing=1.0,
                   g_samples=np.broadcast_to(np.eye(2), shape + (2, 2)),
                   k_samples=np.zeros(shape + (2, 2)))
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(f"grid_file = {data}\ne0_radius_chart = 1.0\n"
                   "level_L_flowtime = 2.2\nalpha_exponent = 0.9\n"
                   "grid_h_chart = 0.25\neps_last_per_length = 1e-2\n")
    return data, cfg


def test_flat_grid_file_samples_decay(tmp_path):
    # interpolated flat samples are the identity up to rounding, and their
    # centred differences are rounding noise (r2_d2g up to 7e-7 on the
    # outer shells), which reads as zero, not as a sup growing like r^2
    data, _ = _grid_file_config(tmp_path)
    rep = idm.load_grid_data(data).validate()
    assert len(rep) == 5
    assert rep == {key: (-np.inf, True) for key in rep}


def test_flow_over_another_record_drops_its_payloads(tmp_path):
    # a preset run written where a grid-file run left its copy of the grid
    # file: the preset record neither keeps nor hashes it
    _, cfg = _grid_file_config(tmp_path)
    out = tmp_path / "rec"
    _grid_record(out, (0.0, 0.0))
    records.save_record(records.load_record(str(out)), str(out),
                        config=records.parse_config(str(cfg)))
    assert "sha256.grid_data" in records.read_manifest(str(out))
    _grid_record(out, (0.0, 0.0))
    assert not (out / "grid_data").exists()
    assert "sha256.grid_data" not in records.read_manifest(str(out))
    assert records.load_record(str(out)).domain.kind == "grid"


@pytest.fixture(scope="module")
def aniso_flow(tmp_path_factory):
    """The ANISO_CFG sweep run in this process, with no detect_jumps call."""
    cfg = tmp_path_factory.mktemp("aniso_flow") / "aniso.cfg"
    cfg.write_text(ANISO_CFG)
    _, dom = records.build_from_config(records.parse_config(str(cfg)))
    return wf.epsilon_sweep(dom, eps_last=1e-4)


def _jump_rows(rec):
    return [(j.value, j.t_lo, j.t_hi, j.volume, j.inner_radius,
             j.outer_radius, j.cells.tolist()) for j in rec.jumps]


def test_a_fresh_sweep_comes_with_its_jumps(aniso_flow):
    # the record measures its jumps when it is built, and a second
    # detect_jumps call measures the same ones
    assert len(aniso_flow.jumps) == 1
    assert (wf.level_radius(aniso_flow, 0.0)
            == aniso_flow.jumps[0].outer_radius)
    rows = _jump_rows(aniso_flow)
    wf.detect_jumps(aniso_flow)
    assert _jump_rows(aniso_flow) == rows


def _solution_rows(rec):
    sol = rec.solution
    return (sol.eps, sol.s, sol.bc, sol.iterations, sol.residual_norm,
            sol.converged)


def test_reloaded_record_is_the_flows(aniso_record, aniso_flow):
    rec = records.load_record(str(aniso_record))
    assert _jump_rows(rec) == _jump_rows(aniso_flow)
    assert rec.epsilons == aniso_flow.epsilons
    # the solution's metadata is the flow's, but for the floor, which the
    # record does not keep
    assert _solution_rows(rec) == _solution_rows(aniso_flow)
    assert np.isnan(rec.solution.floor)
    assert rec.traces == aniso_flow.traces
    assert len(rec.tail) == len(aniso_flow.tail) == wf.TAIL_RUNGS
    for (eps, x), (eps_f, x_f) in zip(rec.tail, aniso_flow.tail):
        assert eps == eps_f
        assert x.tobytes() == x_f.tobytes()
    assert (wf.reconstruct_normal_field(rec).cauchy_ok
            == wf.reconstruct_normal_field(aniso_flow).cauchy_ok)
    assert (rec.cauchy_ok, rec.suggestion) == (aniso_flow.cauchy_ok,
                                               aniso_flow.suggestion)
    assert rec.sup_deltas == aniso_flow.sup_deltas
    assert rec.grad_increase_fraction == aniso_flow.grad_increase_fraction


def test_reloaded_record_saves_the_same_record(aniso_record, tmp_path):
    # what a reloaded record writes loads again, under the same manifest
    cfg = tmp_path / "aniso.cfg"
    cfg.write_text(ANISO_CFG)
    out = tmp_path / "again"
    records.save_record(records.load_record(str(aniso_record)), str(out),
                        config=records.parse_config(str(cfg)))
    assert ((out / "manifest.txt").read_text()
            == (aniso_record / "manifest.txt").read_text())
    back = records.load_record(str(out))
    assert np.array_equal(back.u, records.load_record(str(aniso_record)).u)


@pytest.mark.parametrize("entry", ["eps_schedule", "bc", "variant"])
def test_run_values_in_the_manifest_are_not_read(aniso_record, aniso_flow,
                                                 tmp_path, entry):
    # a cut eps schedule, another bc or another operator variant written
    # into the unhashed manifest leaves the reload the flow's record, which
    # saves the manifest that the flow wrote
    value = {"eps_schedule": " ".join("%.17g" % e
                                      for e in aniso_flow.epsilons[-2:]),
             "bc": "3", "variant": "frauendiener"}[entry]
    out = tmp_path / "rec"
    shutil.copytree(aniso_record, out)
    manifest = out / "manifest.txt"
    manifest.write_text("".join(
        line for line in manifest.read_text().splitlines(True)
        if not line.startswith(f"{entry} =")) + f"{entry} = {value}\n")
    rec = records.load_record(str(out))
    assert len(rec.epsilons) == 10 and rec.epsilons == aniso_flow.epsilons
    assert ([eps for eps, _ in rec.tail]
            == [eps for eps, _ in aniso_flow.tail])
    assert len(rec.tail) == wf.TAIL_RUNGS
    assert _solution_rows(rec) == _solution_rows(aniso_flow)
    cfg = tmp_path / "aniso.cfg"
    cfg.write_text(ANISO_CFG)
    records.save_record(rec, str(tmp_path / "again"),
                        config=records.parse_config(str(cfg)))
    assert ((tmp_path / "again" / "manifest.txt").read_text()
            == (aniso_record / "manifest.txt").read_text())


def _write_hashed_sweep(out, sweep):
    """Write `sweep` as the record's sweep.json, with its hash updated."""
    (out / "sweep.json").write_text(json.dumps(sweep))
    manifest = out / "manifest.txt"
    manifest.write_text("".join(
        line if not line.startswith("sha256.sweep.json =")
        else f"sha256.sweep.json = {records._sha(out / 'sweep.json')}\n"
        for line in manifest.read_text().splitlines(True)))


@pytest.mark.parametrize("key", ["rows", "eps", "trace", "sup_delta",
                                 "grad_increase_fraction", None])
def test_sweep_json_without_an_entry_is_a_record_error(flat_record, tmp_path,
                                                       capsys, key):
    # a hashed sweep.json that lacks an entry the reload reads, or holds a
    # null trace, is refused by name (exit 2), not with a traceback
    out = tmp_path / "rec"
    shutil.copytree(flat_record, out)
    sweep = json.loads((out / "sweep.json").read_text())
    last = sweep["rows"][-1]
    if key is None:
        last["trace"] = None
    else:
        del (sweep if key in sweep else last)[key]
    _write_hashed_sweep(out, sweep)
    assert cli.main(["verify", str(out)]) == 2
    message = ("sweep.json is malformed" if key is None
               else f"sweep.json has no entry '{key}'")
    assert f"record error: {message}" in capsys.readouterr().err


def test_verify_prints_the_reports_normals_line(aniso_record, capsys):
    # the reloaded record's normal field is the flow's, so stimcf verify
    # prints the normals_cauchy line of report.txt
    assert cli.main(["verify", str(aniso_record), "--check", "monotone"]) == 0
    printed = [line for line in capsys.readouterr().out.splitlines()
               if line.startswith("normals_cauchy")]
    report = [line for line in (aniso_record / "report.txt").read_text()
              .splitlines() if line.startswith("normals_cauchy")]
    assert len(report) == 1 and printed == report


@pytest.mark.parametrize("edit, message", [
    ("two_rungs", "sweep.json has 2 rungs"),
    ("no_final_trace", "sweep.json has no trace row")],
    ids=["two_rungs", "no_final_trace"])
def test_sweep_rows_that_miss_tail_rungs_are_refused(aniso_record, tmp_path,
                                                     edit, message):
    # a sweep.json cut to two rungs and hashed again no longer ends in the
    # four rungs of the tail, and one without the final rung's trace holds
    # no solution metadata: the record is refused, not cut to fit
    out = tmp_path / "rec"
    shutil.copytree(aniso_record, out)
    sweep = json.loads((out / "sweep.json").read_text())
    if edit == "two_rungs":
        sweep["rows"] = sweep["rows"][-2:]
    else:
        sweep["rows"][-1]["trace"] = []
    _write_hashed_sweep(out, sweep)
    with pytest.raises(records.RecordError, match=message):
        records.load_record(str(out))


@pytest.mark.parametrize("hashed", [True, False])
def test_record_without_its_tail_is_refused(aniso_record, tmp_path, hashed):
    # the tail rungs are part of the run: a record that lost them (hashed)
    # or never had them is refused by the file's name
    out = tmp_path / "rec"
    shutil.copytree(aniso_record, out)
    (out / "tail.f64").unlink()
    if not hashed:
        manifest = out / "manifest.txt"
        manifest.write_text("".join(
            line for line in manifest.read_text().splitlines(True)
            if "tail.f64" not in line))
    with pytest.raises(records.RecordError, match="tail.f64"):
        records.load_record(str(out))


def _grid_record(path, center):
    """A grid-lane record without a sweep: flat n = 1 data and the field
    u = min(ln|x|, bc) at eps = 1e-3."""
    dom = build_domain(build_preset("flat", n=1),
                       {"radius": 1.0, "center": center}, L=2.2, alpha=0.9,
                       h=1 / 4., mode="grid")
    bc = dom.L - 2.0
    sol = ScalarSolution(dom, np.minimum(np.log(dom.r_act), bc), 1e-3, 1.0,
                         bc, 0.0, 0, True, 0.0)
    rec = wf.FlowRecord(dom, sol, None, [sol.eps], [[(1.0, 0, 0.0, True)]],
                        [], [], [], [(sol.eps, sol.interior)])
    records.save_record(rec, str(path), config={
        "preset": "flat", "n": 1, "e0_radius_chart": 1.0,
        "e0_center_chart": " ".join(map(str, center)),
        "level_L_flowtime": 2.2, "alpha_exponent": 0.9, "grid_h_chart": 0.25,
        "mode": "grid"})
    return dom, sol


def test_offcentre_grid_record_reloads_on_its_grid(tmp_path):
    path = tmp_path / "rec"
    dom, sol = _grid_record(path, (0.25, 0.0))
    back = records.load_record(str(path))
    assert back.domain.shape == dom.shape
    assert np.array_equal(back.domain.sdf, dom.sdf)
    assert (back.domain.L, back.domain.alpha) == (dom.L, dom.alpha)
    assert np.array_equal(back.solution.interior, sol.interior)
    # a manifest that rebuilds another grid is refused by name
    manifest = path / "manifest.txt"
    manifest.write_text(manifest.read_text().replace(
        "config.e0_center_chart = 0.25 0.0", "config.e0_center_chart = 0 0"))
    with pytest.raises(records.RecordError, match="unknowns"):
        records.load_record(str(path))


def test_verify_and_plotdata_on_a_grid_record(tmp_path, capsys):
    path = tmp_path / "rec"
    dom, _ = _grid_record(path, (0.0, 0.0))
    assert cli.main(["verify", str(path)]) == 0
    out = capsys.readouterr().out
    for check in ("minimality", "monotone", "blowdown"):
        assert f"{check}: skipped (radial lane only)" in out
    assert "horizon: no jumps" in out
    for kind in ("levelsets", "Q-trace", "blowdown"):
        status = cli.main(["plotdata", str(path), "--kind", kind,
                           "--out", str(tmp_path / kind)])
        assert status == 2
        assert "radial lane" in capsys.readouterr().err
    assert cli.main(["plotdata", str(path), "--kind", "jump-profile",
                     "--out", str(tmp_path / "jp")]) == 0
    rows = (tmp_path / "jp" / "jump-profile.csv").read_text().splitlines()
    assert len(rows) == 1 + dom.n_unknowns


def test_flow_on_2d_grid_file_data(tmp_path):
    # flat n = 1 samples read back from a grid file give the run of the
    # flat preset on the same grid domain, bit for bit
    data, cfg = _grid_file_config(tmp_path)
    out = tmp_path / "rec"
    assert cli.main(["flow", "--config", str(cfg), "--out", str(out)]) == 0
    dom = build_domain(build_preset("flat", n=1), {"radius": 1.0}, L=2.2,
                       alpha=0.9, h=0.25, mode="grid")
    rec = wf.epsilon_sweep(dom, eps_last=1e-2)
    u = records.read_array(str(out / "u.f64"))
    assert np.array_equal(u, rec.solution.interior)
    # the record holds a hashed copy of the grid file and reloads from it
    # once the original is gone
    data.unlink()
    assert np.array_equal(records.load_record(str(out)).u, u)
    assert cli.main(["verify", str(out)]) == 0
    # a run into the same record that names its copy as the grid file
    cfg.write_text(cfg.read_text().replace(str(data), str(out / "grid_data")))
    assert cli.main(["flow", "--config", str(cfg), "--out", str(out)]) == 0
    assert cli.main(["verify", str(out)]) == 0


@pytest.mark.parametrize("left_out", ["preset", "e0_radius_chart"])
def test_default_config_record_passes_verify(tmp_path, left_out):
    # a key left at its default (preset flat, E0 radius 1) is not in the
    # manifest; the record still rebuilds the domain that the flow ran on
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text("".join(line + "\n" for line in FLAT_CFG.splitlines()
                           if not line.startswith(left_out)))
    out = tmp_path / "rec"
    assert cli.main(["flow", "--config", str(cfg), "--out", str(out)]) == 0
    assert f"config.{left_out}" not in (out / "manifest.txt").read_text()
    assert cli.main(["verify", str(out)]) == 0
