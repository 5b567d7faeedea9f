"""Subcommand dispatch, artifact layout, exit codes, and reproducibility."""

import csv
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ddrom import binio
from ddrom.autoencoder import TrainConfig
from ddrom.burgers import Grid2D, ParameterPoint, solve_monolithic
from ddrom.cli import _build_parser, dispatch
from ddrom.driver import attach_hr, build_lsrom, build_nmrom, \
    fit_initializer, solve_rom
from ddrom.partition import build_partition
from ddrom.snapshots import generate, load, sample_grid
from ddrom.sqp import SqpConfig


def run(*argv):
    return dispatch([str(a) for a in argv])


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One small snapshots -> train-pod -> train-ae -> hr-build chain."""
    root = tmp_path_factory.mktemp("cli")
    assert run("snapshots", "--nx", 20, "--ny", 5, "--grid", "4x3",
               "--subdomains", "2x1", "--a-range", "100:5000",
               "--lam-range", "8:20", "--out", root / "snaps") == 0
    assert run("train-pod", "--snapshots", root / "snaps",
               "--ni-omega", 6, "--ni-gamma", 4, "--port-n", 4,
               "--out", root / "pod") == 0
    assert run("train-ae", "--snapshots", root / "snaps",
               "--ni-omega", 4, "--ni-gamma", 3, "--epochs", 40,
               "--seed", 1, "--out", root / "ae") == 0
    assert run("hr-build", "--snapshots", root / "snaps", "--samples", 50,
               "--out", root / "hr") == 0
    return root


# ----------------------------------------------------------- exit codes

def test_help_exits_zero(capsys):
    assert run("--help") == 0
    assert "fom-solve" in capsys.readouterr().out
    assert run("rom-solve", "--help") == 0


def test_version_exits_zero(capsys):
    assert run("--version") == 0
    assert "ddrom" in capsys.readouterr().out


def test_usage_errors_exit_two(capsys):
    assert run() == 2
    assert run("no-such-command") == 2
    assert run("fom-solve", "--bogus", 1) == 2
    assert run("fom-solve", "--nx", 8) == 2
    err = capsys.readouterr().err
    assert "missing required" in err and "--lambda" in err


@pytest.mark.parametrize("argv", [
    ("snapshots", "--seed", 0),
    ("train-pod", "--energy", 1e-4),
    ("train-ae", "--band", 5), ("train-ae", "--shift", 5),
    ("train-ae", "--port-band", 3), ("train-ae", "--port-shift", 3),
    ("hr-build", "--mode", "collocation"),
    ("hr-build", "--residual-energy", 1e-10),
    ("rom-solve", "--residual-energy", 1e-10)])
def test_removed_flags_are_usage_errors(argv, tmp_path, capsys):
    # the mask geometry and the HR residual energy are driver constants;
    # snapshots --seed and hr-build --mode changed nothing
    assert run(*argv, "--out", tmp_path / "x") == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_unknown_config_key_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "fs.cfg"
    cfg.write_text("nx = 16\nny = 4\na = 400\nlambda = 12\nband = 7\n")
    assert run("fom-solve", "--config", cfg, "--out", tmp_path / "a") == 2
    assert "band" in capsys.readouterr().err
    assert not (tmp_path / "a").exists()


def readme_commands():
    """Every ``ddrom`` command of the README's ``sh`` blocks, with
    backslash continuations joined, split into argv."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    cmds = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        cmds += [shlex.split(line)[1:]
                 for line in block.replace("\\\n", " ").splitlines()
                 if line.startswith("ddrom ")]
    return cmds


def test_readme_commands_parse():
    cmds = readme_commands()
    assert len(cmds) >= 8
    for argv in cmds:
        args = _build_parser().parse_args(argv)
        assert args.command == argv[0]


def test_runtime_failure_exits_one_no_partial_dir(tmp_path, capsys):
    out = tmp_path / "rom"
    rc = run("rom-solve", "--snapshots", tmp_path / "nope",
             "--maps", tmp_path / "nope", "--a", 1, "--lambda", 9,
             "--out", out)
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_existing_out_dir_rejected(tmp_path, capsys):
    out = tmp_path / "fom"
    out.mkdir()
    rc = run("fom-solve", "--nx", 12, "--ny", 4, "--a", 400,
             "--lambda", 12, "--out", out)
    assert rc == 1
    assert "already exists" in capsys.readouterr().err


# ------------------------------------------------------------- fom-solve

def test_fom_solve_artifacts_match_library(tmp_path):
    out = tmp_path / "fom"
    assert run("fom-solve", "--nx", 16, "--ny", 4, "--a", 400,
               "--lambda", 12, "--out", out) == 0
    state = binio.read_matrices(out / "state.bin")["state"].ravel()
    direct, _ = solve_monolithic(Grid2D(16, 4), ParameterPoint(400, 12))
    np.testing.assert_allclose(state, direct, atol=1e-12)
    meta = binio.read_meta(out / "meta.txt")
    assert meta["command"] == "fom-solve"
    assert "version" in meta and "wall_seconds" in meta
    with open(out / "trace.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iteration", "residual_norm", "alpha"]
    assert len(rows) > 2


def test_config_file_defaults_and_override(tmp_path):
    cfg = tmp_path / "fs.cfg"
    cfg.write_text("nx = 16\nny = 4\na = 400\nlambda = 12\n")
    assert run("fom-solve", "--config", cfg, "--out",
               tmp_path / "a") == 0
    meta = binio.read_meta(tmp_path / "a" / "meta.txt")
    assert meta["nx"] == "16" and meta["lam"] == "12"
    assert run("fom-solve", "--config", cfg, "--a", 900, "--out",
               tmp_path / "b") == 0
    meta = binio.read_meta(tmp_path / "b" / "meta.txt")
    assert float(meta["a"]) == 900.0


# ------------------------------------------------------------- pipeline

def test_snapshot_artifacts(pipeline):
    d = pipeline / "snaps"
    for name in ("snapshots.bin", "residuals.bin", "meta.txt"):
        assert (d / name).exists()
    meta = binio.read_meta(d / "meta.txt")
    assert meta["command"] == "snapshots"
    assert "failures" in meta


def test_pod_and_ae_artifacts(pipeline):
    bases = binio.read_matrices(pipeline / "pod" / "bases.bin")
    assert {"interior_0", "interior_1", "interface_0", "interface_1",
            "port_0"} <= set(bases)
    assert (pipeline / "ae" / "interior_0.bin").exists()
    assert (pipeline / "ae" / "interior_0.txt").exists()
    hdr = binio.read_meta(pipeline / "ae" / "interior_0.txt")
    assert hdr["activation"] == "swish"


def test_rom_solve_lsrom_artifacts(pipeline, tmp_path):
    out = tmp_path / "rom"
    assert run("rom-solve", "--snapshots", pipeline / "snaps",
               "--maps", pipeline / "pod", "--rom", "lsrom",
               "--constraint", "wfpc", "--nc", 4, "--a", 2000,
               "--lambda", 14, "--tol", "1e-6", "--out", out) == 0
    lat = binio.read_matrices(out / "latent.bin")
    dec = binio.read_matrices(out / "decoded.bin")
    assert {"latent", "multipliers"} == set(lat)
    assert {"interior_0", "interface_0", "interior_1",
            "interface_1"} == set(dec)
    with open(out / "trace.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iteration", "merit", "objective", "constraint",
                       "alpha", "kkt_path", "kkt_residual"]
    assert all(float(r[3]) >= 0.0 for r in rows[1:])
    # every accepted step of a ROM (dense Jacobians) is a normal-form KKT
    # solve within the back-substitution gate
    steps = [r for r in rows[1:] if r[4]]
    assert steps and all(r[5] == "kkt" for r in steps)
    assert all(0.0 <= float(r[6]) <= 1e-10 for r in steps)
    meta = binio.read_meta(out / "meta.txt")
    assert meta["converged"] == "True"
    assert meta["stop"] in ("merit", "step")
    assert float(meta["error"]) < 0.1


def test_rom_solve_reproducible(pipeline, tmp_path):
    argv = ["rom-solve", "--snapshots", pipeline / "snaps",
            "--maps", pipeline / "pod", "--rom", "lsrom", "--nc", 4,
            "--a", 800, "--lambda", 10, "--tol", "1e-6"]
    assert run(*argv, "--out", tmp_path / "r1") == 0
    assert run(*argv, "--out", tmp_path / "r2") == 0
    b1 = (tmp_path / "r1" / "latent.bin").read_bytes()
    b2 = (tmp_path / "r2" / "latent.bin").read_bytes()
    assert b1 == b2


def test_rom_solve_srpc_and_hr(pipeline, tmp_path):
    assert run("rom-solve", "--snapshots", pipeline / "snaps",
               "--maps", pipeline / "pod", "--rom", "lsrom",
               "--constraint", "srpc", "--a", 2000, "--lambda", 14,
               "--tol", "1e-6", "--out", tmp_path / "srpc") == 0
    assert run("rom-solve", "--snapshots", pipeline / "snaps",
               "--maps", pipeline / "pod", "--rom", "lsrom",
               "--hr", "collocation", "--hr-dir", pipeline / "hr",
               "--nc", 4, "--a", 2000, "--lambda", 14, "--tol", "1e-6",
               "--out", tmp_path / "hr") == 0
    e1 = binio.read_meta(tmp_path / "srpc" / "meta.txt")["error"]
    e2 = binio.read_meta(tmp_path / "hr" / "meta.txt")["error"]
    assert float(e1) < 0.1 and float(e2) < 0.1


def test_rom_solve_nmrom(pipeline, tmp_path):
    out = tmp_path / "nm"
    assert run("rom-solve", "--snapshots", pipeline / "snaps",
               "--maps", pipeline / "ae", "--rom", "nmrom",
               "--constraint", "wfpc", "--nc", 3, "--a", 2000,
               "--lambda", 14, "--tol", "1e-5", "--max-iter", 30,
               "--out", out) == 0
    assert (out / "decoded.bin").exists()


def test_rom_solve_hr_from_snapshots_matches_library_bitwise(pipeline,
                                                            tmp_path):
    """Without --hr-dir, rom-solve rebuilds collocation HR from the
    snapshots' residuals, as the library's attach_hr does, and matches the
    stored HR of hr-build at the same sample count."""
    argv = ["rom-solve", "--snapshots", pipeline / "snaps",
            "--maps", pipeline / "pod", "--rom", "lsrom", "--nc", 4,
            "--hr", "collocation", "--a", 2000, "--lambda", 14,
            "--tol", "1e-6", "--skip-error"]
    assert run(*argv, "--hr-samples", 50, "--out", tmp_path / "snap") == 0
    assert run(*argv, "--hr-dir", pipeline / "hr",
               "--out", tmp_path / "dir") == 0
    cli = binio.read_matrices(tmp_path / "snap" / "latent.bin")
    stored = binio.read_matrices(tmp_path / "dir" / "latent.bin")

    snap = load(pipeline / "snaps")
    part = snap.partition
    inst = attach_hr(build_lsrom(part, snap, 6, 4, "wfpc", n_c=4), snap,
                     "collocation", n_samples=50)
    sol, _ = solve_rom(fit_initializer(inst, snap), ParameterPoint(2000, 14),
                       SqpConfig(tol=1e-6), compute_error=False)
    for key, ref in (("latent", sol.x_latent), ("multipliers", sol.lam)):
        np.testing.assert_array_equal(cli[key].ravel(), ref)
        np.testing.assert_array_equal(stored[key].ravel(), ref)


@pytest.mark.parametrize("rom, constraint, n_c", [
    ("lsrom", "wfpc", 4), ("lsrom", "srpc", None), ("nmrom", "wfpc", 3)])
def test_rom_solve_matches_library_bitwise(pipeline, tmp_path, rom,
                                           constraint, n_c):
    """rom-solve on the stored maps and the library builder on the same
    snapshots give bitwise the same latent solution and multipliers."""
    argv = ["rom-solve", "--snapshots", pipeline / "snaps", "--rom", rom,
            "--maps", pipeline / ("pod" if rom == "lsrom" else "ae"),
            "--constraint", constraint, "--a", 2000, "--lambda", 14,
            "--tol", "1e-6", "--skip-error", "--out", tmp_path / "r"]
    if n_c is not None:
        argv += ["--nc", n_c]
    assert run(*argv) == 0
    cli = binio.read_matrices(tmp_path / "r" / "latent.bin")

    snap = load(pipeline / "snaps")
    part = snap.partition
    if rom == "lsrom":
        inst = build_lsrom(part, snap, 6, 4, constraint, n_c=n_c)
    else:
        inst = build_nmrom(part, snap, 4, 3, constraint, n_c=n_c,
                           train_cfg=TrainConfig(epochs=40, seed=1))
    sol, _ = solve_rom(fit_initializer(inst, snap), ParameterPoint(2000, 14),
                       SqpConfig(tol=1e-6), compute_error=False)
    np.testing.assert_array_equal(cli["latent"].ravel(), sol.x_latent)
    np.testing.assert_array_equal(cli["multipliers"].ravel(), sol.lam)


PLAN = """\
[problem]
nx = 20
ny = 5
subdomains = 2x1
train_grid = 4x3
a_range = 100:5000
lam_range = 8:20

[eval]
params = 2000,14; 800,10
tol = 1e-6

[instance ls-base]
rom = lsrom
constraint = wfpc
n_int = 6
n_gam = 4
n_c = 4

[instance skipped]
rom = none
"""


def test_benchmark_plan(tmp_path):
    plan = tmp_path / "plan.txt"
    plan.write_text(PLAN)
    out = tmp_path / "bench"
    assert run("benchmark", "--plan", plan, "--out", out) == 0
    with open(out / "records.csv") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 3       # 1 instance x 2 params + absent cell
    status = rows[0].index("status")
    assert [r[status] for r in rows[1:]].count("absent") == 1
    assert (out / "pareto.csv").exists()


NM_PLAN = """\
[problem]
nx = 20
ny = 5
subdomains = 2x1
train_grid = 4x3
a_range = 100:5000
lam_range = 8:20

[eval]
params = 2000,14
tol = 1e-5
max_iter = 30

[instance nm]
rom = nmrom
constraint = wfpc
n_int = 4
n_gam = 3
n_c = 3
epochs = 40
seed = 1
"""


def test_benchmark_plan_nmrom_reads_epochs_and_seed(tmp_path):
    plan = tmp_path / "plan.txt"
    plan.write_text(NM_PLAN)
    out = tmp_path / "bench"
    assert run("benchmark", "--plan", plan, "--out", out) == 0
    with open(out / "records.csv") as fh:
        header, row = list(csv.reader(fh))
    rec = dict(zip(header, row))
    assert rec["rom"] == "nmrom" and rec["constraint"] == "wfpc"

    grid = Grid2D(20, 5)
    part = build_partition(grid, 2, 1)
    snap = generate(grid, sample_grid(4, 3, a_range=(100.0, 5000.0),
                                      lam_range=(8.0, 20.0)), part)
    inst = build_nmrom(part, snap, 4, 3, "wfpc", n_c=3,
                       train_cfg=TrainConfig(epochs=40, seed=1))
    _, ref = solve_rom(fit_initializer(inst, snap), ParameterPoint(2000, 14),
                       SqpConfig(tol=1e-5, max_iter=30))
    assert rec["status"] == ref.status
    assert int(rec["n_iter"]) == ref.n_iter
    assert float(rec["error"]) == ref.error
    assert float(rec["final_merit"]) == ref.final_merit


def test_verify_bounds_plan(tmp_path):
    plan = tmp_path / "plan.txt"
    plan.write_text(PLAN)
    out = tmp_path / "bounds"
    assert run("verify-bounds", "--plan", plan, "--samples", 100,
               "--seed", 3, "--out", out) == 0
    text = (out / "bounds.txt").read_text()
    assert "estimates" in text and "seed=3" in text
    assert "kappa_lower" in text


@pytest.mark.parametrize("given, missing", [(("--a", 2000), "--lambda"),
                                             (("--lambda", 14), "--a")])
def test_verify_bounds_needs_both_a_and_lambda(tmp_path, capsys, monkeypatch,
                                              given, missing):
    """One of --a/--lambda is an error naming the other, raised before
    any snapshot sweep (not a silent solve at the plan's first point)."""
    plan = tmp_path / "plan.txt"
    plan.write_text(PLAN)

    def no_sweep(*args, **kwargs):
        raise AssertionError("snapshot sweep ran")

    monkeypatch.setattr("ddrom.cli.generate", no_sweep)
    out = tmp_path / "bounds"
    assert run("verify-bounds", "--plan", plan, *given, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"missing {missing}" in err
    assert "snapshot sweep" not in err and not out.exists()


def test_bad_plan_reports_usefully(tmp_path, capsys):
    plan = tmp_path / "plan.txt"
    plan.write_text("nx = 20\n")      # key before any [section]
    assert run("benchmark", "--plan", plan,
               "--out", tmp_path / "x") == 1
    assert "section" in capsys.readouterr().err


@pytest.mark.parametrize("old, new, named", [
    ("n_c = 4\n", "n_c = 4\nband = 7\n", ("'band'", "[instance ls-base]")),
    ("nx = 20\n", "nxx = 20\nnx = 20\n", ("'nxx'", "[problem]")),
    ("[eval]", "[evaluate]", ("[evaluate]",))])
def test_plan_unknown_key_or_section_exits_one(tmp_path, capsys, old, new,
                                               named):
    plan = tmp_path / "plan.txt"
    plan.write_text(PLAN.replace(old, new, 1))
    for cmd in ("benchmark", "verify-bounds"):
        assert run(cmd, "--plan", plan, "--out", tmp_path / cmd) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError")
        assert all(s in err for s in named)
        assert not (tmp_path / cmd).exists()


# ------------------------------------------------------- console script

def test_console_script_runs():
    proc = subprocess.run([sys.executable, "-m", "ddrom.cli",
                           "--version"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "ddrom" in proc.stdout
