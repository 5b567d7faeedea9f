"""Command-line entry point: the pipeline as subcommands.

Every subcommand accepts ``--config FILE`` (flat ``key = value`` lines,
same names as the long flags) whose values act as defaults; explicit
flags win; a key no subcommand takes is a usage error.  Each run writes
its artifacts into a fresh output directory via a temp-dir-plus-rename so
failures never leave partial outputs, and drops a ``meta.txt`` echoing
the resolved configuration, the package version and the wall time.

Exit codes: 0 success, 1 runtime failure (one-line ``error:`` message on
stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import shutil
import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, binio
from .autoencoder import TrainConfig, load_net, save_net
from .burgers import Grid2D, ParameterPoint, solve_monolithic
from .driver import (
    attach_hr,
    benchmark_sweep,
    build_lsrom,
    build_nmrom,
    fit_initializer,
    hr_operator,
    hr_sample,
    instance_from_maps,
    pod_maps,
    solve_rom,
    train_nets,
    verify_bounds,
)
from .partition import build_partition
from .pod import LinearMap
from .snapshots import generate, load, sample_grid, save
from .sqp import SqpConfig


def _log(phase: str, msg: str) -> None:
    print(f"[{phase}] {msg}")


def _coerce(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    if text in ("true", "True"):
        return True
    if text in ("false", "False"):
        return False
    return text


def _parse_dims(text: str, flag: str):
    try:
        a, b = text.lower().split("x")
        return int(a), int(b)
    except ValueError:
        raise ValueError(f"{flag} expects the form NxM, got {text!r}")


def _parse_range(text: str, flag: str):
    try:
        lo, hi = (float(t) for t in text.split(":"))
        return lo, hi
    except ValueError:
        raise ValueError(f"{flag} expects the form lo:hi, got {text!r}")


@contextmanager
def _atomic_dir(final):
    """Build outputs in a sibling temp directory, rename on success."""
    final = Path(final)
    if final.exists():
        raise FileExistsError(f"output directory {final} already exists")
    final.parent.mkdir(parents=True, exist_ok=True)
    tmp = final.parent / f".{final.name}.tmp"
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir()
    try:
        yield tmp
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    tmp.replace(final)


def _run_meta(args, t0: float, extra: dict | None = None) -> dict:
    skip = {"func", "command", "required"}
    meta = {k: v for k, v in sorted(vars(args).items()) if k not in skip}
    meta["command"] = args.command
    meta["version"] = __version__
    meta["wall_seconds"] = f"{time.perf_counter() - t0:.3f}"
    if extra:
        meta.update(extra)
    return meta


def _write_trace_csv(path, header, columns):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        n = max(len(c) for c in columns)
        for k in range(n):
            w.writerow([c[k] if k < len(c) else "" for c in columns])


# ---------------------------------------------------------------- commands


def cmd_fom_solve(args, t0):
    grid = Grid2D(args.nx, args.ny, args.nu)
    p = ParameterPoint(args.a, args.lam)
    state, trace = solve_monolithic(grid, p, tol=args.tol)
    if not trace.converged:
        raise RuntimeError("Newton did not converge; try a finer tolerance "
                           "or different parameters")
    _log("fom-solve", f"converged in {len(trace.norms) - 1} iterations, "
         f"|r| = {trace.norms[-1]:.3e}")
    with _atomic_dir(args.out) as out:
        binio.write_matrices(out / "state.bin", {"state": state})
        _write_trace_csv(out / "trace.csv",
                         ["iteration", "residual_norm", "alpha"],
                         [list(range(len(trace.norms))), trace.norms,
                          trace.alphas])
        binio.write_meta(out / "meta.txt", _run_meta(args, t0))
    return args.out


def cmd_snapshots(args, t0):
    grid = Grid2D(args.nx, args.ny, args.nu)
    na, nl = _parse_dims(args.grid, "--grid")
    sx, sy = _parse_dims(args.subdomains, "--subdomains")
    part = build_partition(grid, sx, sy)
    params = sample_grid(na, nl,
                         a_range=_parse_range(args.a_range, "--a-range"),
                         lam_range=_parse_range(args.lam_range,
                                                "--lam-range"))
    snap = generate(grid, params, part)
    _log("snapshots", f"{snap.n_mu} columns, {len(snap.failures)} failures")
    with _atomic_dir(args.out) as out:
        save(snap, out)
        meta = binio.read_meta(out / "meta.txt")
        meta.update(_run_meta(args, t0))
        binio.write_meta(out / "meta.txt", meta)
    return args.out


def cmd_train_pod(args, t0):
    snap = load(args.snapshots)
    part = snap.partition
    maps = pod_maps(part, snap, args.ni_omega, args.ni_gamma, "wfpc")
    mats = {f"{tag}_{i}": maps[tag][i].Phi for i in range(part.n_sub)
            for tag in ("interior", "interface")}
    if args.port_n is not None:
        ports = pod_maps(part, snap, args.ni_omega, args.port_n,
                         "srpc")["port"]
        mats.update((f"port_{j}", m.Phi) for j, m in ports.items())
    dims = {f"n_{name}": Phi.shape[1] for name, Phi in mats.items()}
    _log("train-pod", f"{len(mats)} bases")
    with _atomic_dir(args.out) as out:
        binio.write_matrices(out / "bases.bin", mats)
        binio.write_meta(out / "meta.txt", _run_meta(args, t0, dims))
    return args.out


def cmd_train_ae(args, t0):
    snap = load(args.snapshots)
    n_gam = args.port_n if (args.constraint == "srpc"
                            and args.port_n is not None) else args.ni_gamma
    cfg = TrainConfig(epochs=args.epochs, seed=args.seed)
    nets = train_nets(snap.partition, snap, args.ni_omega, n_gam,
                      args.constraint, train_cfg=cfg)
    with _atomic_dir(args.out) as out:
        for i, net in enumerate(nets["interior"]):
            save_net(out / f"interior_{i}.bin", net)
        for i, net in enumerate(nets.get("interface", [])):
            save_net(out / f"interface_{i}.bin", net)
        for j, net in nets.get("port", {}).items():
            save_net(out / f"port_{j}.bin", net)
        binio.write_meta(out / "meta.txt", _run_meta(args, t0))
    n_files = len(nets["interior"]) + len(nets.get("interface", [])) \
        + len(nets.get("port", {}))
    _log("train-ae", f"{n_files} nets trained ({args.constraint})")
    return args.out


def cmd_hr_build(args, t0):
    snap = load(args.snapshots)
    mats, counts = {}, {}
    for i, sub in enumerate(snap.partition.subdomains):
        rows, basis = hr_sample(snap.residual[i], sub.n_res, args.samples)
        mats[f"rows_{i}"] = rows.astype(float)
        mats[f"basis_{i}"] = basis
        counts[f"samples_{i}"] = rows.size
    _log("hr-build", ", ".join(f"{k}={v}" for k, v in counts.items()))
    with _atomic_dir(args.out) as out:
        binio.write_matrices(out / "hr.bin", mats)
        binio.write_meta(out / "meta.txt", _run_meta(args, t0, counts))
    return args.out


def _load_maps(part, args) -> dict:
    """The stored map set in ``train_nets``' layout: POD bases from
    ``bases.bin`` (lsrom) or one net file per map (nmrom)."""
    maps_dir = Path(args.maps)
    if args.rom == "lsrom":
        mats = binio.read_matrices(maps_dir / "bases.bin")

        def load_map(name):
            if name not in mats:
                raise ValueError(f"{maps_dir}/bases.bin is missing {name}; "
                                 "was train-pod run with the right flags "
                                 "(--port-n for srpc)?")
            return LinearMap(np.ascontiguousarray(mats[name]))
    else:
        def load_map(name):
            return load_net(maps_dir / f"{name}.bin")

    maps = {"interior": [load_map(f"interior_{i}")
                         for i in range(part.n_sub)]}
    if args.constraint == "wfpc":
        maps["interface"] = [load_map(f"interface_{i}")
                             for i in range(part.n_sub)]
    else:
        maps["port"] = {p.index: load_map(f"port_{p.index}")
                        for p in part.ports.ports}
    return maps


def _build_instance(part, snap, args):
    maps = _load_maps(part, args)
    # the first interface (wfpc) or port (srpc) map's size as the request
    n_gam = maps.get("interface", maps.get("port"))[0].latent_dim
    prov = {"rom": args.rom, "constraint": args.constraint, "hr": args.hr,
            "n_int": maps["interior"][0].latent_dim, "n_gam": n_gam}
    inst = instance_from_maps(part, maps, prov, n_gam=n_gam, n_c=args.nc,
                              wfpc_seed=args.wfpc_seed)
    if args.hr == "none":
        return inst
    if args.hr_dir is not None:
        mats = binio.read_matrices(Path(args.hr_dir) / "hr.bin")
        return replace(inst, hr=[
            hr_operator(args.hr, mats[f"rows_{i}"].ravel().astype(np.int64),
                        np.ascontiguousarray(mats[f"basis_{i}"]), sub.n_res)
            for i, sub in enumerate(part.subdomains)])
    return attach_hr(inst, snap, args.hr, n_samples=args.hr_samples)


def cmd_rom_solve(args, t0):
    snap = load(args.snapshots)
    inst = _build_instance(snap.partition, snap, args)
    inst = fit_initializer(inst, snap)
    p = ParameterPoint(args.a, args.lam)
    sol, rec = solve_rom(inst, p, SqpConfig(tol=args.tol,
                                            max_iter=args.max_iter),
                         compute_error=not args.skip_error)
    _log("rom-solve", f"{rec.n_iter} iterations, converged={rec.converged},"
         f" merit={rec.final_merit:.3e}, error={rec.error:.3e}")
    with _atomic_dir(args.out) as out:
        binio.write_matrices(out / "latent.bin",
                             {"latent": sol.x_latent,
                              "multipliers": sol.lam})
        decoded = {}
        for i, (xi, xg) in enumerate(sol.states):
            decoded[f"interior_{i}"] = xi
            decoded[f"interface_{i}"] = xg
        binio.write_matrices(out / "decoded.bin", decoded)
        _write_trace_csv(out / "trace.csv",
                         ["iteration", "merit", "objective", "constraint",
                          "alpha", "kkt_path", "kkt_residual"],
                         [list(range(len(sol.sqp.merit_history))),
                          sol.sqp.merit_history,
                          sol.sqp.objective_history,
                          sol.sqp.constraint_history,
                          sol.sqp.alpha_history,
                          sol.sqp.kkt_path_history,
                          sol.sqp.kkt_residual_history])
        binio.write_meta(out / "meta.txt", _run_meta(args, t0, {
            "converged": rec.converged, "n_iter": rec.n_iter,
            "error": rec.error, "final_merit": rec.final_merit,
            "status": rec.status, "stop": sol.sqp.stop_reason}))
    return args.out


# ------------------------------------------------------------- plan files


PLAN_KEYS = {
    "problem": {"nx", "ny", "nu", "subdomains", "train_grid", "a_range",
                "lam_range"},
    "eval": {"params", "tol", "max_iter"},
    "instance": {"rom", "constraint", "n_int", "n_gam", "n_c", "wfpc_seed",
                 "epochs", "seed", "hr", "hr_samples"},
}


def _read_plan(path):
    """Sectioned key-value file: ``[problem]``, ``[eval]``, and one
    ``[instance NAME]`` per sweep cell, each with ``PLAN_KEYS`` of its
    kind; an unknown section or key is a ``ValueError`` naming it."""
    sections = {"instances": {}}
    current = None
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            kind, _, label = name.partition(" ")
            if kind == "instance" and label.strip():
                current = sections["instances"].setdefault(label.strip(), {})
            elif name in ("problem", "eval"):
                kind, current = name, sections.setdefault(name, {})
            else:
                raise ValueError(f"{path}:{lineno}: unknown section "
                                 f"[{name}]")
            continue
        if current is None or "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value' "
                             "inside a [section]")
        k, v = (t.strip() for t in line.split("=", 1))
        k = k.replace("-", "_")
        if k not in PLAN_KEYS[kind]:
            raise ValueError(f"{path}:{lineno}: unknown key {k!r} in "
                             f"[{name}]")
        current[k] = _coerce(v)
    if "problem" not in sections:
        raise ValueError(f"{path}: missing [problem] section")
    if not sections["instances"]:
        raise ValueError(f"{path}: no [instance NAME] sections")
    return sections


def _plan_problem(plan):
    prob = plan["problem"]
    grid = Grid2D(int(prob["nx"]), int(prob["ny"]),
                  float(prob.get("nu", 0.1)))
    sx, sy = _parse_dims(str(prob.get("subdomains", "2x2")), "subdomains")
    na, nl = _parse_dims(str(prob.get("train_grid", "10x10")), "train_grid")
    a_rng = _parse_range(str(prob.get("a_range", "1:10000")), "a_range")
    l_rng = _parse_range(str(prob.get("lam_range", "5:25")), "lam_range")
    return generate(grid, sample_grid(na, nl, a_range=a_rng,
                                      lam_range=l_rng),
                    build_partition(grid, sx, sy))


def _plan_instance(snap, spec):
    rom = spec.get("rom", "lsrom")
    if rom == "none":
        return None
    common = dict(n_int=int(spec.get("n_int", 8)),
                  n_gam=int(spec.get("n_gam", 4)),
                  constraint=spec.get("constraint", "wfpc"))
    if common["constraint"] == "wfpc":
        common["n_c"] = int(spec["n_c"]) if "n_c" in spec else None
        common["wfpc_seed"] = int(spec.get("wfpc_seed", 0))
    if rom == "lsrom":
        inst = build_lsrom(snap.partition, snap, **common)
    elif rom == "nmrom":
        inst = build_nmrom(
            snap.partition, snap, **common,
            train_cfg=TrainConfig(epochs=int(spec.get("epochs", 2000)),
                                  seed=int(spec.get("seed", 0))))
    else:
        raise ValueError(f"unknown rom type {rom!r} in plan")
    hr = spec.get("hr", "none")
    if hr != "none":
        inst = attach_hr(inst, snap, hr,
                         n_samples=int(spec.get("hr_samples", 100)))
    return fit_initializer(inst, snap)


def _plan_eval_params(plan, snap):
    text = str(plan.get("eval", {}).get("params", "")).strip()
    if not text:
        return [snap.params[len(snap.params) // 2]]
    out = []
    for chunk in text.split(";"):
        a, lam = (float(t) for t in chunk.split(","))
        out.append(ParameterPoint(a, lam))
    return out


def cmd_benchmark(args, t0):
    plan = _read_plan(args.plan)
    snap = _plan_problem(plan)
    instances = {}
    for label, spec in plan["instances"].items():
        _log("benchmark", f"building instance {label}")
        instances[label] = _plan_instance(snap, spec)
    params = _plan_eval_params(plan, snap)
    ev = plan.get("eval", {})
    cfg = SqpConfig(tol=float(ev.get("tol", 1e-4)),
                    max_iter=int(ev.get("max_iter", 15)))
    with _atomic_dir(args.out) as out:
        records = benchmark_sweep(instances, params, out, cfg)
        binio.write_meta(out / "meta.txt", _run_meta(args, t0, {
            "cells": len(records),
            "ok": sum(1 for r in records if r.status == "ok")}))
    _log("benchmark", f"{len(records)} records -> {args.out}")
    return args.out


def cmd_verify_bounds(args, t0):
    if (args.a is None) != (args.lam is None):
        raise ValueError("--a and --lambda go together; missing "
                         + ("--a" if args.a is None else "--lambda"))
    plan = _read_plan(args.plan)
    snap = _plan_problem(plan)
    labels = list(plan["instances"])
    label = args.instance or labels[0]
    if label not in plan["instances"]:
        raise ValueError(f"plan has no [instance {label}]")
    inst = _plan_instance(snap, plan["instances"][label])
    if inst is None:
        raise ValueError(f"instance {label} is declared absent in the plan")
    if args.a is not None:
        p = ParameterPoint(args.a, args.lam)
    else:
        p = _plan_eval_params(plan, snap)[0]
    ev = plan.get("eval", {})
    diag = verify_bounds(inst, p, n_samples=args.samples, seed=args.seed,
                         cfg=SqpConfig(tol=float(ev.get("tol", 1e-4)),
                                       max_iter=int(ev.get("max_iter",
                                                           15))))
    _log("verify-bounds", f"holds={diag.bound_holds} "
         f"lhs={diag.observed_lhs:.3e} rhs={diag.bound_rhs:.3e}")
    with _atomic_dir(args.out) as out:
        (out / "bounds.txt").write_text(
            diag.report() + f"\ninstance={label} a={p.a} lambda={p.lam}\n")
        binio.write_meta(out / "meta.txt", _run_meta(args, t0, {
            "bound_holds": diag.bound_holds}))
    return args.out


# ----------------------------------------------------------------- parser


def _build_parser(defaults: dict | None = None):
    parser = argparse.ArgumentParser(
        prog="ddrom",
        description="Domain-decomposed reduced-order models for 2D steady "
                    "Burgers: FOM solves, snapshot generation, POD and "
                    "sparse-autoencoder training, hyper-reduction, ROM "
                    "solves, benchmarks, and bound diagnostics.")
    parser.add_argument("--version", action="version",
                        version=f"ddrom {__version__}")
    subs = parser.add_subparsers(dest="command", metavar="COMMAND")

    def sub(name, func, required, **kw):
        sp = subs.add_parser(name, **kw)
        sp.set_defaults(func=func, required=required)
        sp.add_argument("--config", metavar="FILE",
                        help="flat key = value file supplying defaults "
                             "(flag names without the leading dashes)")
        sp.add_argument("--out", metavar="DIR",
                        help="output directory (must not exist)")
        return sp

    sp = sub("fom-solve", cmd_fom_solve, ["nx", "ny", "a", "lam", "out"],
             help="monolithic Newton solve of the full-order model")
    sp.add_argument("--nx", type=int)
    sp.add_argument("--ny", type=int)
    sp.add_argument("--nu", type=float, default=0.1)
    sp.add_argument("--a", type=float)
    sp.add_argument("--lambda", dest="lam", type=float)
    sp.add_argument("--tol", type=float, default=1e-8)

    sp = sub("snapshots", cmd_snapshots, ["nx", "ny", "out"],
             help="solve the FOM over a parameter grid and store "
                  "partitioned snapshots")
    sp.add_argument("--nx", type=int)
    sp.add_argument("--ny", type=int)
    sp.add_argument("--nu", type=float, default=0.1)
    sp.add_argument("--grid", default="10x10", metavar="NAxNL",
                    help="parameter samples per axis (a then lambda)")
    sp.add_argument("--subdomains", default="2x2", metavar="NXxNY")
    sp.add_argument("--a-range", default="1:10000", metavar="LO:HI")
    sp.add_argument("--lam-range", default="5:25", metavar="LO:HI")

    sp = sub("train-pod", cmd_train_pod, ["snapshots", "out"],
             help="POD bases for interior/interface (and optionally port) "
                  "snapshots")
    sp.add_argument("--snapshots", metavar="DIR")
    sp.add_argument("--ni-omega", type=int, default=8)
    sp.add_argument("--ni-gamma", type=int, default=4)
    sp.add_argument("--port-n", type=int, default=None,
                    help="also build per-port bases of this size (srpc)")

    sp = sub("train-ae", cmd_train_ae, ["snapshots", "out"],
             help="train sparse autoencoders for the NM-ROM")
    sp.add_argument("--snapshots", metavar="DIR")
    sp.add_argument("--ni-omega", type=int, default=8)
    sp.add_argument("--ni-gamma", type=int, default=4)
    sp.add_argument("--epochs", type=int, default=2000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--constraint", choices=["wfpc", "srpc"],
                    default="wfpc")
    sp.add_argument("--port-n", type=int, default=None,
                    help="port latent size for srpc (default --ni-gamma)")

    sp = sub("hr-build", cmd_hr_build, ["snapshots", "out"],
             help="residual POD bases plus greedy sample rows")
    sp.add_argument("--snapshots", metavar="DIR")
    sp.add_argument("--samples", type=int, default=100)

    sp = sub("rom-solve", cmd_rom_solve,
             ["snapshots", "maps", "a", "lam", "out"],
             help="assemble a ROM instance from stored artifacts and "
                  "solve at one parameter")
    sp.add_argument("--snapshots", metavar="DIR")
    sp.add_argument("--maps", metavar="DIR",
                    help="train-pod output for lsrom, train-ae for nmrom")
    sp.add_argument("--rom", choices=["lsrom", "nmrom"], default="lsrom")
    sp.add_argument("--constraint", choices=["wfpc", "srpc"],
                    default="wfpc")
    sp.add_argument("--hr", choices=["none", "collocation", "gappy"],
                    default="none")
    sp.add_argument("--hr-dir", metavar="DIR", default=None,
                    help="hr-build output; omitted = rebuild from "
                         "snapshots")
    sp.add_argument("--hr-samples", type=int, default=100)
    sp.add_argument("--nc", type=int, default=None,
                    help="wfpc constraint count (default 2x the srpc "
                         "equivalent, capped at the FOM count)")
    sp.add_argument("--wfpc-seed", type=int, default=0)
    sp.add_argument("--tol", type=float, default=1e-4,
                    help="SQP stop: optimality norm below TOL, or full "
                         "Gauss-Newton step at most TOL times the "
                         "iterate's norm")
    sp.add_argument("--max-iter", type=int, default=15)
    sp.add_argument("--a", type=float)
    sp.add_argument("--lambda", dest="lam", type=float)
    sp.add_argument("--skip-error", action="store_true",
                    help="skip the FOM reference solve and error")

    sp = sub("benchmark", cmd_benchmark, ["plan", "out"],
             help="run the sweep described by a plan file; writes "
                  "records.csv and pareto.csv")
    sp.add_argument("--plan", metavar="FILE",
                    help="sectioned key = value file: [problem], [eval], "
                         "[instance NAME]...")

    sp = sub("verify-bounds", cmd_verify_bounds, ["plan", "out"],
             help="sampled a posteriori error-bound diagnostics; writes "
                  "bounds.txt")
    sp.add_argument("--plan", metavar="FILE")
    sp.add_argument("--instance", default=None,
                    help="plan instance label (default: first)")
    sp.add_argument("--samples", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--a", type=float, default=None)
    sp.add_argument("--lambda", dest="lam", type=float, default=None)

    if defaults:
        known = set()
        for action in subs.choices.values():
            valid = {a.dest for a in action._actions}
            action.set_defaults(**{k: v for k, v in defaults.items()
                                   if k in valid})
            known |= valid
        unknown = sorted(set(defaults) - known)
        if unknown:
            parser.error("--config: no subcommand takes "
                         + ", ".join(unknown))
    return parser


def dispatch(argv) -> int:
    """Parse and run one invocation; returns the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
        if getattr(args, "config", None):
            cfg = {}
            for k, v in binio.read_meta(args.config).items():
                k = k.replace("-", "_")
                cfg["lam" if k == "lambda" else k] = _coerce(v)
            args = _build_parser(cfg).parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 0
    if args.command is None:
        _build_parser().print_usage(sys.stderr)
        return 2
    missing = [d for d in args.required if getattr(args, d, None) is None]
    if missing:
        flags = ", ".join("--lambda" if d == "lam"
                          else "--" + d.replace("_", "-") for d in missing)
        print(f"error: {args.command}: missing required {flags}",
              file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    try:
        args.func(args, t0)
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    _log(args.command, f"done in {time.perf_counter() - t0:.2f}s "
         f"-> {args.out}")
    return 0


def main() -> int:
    return dispatch(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
