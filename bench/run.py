"""Layered benchmark of ddrom's online queries and offline setup.

Usage, from the repository root::

    python3 bench/run.py --workload ls-wfpc --seed 1 --seconds 24 --trace 0
    python3 bench/run.py --workload all          # every workload, one process each

One run is one fresh process and one closed-loop client: the next query
starts only after the previous one returns.  A query is one held-out
``(a, lambda)``: the monolithic Newton reference is solved and timed, then
``driver.solve_rom`` is timed wall to wall.  Query parameters come from
``--seed``; every program seed (training, WFPC test matrix) stays 0.  The
run repeats passes over the same parameters until ``--seconds`` have gone
by, and checks that every repeat reproduces the first bitwise.  Each
time is rescaled to a reference host speed by a probe kernel timed next
to it (``hostspeed.py``); latency metrics take the median over each
parameter's repeats (``point_ms``), then the median and tail over the
parameters.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced queries and prints the per-layer metrics, taken from
spans recorded around the library's public functions (``tracing.py``).
The last line of standard output is one JSON object; a failed output
check sets ``"correct": false`` and the exit code to 1.  Details
(provenance, every query, the spans) go to ``bench/out/``.
"""

from __future__ import annotations

import os

# serial wall time, and bitwise-repeatable training and errors: pin every
# BLAS/OpenMP pool to one thread before numpy loads
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402  (bench/ is the script's directory)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

E2E_UNITS = {
    "setup_s": "s", "query_ms.p50": "ms", "query_ms.tail": "ms",
    "fom_ms.p50": "ms", "exact_error.mean": "ratio",
    "exact_error.max": "ratio", "success_frac": "ratio",
    "peak_rss_mb": "MB",
}


# -- statistics ------------------------------------------------------------


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of ``n`` samples beyond
    it, and never below the median.

    The samples are the ``n`` distinct parameters (:func:`point_ms`), so
    the percentile does not move when a faster program fits more passes
    into the same seconds.
    """
    return max(50, (100 * (n - 10)) // n)


# -- the measured loop -----------------------------------------------------

#: probe runs on each side of a setup: a setup is one sample, not a pass of
#: repeats, so its probe must not be one jittery reading
SETUP_PROBES = 5


def passes(points, seconds):
    """Point indices in repeated passes: at least one full pass, then
    until ``seconds`` have gone by."""
    deadline = time.perf_counter() + seconds
    k = 0
    while k < len(points) or time.perf_counter() < deadline:
        yield k % len(points)
        k += 1


@dataclass(eq=False)
class Run:
    """What one benchmark process measured."""

    setup: object                  # workloads.Setup
    points: list                   # the distinct query parameters
    setup_s: list                  # wall seconds of each setup
    setup_probe_ms: list           # host probe around each setup
    samples: list = field(default_factory=list)   # (point, untraced result)
    traced: list = field(default_factory=list)    # (point, traced result)
    first: dict = field(default_factory=dict)     # point -> first result
    problems: list = field(default_factory=list)  # failed output checks


def measure(wl, seed, seconds, tracer=None) -> Run:
    """Set up, warm up, then query in passes over the same parameters.

    Every repeat must reproduce the first query at its parameter bitwise.
    With a tracer, each query runs untraced and then traced, so both see
    the same machine, and the traced one must match the untraced bitwise.
    """
    import workloads

    setup_s, setup_probe = [], []
    for _ in range(1 if tracer else wl.setup_repeats):
        before = hostspeed.probe_ms(SETUP_PROBES)
        t0 = time.perf_counter()
        with tracer.active("setup") if tracer else nullcontext():
            s = workloads.build(wl)
        setup_s.append(time.perf_counter() - t0)
        setup_probe.append((before + hostspeed.probe_ms(SETUP_PROBES)) / 2)
    r = Run(s, workloads.query_points(seed, wl.n_points, s.training),
            setup_s, setup_probe)
    for p in r.points[:2]:                  # warm-up, not measured
        workloads.run_query(wl, s, p)
    for k, i in enumerate(passes(r.points, seconds)):
        q = workloads.run_query(wl, s, r.points[i])
        r.samples.append((i, q))
        first = r.first.setdefault(i, q)
        if (q.digest, q.failure) != (first.digest, first.failure):
            r.problems.append(f"query {i} did not repeat bitwise")
        if tracer is None:
            continue
        with tracer.active(k):
            qt = workloads.run_query(wl, s, r.points[i])
        r.traced.append((i, qt))
        if (qt.digest, qt.failure, qt.n_iter) != (q.digest, q.failure,
                                                  q.n_iter):
            r.problems.append(f"traced query {i} differs from untraced")
    if tracer is not None:
        r.problems += [f"tracer left {owner.__name__}.{attr} wrapped"
                       for owner, attr, original in tracer.originals
                       if vars(owner).get(attr) is not original]
    r.problems += [f"query {i}: {q.check}"
                   for i, q in list(r.first.items()) + r.traced if q.check]
    if not any(np.isfinite(q.exact_error) for q in r.first.values()):
        r.problems.append("no query returned a finite state")
    return r


# -- metrics ---------------------------------------------------------------


def point_ms(samples, attr) -> list:
    """Milliseconds at the reference host speed (``hostspeed``) of each
    distinct parameter: the median over its repeats.

    A query is deterministic, so its repeats do the same work; the median
    drops what the probe did not cancel of the host's jitter, where a
    minimum would pick the repeats whose probe read slow.  The spread
    across parameters (SQP iterations, Newton steps) is kept.
    """
    times = defaultdict(list)
    for i, q in samples:
        times[i].append(
            hostspeed.at_reference(getattr(q, attr), q.probe_ms) * 1e3)
    return [statistics.median(times[i]) for i in sorted(times)]


def raw_summary(r: Run) -> str:
    """Medians of the unscaled wall times and of the probe, for the log."""
    med = statistics.median
    return (f"raw wall medians: setup_s {med(r.setup_s):.6g}, query_ms "
            f"{med(q.rom_s for _, q in r.samples) * 1e3:.6g}, fom_ms "
            f"{med(q.fom_s for _, q in r.samples) * 1e3:.6g}; probe_ms "
            f"{med(q.probe_ms for _, q in r.samples):.6g} (reference "
            f"{hostspeed.REFERENCE_MS})")


def end_to_end(wl, r: Run) -> dict:
    rom_ms = point_ms(r.samples, "rom_s")
    failed = sum(q.failure is not None for _, q in r.samples)
    exact = [q.exact_error for q in r.first.values()
             if np.isfinite(q.exact_error)] or [0.0]
    return {
        "setup_s": statistics.median(
            hostspeed.at_reference(t, p)
            for t, p in zip(r.setup_s, r.setup_probe_ms)),
        "query_ms.p50": statistics.median(rom_ms),
        "query_ms.tail": float(np.percentile(
            rom_ms, tail_percentile(wl.n_points))),
        "fom_ms.p50": statistics.median(point_ms(r.samples, "fom_s")),
        "exact_error.mean": statistics.fmean(exact),
        "exact_error.max": max(exact),
        "success_frac": 1.0 - failed / len(r.samples),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


# per-query phases of driver.solve_rom: its direct child spans
PHASES = {
    "burgers.assemble": "driver.assemble_ms",
    "driver.build_problem": "driver.build_problem_ms",
    "driver.init_guess": "driver.init_guess_ms",
    "driver.multiplier_ls": "driver.init_guess_ms",   # DD-FOM: given x0
    "driver.iterate": "driver.iterate_ms",
    "driver.decode": "driver.decode_ms",
    "driver.error": "driver.error_ms",
}

# inclusive time per query of spans anywhere inside driver.solve_rom
QUERY_LAYERS = {
    "driver.rbf_query": "driver.rbf_query_ms",
    "driver.multiplier_ls": "driver.multiplier_ls_ms",
    "sqp.kkt": "sqp.kkt_ms",
    "partition.residual": "partition.residual_ms",
    "partition.jacobian": "partition.jacobian_ms",
    "autoencoder.decode": "autoencoder.decode_ms",
    "autoencoder.jacobian": "autoencoder.jacobian_ms",
    "hyper.subnet_decode": "hyper.subnet_decode_ms",
    "hyper.subnet_jacobian": "hyper.subnet_jacobian_ms",
    "hyper.extract_subnet": "hyper.extract_subnet_ms",
}

# inclusive seconds of one traced setup
SETUP_LAYERS = {
    "partition.build": "partition.build_s",
    "snapshots.generate": "snapshots.generate_s",
    "pod.fit": "pod.fit_s",
    "autoencoder.train": "autoencoder.train_s",
    "hyper.greedy_sample": "hyper.greedy_sample_s",
    "driver.build_rom": "driver.build_rom_s",
    "driver.attach_hr": "driver.attach_hr_s",
    "driver.fit_initializer": "driver.fit_initializer_s",
}

PER_LAYER_UNITS = {
    **{m: "ms" for m in PHASES.values()},
    "driver.unaccounted_ms": "ms", "driver.query_ms": "ms",
    **{m: "ms" for m in QUERY_LAYERS.values()},
    **{m: "s" for m in SETUP_LAYERS.values()},
    "burgers.assemble_ms": "ms", "burgers.jacobian_ms": "ms",
    "burgers.newton_iters": "count",
    "autoencoder.epochs_run": "count", "autoencoder.epoch_ms": "ms",
    "autoencoder.parameter_count": "count",
    "hyper.sampled_rows": "count",
    "partition.rows_evaluated": "count",
    "sqp.iters": "count", "sqp.trial_evals": "count",
    "sqp.halvings": "count", "sqp.eval_gradients_ms": "ms",
    "sqp.block_ms": "ms", "sqp.kkt_dim": "count",
    "sqp.kkt_flops_computed": "flop", "sqp.kkt_regularized": "count",
    "fallback.linalg_warnings": "count", "fallback.rbf_out_of_box": "count",
    "fallback.line_search": "count",
    "driver.parallel_model_ms": "ms", "speedup.parallel_model": "ratio",
    "speedup.measured": "ratio",
    "rom.rel_error.mean": "ratio", "rom.rel_error.max": "ratio",
    "trace.overhead_ms": "ms", "trace.span_coverage": "ratio",
    "host.probe_ms": "ms",
}


def per_layer(r: Run, tracer) -> dict:
    """Per-layer metrics; times and counts are means per traced query,
    setup stages are seconds of the one traced setup."""
    import tracing

    spans = tracer.spans
    root = tracing.roots(spans)
    m = defaultdict(float)
    n_q = n_fom = 0
    covered = total = 0.0
    for i, (name, t0, t1, parent, query, info) in enumerate(spans):
        dur = t1 - t0
        top = spans[root[i]]
        if query == "setup":
            if name in SETUP_LAYERS:
                m[SETUP_LAYERS[name]] += dur
            if name == "autoencoder.train":
                m["autoencoder.epochs_run"] += info["epochs"]
            continue
        if top[0] == "burgers.solve_monolithic":
            if name == "burgers.solve_monolithic":
                n_fom += 1
                m["burgers.newton_iters"] += info["newton_iters"]
            elif name in ("burgers.assemble", "burgers.jacobian"):
                m[name + "_ms"] += dur * 1e3
            continue
        if top[0] != "driver.solve_rom":
            continue
        if name == "driver.solve_rom":
            n_q += 1
            total += dur
            m["driver.query_ms"] += dur * 1e3
            m["driver.parallel_model_ms"] += info["parallel_s"] * 1e3
            m["speedup.parallel_model"] += info["speedup_model"]
            continue
        if parent == root[i] and name in PHASES:
            m[PHASES[name]] += dur * 1e3
            covered += dur
        if name in QUERY_LAYERS:
            m[QUERY_LAYERS[name]] += dur * 1e3
        if name == "driver.iterate":
            m["sqp.iters"] += info["iters"]
            m["sqp.halvings"] += info["halvings"]
            m["sqp.trial_evals"] -= 1       # the initial evaluation
        elif name == "sqp.eval_gradients" and spans[parent][0] == \
                "driver.iterate":
            m["sqp.trial_evals"] += 1
            m["sqp.eval_gradients_ms"] += dur * 1e3
            m["sqp.block_ms"] += info["block_s"] * 1e3
        elif name == "sqp.kkt":
            m["sqp.kkt_dim"] = max(m["sqp.kkt_dim"], info["dim"])
            m["sqp.kkt_flops_computed"] += 2.0 / 3.0 * info["dim"] ** 3
        elif name == "partition.residual":
            m["partition.rows_evaluated"] += info["rows"]

    out = {}
    for key in PER_LAYER_UNITS:
        v = m.get(key, 0.0)
        if key in SETUP_LAYERS.values() or key in ("autoencoder.epochs_run",
                                                   "sqp.kkt_dim"):
            out[key] = v
        elif key.startswith("burgers."):
            out[key] = v / max(n_fom, 1)
        else:
            out[key] = v / max(n_q, 1)
    out["driver.unaccounted_ms"] = (total - covered) * 1e3 / max(n_q, 1)
    out["trace.span_coverage"] = covered / total if total else 0.0
    out["autoencoder.epoch_ms"] = (1e3 * out["autoencoder.train_s"]
                                   / out["autoencoder.epochs_run"]
                                   if out["autoencoder.epochs_run"] else 0.0)
    inst = r.setup.instance
    maps = inst.interior_maps + inst.interface_maps
    out["autoencoder.parameter_count"] = sum(
        mp.parameter_count() for mp in maps if hasattr(mp, "parameter_count"))
    out["hyper.sampled_rows"] = (
        sum(op.rows.size for op in inst.hr if op.mode != "none")
        if inst.hr else 0)

    kinds = Counter(w for _, qt in r.traced for w in qt.warnings)
    n = max(len(r.traced), 1)
    out["sqp.kkt_regularized"] = kinds["kkt_regularized"] / n
    out["fallback.linalg_warnings"] = kinds["linalg"] / n
    out["fallback.rbf_out_of_box"] = kinds["rbf_out_of_box"] / n
    out["fallback.line_search"] = sum(
        qt.failure == "line_search" for _, qt in r.traced) / n

    plain = statistics.median(point_ms(r.samples, "rom_s"))
    out["trace.overhead_ms"] = statistics.median(
        point_ms(r.traced, "rom_s")) - plain
    out["speedup.measured"] = statistics.median(
        point_ms(r.samples, "fom_s")) / plain
    errs = [q.error for q in r.first.values()
            if np.isfinite(q.error)] or [0.0]
    out["rom.rel_error.mean"] = statistics.fmean(errs)
    out["rom.rel_error.max"] = max(errs)
    out["host.probe_ms"] = statistics.median(q.probe_ms for _, q in r.samples)
    return out


# -- provenance and output -------------------------------------------------


def git_sha(root: Path):
    """HEAD of the checkout if it is a git work tree, read from files."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def provenance(seed):
    import scipy

    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ddrom").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha(ROOT), "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "platform": platform.platform(),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "workload_seed": seed, "program_seeds": {"train": 0, "wfpc": 0},
    }


def query_rows(r: Run) -> list:
    return [{
        "traced": tag, "point": i, "a": r.points[i].a,
        "lambda": r.points[i].lam, "fom_ms": q.fom_s * 1e3,
        "rom_ms": q.rom_s * 1e3, "probe_ms": q.probe_ms,
        "sqp_iters": q.n_iter,
        "newton_iters": q.newton_iters, "error": q.error,
        "exact_error": q.exact_error, "failure": q.failure,
        "warnings": list(q.warnings), "digest": q.digest,
        # the one-subdomain-per-processor model of driver.BenchmarkRecord
        "parallel_model_ms": (q.record.parallel_seconds * 1e3
                              if q.record else None),
        "speedup_model": q.record.speedup if q.record else None,
    } for tag, items in ((False, r.samples), (True, r.traced))
        for i, q in items]


def run(name, seed, seconds, trace):
    import tracing
    import workloads

    wl = workloads.WORKLOADS[name]
    tracer = tracing.Tracer() if trace else None
    r = measure(wl, seed, seconds, tracer)
    if trace:
        metrics, units = per_layer(r, tracer), PER_LAYER_UNITS
    else:
        metrics, units = end_to_end(wl, r), E2E_UNITS
    result = {
        "correct": not r.problems,
        "attempted": len(r.samples),
        "failed": sum(q.failure is not None for _, q in r.samples),
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    }
    details = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "provenance": provenance(seed), "result": result,
        "tail_percentile": tail_percentile(wl.n_points),
        "setup_s": r.setup_s, "setup_probe_ms": r.setup_probe_ms,
        "reference_probe_ms": hostspeed.REFERENCE_MS, "problems": r.problems,
        "queries": query_rows(r), "spans": tracer.spans if tracer else [],
    }
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{name}-seed{seed}-trace{trace}.json"
    out_file.write_text(json.dumps(details, default=str))
    print(f"# {name} seed={seed} seconds={seconds} trace={trace} "
          f"details={out_file.relative_to(ROOT)}")
    print("# provenance " + json.dumps(details["provenance"]))
    print(f"# {len(r.samples)} queries over {wl.n_points} parameters; "
          f"query_ms.tail is p{details['tail_percentile']}")
    print("# " + raw_summary(r))
    for k, v in result["metrics"].items():
        print(f"{name:>11}  {k:<28} {v['value']:>14.6g} {v['unit']}")
    for msg in r.problems:
        print(f"# CHECK FAILED: {msg}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args):
    """Each workload in its own fresh process, one after the other."""
    import workloads

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        print(proc.stdout, end="")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"error: workload {name} exited with {proc.returncode}",
                  file=sys.stderr)
            return 2
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update(
            {f"{name}/{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ddrom" / "__init__.py").is_file():
        print(f"error: no ddrom sources under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import workloads
    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from "
                 f"{', '.join(workloads.WORKLOADS)} or all")
    if args.workload == "all":
        return run_all(args)
    return run(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
