"""Benchmark workloads: one offline setup and one online query each.

Everything here reaches the library through module attributes
(``driver.build_lsrom``, ``driver.solve_rom``, ``burgers.solve_monolithic``
...), the same public calls ``driver.benchmark_sweep`` makes, so the
tracer in ``tracing.py`` can wrap them without touching ``src/``.
"""

from __future__ import annotations

import hashlib
import time
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.stats import qmc

import hostspeed
from ddrom import burgers, driver, partition, snapshots
from ddrom.autoencoder import TrainConfig
from ddrom.errors import ConvergenceError
from ddrom.sqp import SqpConfig

#: acceptance criterion 1: the decomposed FOM reproduces monolithic Newton
DD_FOM_MATCH = 1e-8


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                  # "lsrom", "nmrom" or "ddfom"
    nx: int
    ny: int
    cfg: SqpConfig
    n_points: int              # distinct query parameters per seed
    setup_repeats: int         # setups per untraced run; setup_s is their median
    train_grid: int = 10       # train_grid x train_grid (a, lambda) snapshots
    n_int: int = 8
    n_gam: int = 4
    n_c: int = 8
    epochs: int = 300
    hr_rows: int = 100


WORKLOADS = {w.name: w for w in [
    # full-row LS-ROM: subdomain residual/Jacobian path, assembly, problem
    # build and RBF initialization; setup is almost all FOM snapshots
    Workload("ls-wfpc", "lsrom", 120, 12, SqpConfig(tol=1e-4, max_iter=15),
             n_points=32, setup_repeats=2),
    # NM-ROM with collocation HR: decoders, subnets and sampled-row
    # residuals; setup is dominated by autoencoder training, so it runs once
    # per process.  From the RBF guess at small ``a`` the SQP needs up to
    # ~60 iterations, so the budget is 80 rather than 15: slow convergence
    # shows as latency and sqp.iters instead of as failures.
    Workload("nm-wfpc-hr", "nmrom", 60, 8, SqpConfig(tol=1e-4, max_iter=80),
             n_points=32, setup_repeats=1),
    # decomposed FOM from a zero start: the only workload where the dense
    # (n+m) = 1504 KKT solve dominates; tolerance as in acceptance criterion 1
    Workload("dd-fom", "ddfom", 60, 8, SqpConfig(tol=1e-6, max_iter=15),
             n_points=32, setup_repeats=25),
]}


@dataclass(eq=False)
class Setup:
    grid: burgers.Grid2D
    part: partition.Partition
    instance: driver.RomInstance
    training: list             # training ParameterPoints (empty for DD-FOM)


def build(wl: Workload) -> Setup:
    """The offline stage: partition, snapshots, POD or training, HR, RBF."""
    grid = burgers.Grid2D(wl.nx, wl.ny)
    part = partition.build_partition(grid, 2, 2)
    if wl.kind == "ddfom":
        return Setup(grid, part, driver.build_dd_fom(part), [])
    params = snapshots.sample_grid(wl.train_grid, wl.train_grid)
    snap = snapshots.generate(grid, params, part)
    if wl.kind == "lsrom":
        rom = driver.build_lsrom(part, snap, wl.n_int, wl.n_gam, "wfpc",
                                 wfpc_seed=0, n_c=wl.n_c)
    else:
        rom = driver.build_nmrom(part, snap, wl.n_int, wl.n_gam, "wfpc",
                                 train_cfg=TrainConfig(epochs=wl.epochs,
                                                       seed=0),
                                 wfpc_seed=0, n_c=wl.n_c)
        rom = driver.attach_hr(rom, snap, "collocation",
                               n_samples=wl.hr_rows)
    return Setup(grid, part, driver.fit_initializer(rom, snap), params)


def query_points(seed: int, n: int, training) -> list:
    """``n`` scrambled-Sobol parameters in the training box.

    Every prefix of a Sobol sequence covers the box evenly, so the error
    and latency statistics depend little on the seed.  A query never
    equals a training point.
    """
    m = int(np.log2(n))
    if 2 ** m != n:
        raise ValueError("the number of query points must be a power of two")
    u = qmc.Sobol(d=2, scramble=True, seed=seed).random_base2(m)
    lo = np.array([burgers.A_RANGE[0], burgers.LAM_RANGE[0]])
    hi = np.array([burgers.A_RANGE[1], burgers.LAM_RANGE[1]])
    pts = [burgers.ParameterPoint(float(a), float(lam))
           for a, lam in lo + u * (hi - lo)]
    taken = {(t.a, t.lam) for t in training}
    if any((p.a, p.lam) in taken for p in pts):
        raise ValueError("a query parameter coincides with a training point")
    return pts


@dataclass(eq=False)
class QueryResult:
    """One closed-loop query: FOM reference, then the timed ROM solve."""

    fom_s: float
    rom_s: float
    failure: str | None        # None, "line_search", "max_iter" or an error
    n_iter: int = 0
    error: float = np.nan      # driver.relative_error against the FOM
    exact_error: float = np.nan   # the same measure against the exact solution
    digest: str = ""           # x, multipliers, iterations, error: bitwise
    warnings: tuple = ()
    record: driver.BenchmarkRecord | None = None
    newton_iters: int = 0
    check: str | None = None   # why an output check failed
    probe_ms: float = hostspeed.REFERENCE_MS   # host probe around the query


def _digest(sol, n_iter) -> str:
    h = hashlib.sha256()
    for arr in (sol.x_latent, sol.lam, np.asarray([sol.error])):
        h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
    h.update(str(n_iter).encode())
    return h.hexdigest()[:16]


def solve(wl: Workload, s: Setup, p, fom_state, fom_seconds) -> tuple:
    """The online query exactly as a user calls it."""
    x0 = None
    if wl.kind == "ddfom":
        x0 = np.zeros(sum(ni + ng for ni, ng in s.instance.latent_layout))
    return driver.solve_rom(s.instance, p, wl.cfg, x0=x0,
                            fom_state=fom_state, fom_seconds=fom_seconds)


def run_query(wl: Workload, s: Setup, p) -> QueryResult:
    """Time the monolithic Newton reference and the ROM solve at ``p``.

    A ROM solve that raises, or that stops without meeting its tolerance,
    is a failure and keeps its time.  Output checks: the FOM reference
    converges, ROM states and latents are finite, and the decomposed FOM
    matches monolithic Newton within ``DD_FOM_MATCH``.  The host-speed
    probe runs before the reference and after the ROM solve.
    """
    probe_before = hostspeed.probe_ms()
    t0 = time.perf_counter()
    fom_state, newton = burgers.solve_monolithic(s.grid, p)
    fom_s = time.perf_counter() - t0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        try:
            sol, rec = solve(wl, s, p, fom_state, fom_s)
        except (ConvergenceError, RuntimeError) as exc:
            rom_s = time.perf_counter() - t0
            sol = rec = None
            failure = f"{type(exc).__name__}: {exc}"
        else:
            rom_s = time.perf_counter() - t0
            failure = None
    probe = (probe_before + hostspeed.probe_ms()) / 2
    out = QueryResult(fom_s=fom_s, rom_s=rom_s, failure=failure,
                      probe_ms=probe,
                      warnings=tuple(classify(w) for w in caught),
                      newton_iters=newton.niter)
    if not newton.converged:
        out.check = "monolithic Newton reference did not converge"
    if sol is None:
        return out
    res = sol.sqp
    out.record = rec
    out.n_iter = res.n_iter
    out.error = sol.error
    out.digest = _digest(sol, res.n_iter)
    if not res.converged:
        out.failure = res.failure_reason or "max_iter"
    finite = (np.all(np.isfinite(sol.x_latent)) and np.isfinite(sol.error)
              and all(np.all(np.isfinite(b)) for st in sol.states
                      for b in st))
    if not finite:
        out.failure = out.failure or "non-finite"
        out.check = "non-finite ROM state or latent"
        return out
    out.exact_error = driver.relative_error(
        driver.restrict_blocks(s.part, burgers.exact_state(s.grid, p)),
        sol.states)
    if wl.kind == "ddfom" and not sol.error <= DD_FOM_MATCH:
        out.check = (f"DD-FOM misses monolithic Newton by {sol.error:.3e} "
                     f"relative (> {DD_FOM_MATCH:g})")
    return out


def classify(w) -> str:
    """Fallback class of one captured warning."""
    msg = str(w.message)
    if "regularization" in msg and issubclass(w.category, RuntimeWarning):
        return "kkt_regularized"
    if "outside the training box" in msg:
        return "rbf_out_of_box"
    if w.category.__name__ == "LinAlgWarning":
        return "linalg"
    return "other"
