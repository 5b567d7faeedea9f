"""Parameter sweeps, snapshot sets, and bit-exact persistence.

A snapshot set holds one converged FOM solution per training parameter,
each stored once as a column of the full-state matrix, together with the
partition it was generated on and the Newton residual history harvested
per subdomain for hyper-reduction bases.  The per-subdomain
interior/interface matrices and the per-port matrices are row
restrictions of the states, derived through that partition at first use.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from . import binio
from .burgers import A_RANGE, LAM_RANGE, Grid2D, ParameterPoint, solve_monolithic
from .errors import ConvergenceError, FormatError
from .partition import Partition, build_partition


def sample_grid(na: int, nl: int, a_range=A_RANGE, lam_range=LAM_RANGE):
    """Uniform tensor grid of parameters, endpoints included, lam fastest."""
    if na < 2 or nl < 2:
        raise ValueError("need at least 2 samples per direction")
    avals = np.linspace(a_range[0], a_range[1], na)
    lvals = np.linspace(lam_range[0], lam_range[1], nl)
    return [ParameterPoint(a, l) for a in avals for l in lvals]


def split_columns(n_cols: int, seed: int, train_fraction: float = 0.9):
    """Seeded uniform shuffle into (train, validation) column indices."""
    if n_cols < 2:
        raise ValueError("need at least two columns to split")
    perm = np.random.default_rng(seed).permutation(n_cols)
    n_train = max(1, min(n_cols - 1, int(round(train_fraction * n_cols))))
    return np.sort(perm[:n_train]), np.sort(perm[n_train:])


@dataclass(eq=False)
class NormalizationStats:
    """Per-component affine map taking data onto [-1, 1]."""

    shift: np.ndarray
    scale: np.ndarray

    @classmethod
    def from_snapshots(cls, X: np.ndarray) -> "NormalizationStats":
        X = np.atleast_2d(X)
        lo = X.min(axis=1)
        hi = X.max(axis=1)
        shift = 0.5 * (hi + lo)
        scale = 0.5 * (hi - lo)
        constant = scale == 0.0
        scale = np.where(constant, 1.0, scale)
        shift = np.where(constant, lo, shift)
        return cls(shift=shift, scale=scale)

    def normalize(self, X):
        return (X - self._bcast(X, self.shift)) / self._bcast(X, self.scale)

    @staticmethod
    def _bcast(X, v):
        return v[:, None] if np.ndim(X) == 2 else v


@dataclass(eq=False)
class SnapshotSet:
    """Converged FOM states of one sweep, each stored once, on a partition.

    ``interior[i]``, ``interface[i]`` and ``port[j]`` are the rows of
    ``states`` at subdomain ``i``'s or port ``j``'s columns, built at first
    access; ``residual`` is FOM output, harvested per subdomain.
    """

    partition: Partition
    params: list                       # ParameterPoint per column
    states: np.ndarray                 # full states, N_x x n_mu
    residual: dict                     # i -> N_i_res x (total Newton iters)
    failures: list = field(default_factory=list)
    newton_iters: list = field(default_factory=list)

    @property
    def grid(self) -> Grid2D:
        return self.partition.grid

    @property
    def n_mu(self) -> int:
        return len(self.params)

    @cached_property
    def interior(self) -> dict:
        return {s.index: self.states[s.interior_cols]
                for s in self.partition.subdomains}

    @cached_property
    def interface(self) -> dict:
        return {s.index: self.states[s.interface_cols]
                for s in self.partition.subdomains}

    @cached_property
    def port(self) -> dict:
        return {p.index: self.states[p.cols]
                for p in self.partition.ports.ports}


def generate(grid: Grid2D, params, partition: Partition,
             tol: float = 1e-8) -> SnapshotSet:
    """Solve the FOM across ``params`` on ``partition``'s grid.

    Consecutive solves warm-start from the previous converged state (the
    parameter list from :func:`sample_grid` varies lam fastest, so
    neighbors are close).  Non-convergent parameters are recorded in
    ``failures`` and skipped with a warning.  ``grid`` must be
    ``partition.grid``, through which the set reads its restrictions.
    """
    if grid != partition.grid:
        raise ValueError(f"grid {grid} is not the partition's grid")
    cols, kept_params, failures, newton_iters = [], [], [], []
    res_cols = {s.index: [] for s in partition.subdomains}
    for p in params:
        try:
            x, trace = solve_monolithic(
                grid, p, init=cols[-1] if cols else None, tol=tol)
        except ConvergenceError as exc:
            warnings.warn(f"FOM solve failed at ({p.a}, {p.lam}): {exc}")
            failures.append((p, str(exc)))
            continue
        cols.append(x)
        kept_params.append(p)
        newton_iters.append(trace.niter)
        # all pre-update iterates' residuals; the converged tail is ~0 and
        # would only pollute the residual POD scaling
        for sub in partition.subdomains:
            for rvec in trace.residuals[:-1]:
                res_cols[sub.index].append(rvec[sub.res_rows])

    if not cols:
        raise ConvergenceError("every parameter in the sweep failed")

    residual = {
        i: (np.column_stack(v) if v else np.zeros((partition.subdomains[i].n_res, 0)))
        for i, v in res_cols.items()}
    return SnapshotSet(partition=partition, params=kept_params,
                       states=np.column_stack(cols), residual=residual,
                       failures=failures, newton_iters=newton_iters)


def save(snap: SnapshotSet, directory) -> None:
    """Write ``snapshots.bin`` (exactly ``params`` and ``states``),
    ``residuals.bin`` (one ``residual_i`` per subdomain) and ``meta.txt``
    (the grid, the subdomain counts and the sweep's Newton counts)."""
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    binio.write_matrices(d / "snapshots.bin", {
        "params": np.array([[p.a for p in snap.params],
                            [p.lam for p in snap.params]]),
        "states": snap.states})
    binio.write_matrices(d / "residuals.bin",
                         {f"residual_{i}": snap.residual[i]
                          for i in sorted(snap.residual)})
    meta = {
        "nx": snap.grid.nx, "ny": snap.grid.ny, "nu": repr(snap.grid.nu),
        "nsub_x": snap.partition.nsub_x, "nsub_y": snap.partition.nsub_y,
        "n_mu": snap.n_mu,
        "newton_iters": ",".join(map(str, snap.newton_iters)),
        "failures": ";".join(f"({p.a},{p.lam})" for p, _ in snap.failures),
        "written_unix": int(time.time()),
    }
    binio.write_meta(d / "meta.txt", meta)


def load(directory) -> SnapshotSet:
    """Read a directory written by :func:`save`, rebuilding its partition
    from ``meta.txt``.  Any matrix in ``snapshots.bin`` besides ``params``
    and ``states`` is a :class:`FormatError`."""
    d = Path(directory)
    meta = binio.read_meta(d / "meta.txt")
    mats = binio.read_matrices(d / "snapshots.bin")
    res = binio.read_matrices(d / "residuals.bin")
    for name in mats:
        if name not in ("params", "states"):
            raise FormatError(f"unexpected matrix {name!r} in snapshots.bin")
    grid = Grid2D(nx=int(meta["nx"]), ny=int(meta["ny"]),
                  nu=float(meta["nu"]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # tolerate out-of-box stored params
        params = [ParameterPoint(a, l) for a, l in mats["params"].T]
    iters = meta.get("newton_iters", "")
    return SnapshotSet(
        partition=build_partition(grid, int(meta["nsub_x"]),
                                  int(meta["nsub_y"])),
        params=params, states=mats["states"],
        residual={int(k.split("_")[1]): v for k, v in res.items()},
        failures=[], newton_iters=[int(t) for t in iters.split(",") if t])
