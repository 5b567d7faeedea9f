"""Parameter sweeps, snapshot restriction, and bit-exact persistence.

A snapshot set holds one converged FOM solution per training parameter,
restricted top-down to per-subdomain interior/interface matrices and
per-port matrices, plus the Newton residual history harvested for
hyper-reduction bases.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import binio
from .burgers import A_RANGE, LAM_RANGE, Grid2D, ParameterPoint, solve_monolithic
from .errors import ConvergenceError, FormatError
from .partition import Partition


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
    """Restricted training data for one (grid, partition) configuration."""

    grid: Grid2D
    nsub_x: int
    nsub_y: int
    params: list                       # ParameterPoint per column
    states: np.ndarray                 # full states, N_x x n_mu
    interior: dict                     # i -> N_i_interior x n_mu
    interface: dict                    # i -> N_i_interface x n_mu
    port: dict                         # j -> N_j_p x n_mu
    residual: dict                     # i -> N_i_res x (total Newton iters)
    failures: list = field(default_factory=list)
    newton_iters: list = field(default_factory=list)

    @property
    def n_mu(self) -> int:
        return len(self.params)

    def check_port_consistency(self, partition: Partition):
        """Exact port/interface agreement for every port member."""
        for p in partition.ports.ports:
            for i in p.members:
                pos = partition.ports.member_positions(p.index, i)
                if not np.array_equal(self.port[p.index],
                                      self.interface[i][pos, :]):
                    raise AssertionError(
                        f"port {p.index} disagrees with subdomain {i}")


def generate(grid: Grid2D, params, partition: Partition,
             tol: float = 1e-8) -> SnapshotSet:
    """Solve the FOM across ``params`` and restrict the results.

    Consecutive solves warm-start from the previous converged state (the
    parameter list from :func:`sample_grid` varies lam fastest, so
    neighbors are close).  Non-convergent parameters are recorded in
    ``failures`` and skipped with a warning.
    """
    cols = []
    kept_params = []
    failures = []
    newton_iters = []
    res_cols = {s.index: [] for s in partition.subdomains}
    prev = None
    for p in params:
        try:
            x, trace = solve_monolithic(grid, p, init=prev, tol=tol)
        except ConvergenceError as exc:
            warnings.warn(f"FOM solve failed at ({p.a}, {p.lam}): {exc}")
            failures.append((p, str(exc)))
            continue
        prev = x
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

    states = np.column_stack(cols)
    interior = {}
    interface = {}
    for sub in partition.subdomains:
        interior[sub.index] = states[sub.interior_cols, :]
        interface[sub.index] = states[sub.interface_cols, :]
    port = {}
    for pt in partition.ports.ports:
        i = pt.members[0]
        pos = partition.ports.member_positions(pt.index, i)
        port[pt.index] = interface[i][pos, :]
    residual = {
        i: (np.column_stack(v) if v else np.zeros((partition.subdomains[i].n_res, 0)))
        for i, v in res_cols.items()}

    out = SnapshotSet(grid=grid, nsub_x=partition.nsub_x,
                      nsub_y=partition.nsub_y, params=kept_params,
                      states=states, interior=interior, interface=interface,
                      port=port, residual=residual, failures=failures,
                      newton_iters=newton_iters)
    out.check_port_consistency(partition)
    return out


def save(snap: SnapshotSet, directory) -> None:
    """Write ``snapshots.bin``, ``residuals.bin`` and ``meta.txt``."""
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    mats = {"params": np.array([[p.a for p in snap.params],
                                [p.lam for p in snap.params]]),
            "states": snap.states}
    for i in sorted(snap.interior):
        mats[f"interior_{i}"] = snap.interior[i]
        mats[f"interface_{i}"] = snap.interface[i]
    for j in sorted(snap.port):
        mats[f"port_{j}"] = snap.port[j]
    binio.write_matrices(d / "snapshots.bin", mats)
    binio.write_matrices(d / "residuals.bin",
                         {f"residual_{i}": snap.residual[i]
                          for i in sorted(snap.residual)})
    meta = {
        "nx": snap.grid.nx, "ny": snap.grid.ny, "nu": repr(snap.grid.nu),
        "nsub_x": snap.nsub_x, "nsub_y": snap.nsub_y,
        "n_mu": snap.n_mu,
        "newton_iters": ",".join(map(str, snap.newton_iters)),
        "failures": ";".join(f"({p.a},{p.lam})" for p, _ in snap.failures),
        "written_unix": int(time.time()),
    }
    binio.write_meta(d / "meta.txt", meta)


def load(directory) -> SnapshotSet:
    """Read a directory written by :func:`save`."""
    d = Path(directory)
    meta = binio.read_meta(d / "meta.txt")
    mats = binio.read_matrices(d / "snapshots.bin")
    res = binio.read_matrices(d / "residuals.bin")
    grid = Grid2D(nx=int(meta["nx"]), ny=int(meta["ny"]),
                  nu=float(meta["nu"]))
    pm = mats.pop("params")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # tolerate out-of-box stored params
        params = [ParameterPoint(a, l) for a, l in pm.T]
    interior, interface, port = {}, {}, {}
    for name, arr in mats.items():
        if name.startswith("interior_"):
            interior[int(name.split("_")[1])] = arr
        elif name.startswith("interface_"):
            interface[int(name.split("_")[1])] = arr
        elif name.startswith("port_"):
            port[int(name.split("_")[1])] = arr
        elif name != "states":
            raise FormatError(f"unexpected matrix {name!r} in snapshots.bin")
    iters = meta.get("newton_iters", "")
    return SnapshotSet(
        grid=grid, nsub_x=int(meta["nsub_x"]), nsub_y=int(meta["nsub_y"]),
        params=params, states=mats["states"], interior=interior,
        interface=interface, port=port,
        residual={int(k.split("_")[1]): v for k, v in res.items()},
        failures=[], newton_iters=[int(t) for t in iters.split(",") if t])
