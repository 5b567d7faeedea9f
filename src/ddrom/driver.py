"""Assembles partitions, reduction maps, HR operators and the SQP solver
into runnable decomposed ROMs.

A :class:`RomInstance` bundles per-subdomain interior and interface maps
(POD bases or autoencoders behind one decode/encode/jacobian duck type)
with one of two coupling modes:

* ``wfpc`` -- weak FOM-port constraints: the decoded interface traces are
  tied together through the FOM port constraint matrix compressed by a
  seeded Gaussian test matrix C;
* ``srpc`` -- strong ROM-port constraints: interface maps are assembled
  from shared port maps and the constraint acts linearly on latent blocks.

The module also houses RBF initialization, the relative state error used
throughout the benchmarks, sampled residual-bound diagnostics, and the
sweep harness that writes records.csv / pareto.csv.
"""

from __future__ import annotations

import csv
import time
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.interpolate import RBFInterpolator

from .autoencoder import TrainConfig, assemble_srpc_interface, build_mask, \
    train
from .burgers import FomOperators, ParameterPoint, assemble, \
    solve_monolithic
from .errors import ConvergenceError
from .hyper import extract_subnet, greedy_sample, hr_collocation, hr_gappy, \
    hr_none, hr_rows_for_subdomain
from .partition import Partition, RestrictedResidual, \
    assemble_fom_constraints, assemble_rom_constraints
from .pod import LinearMap, pod, port_interface_basis
from .sqp import SqpBlock, SqpConfig, SqpEval, SqpProblem, SqpResult, \
    eval_gradients, is_square, iterate

BOUND_REL_SCALE = 0.05  # verify_bounds' latent perturbation, relative
MASK = (5, 5)         # (band, shift) of the Swish interior/interface nets
PORT_MASK = (3, 3)    # (band, shift) of the Sigmoid port nets
HR_ENERGY = 1e-10     # discarded-energy tolerance of the residual POD basis


def port_latent_dims(port_table, n_request: int) -> dict:
    """Per-port latent dims: the requested size, capped below the port
    size and floored at one."""
    return {p.index: max(min(p.size - 1, n_request), 1)
            for p in port_table.ports}


def wfpc_test_matrix(n_c: int, n_rows: int, seed: int) -> np.ndarray:
    """Seeded Gaussian compression C of the FOM port constraints."""
    if not 1 <= n_c <= n_rows:
        raise ValueError("n_c must lie in [1, number of FOM constraints]")
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n_c, n_rows)) / np.sqrt(n_c)


@dataclass(eq=False)
class RbfInitializer:
    """Thin-plate-spline interpolant of latent coordinates over the
    parameter box, fitted on unit-square-normalized parameters."""

    lo: np.ndarray = field(repr=False)
    hi: np.ndarray = field(repr=False)
    _rbf: RBFInterpolator = field(repr=False, default=None)

    @classmethod
    def fit(cls, params, latents):
        pts = np.asarray([[p.a, p.lam] for p in params], dtype=float)
        latents = np.asarray(latents, dtype=float)
        if pts.shape[0] != latents.shape[0] or pts.shape[0] < 3:
            raise ValueError("need >= 3 matching parameter/latent rows")
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        span = np.where(hi > lo, hi - lo, 1.0)
        rbf = RBFInterpolator((pts - lo) / span, latents,
                              kernel="thin_plate_spline")
        return cls(lo=lo, hi=hi, _rbf=rbf)

    def query(self, p: ParameterPoint) -> np.ndarray:
        q = np.array([p.a, p.lam], dtype=float)
        span = np.where(self.hi > self.lo, self.hi - self.lo, 1.0)
        qn = (q - self.lo) / span
        if np.any(qn < -0.1) or np.any(qn > 1.1):
            warnings.warn(
                f"initializing far outside the training box at {q}",
                RuntimeWarning, stacklevel=2)
        return self._rbf(qn[None, :])[0]


@dataclass(eq=False)
class RomInstance:
    """Everything needed to evaluate one decomposed ROM configuration.

    ``coupling`` holds one block per subdomain of the coupling constraint
    ``sum_i coupling[i] y_i = 0``.  Under ``wfpc`` ``y_i`` is the decoded
    interface trace and the block is ``C A_i`` (dense), or ``A_i`` (CSR)
    for the decomposed FOM; under ``srpc`` ``y_i`` is the interface latent
    and the block is the ROM port constraint block ``Ahat_i`` (dense).
    ``hr`` defaults to no HR, every residual row, on each subdomain.
    """

    partition: Partition
    interior_maps: list = field(repr=False)
    interface_maps: list = field(repr=False)
    constraint_mode: str
    coupling: list = field(repr=False)
    hr: list = field(repr=False, default=None)
    initializer: RbfInitializer | None = field(repr=False, default=None)
    provenance: dict = field(default_factory=dict)
    # per-subdomain evaluation structure, built by the first build_problem;
    # not an init field, so dataclasses.replace starts with an empty one
    _structure: list | None = field(repr=False, default=None, init=False)

    def __post_init__(self):
        subs = self.partition.subdomains
        n = len(subs)
        if len(self.interior_maps) != n or len(self.interface_maps) != n:
            raise ValueError("one interior and one interface map per "
                             "subdomain required")
        for i, sub in enumerate(subs):
            if self.interior_maps[i].ambient_dim != sub.n_interior:
                raise ValueError(f"interior map {i} has wrong ambient dim")
            if self.interface_maps[i].ambient_dim != sub.n_interface:
                raise ValueError(f"interface map {i} has wrong ambient dim")
        if self.constraint_mode not in ("wfpc", "srpc"):
            raise ValueError("constraint mode must be 'wfpc' or 'srpc'")
        if len(self.coupling) != n:
            raise ValueError("one coupling block per subdomain required")
        for i, (block, g) in enumerate(zip(self.coupling,
                                           self.interface_maps)):
            width = (g.ambient_dim if self.constraint_mode == "wfpc"
                     else g.latent_dim)
            if block.shape != (self.n_mult, width):
                raise ValueError(f"subdomain {i}: coupling block shape "
                                 f"{block.shape} != ({self.n_mult}, {width})")
        if self.hr is None:
            self.hr = [hr_none(sub.n_res) for sub in subs]

    @property
    def n_mult(self) -> int:
        return self.coupling[0].shape[0]

    @property
    def latent_layout(self):
        """(n_int, n_gam) per subdomain, in SQP stacking order."""
        return [(m.latent_dim, g.latent_dim)
                for m, g in zip(self.interior_maps, self.interface_maps)]

    def split_latent(self, x: np.ndarray):
        out, off = [], 0
        for ni, ng in self.latent_layout:
            out.append((x[off:off + ni], x[off + ni:off + ni + ng]))
            off += ni + ng
        return out

    def decode(self, x: np.ndarray):
        """Full per-subdomain decoded states [(x_int, x_gam), ...]."""
        return [(self.interior_maps[i].decode(xi),
                 self.interface_maps[i].decode(xg))
                for i, (xi, xg) in enumerate(self.split_latent(x))]


# -- builders ------------------------------------------------------------


def build_dd_fom(partition: Partition) -> RomInstance:
    """Identity maps, B = I, C = I: the decomposed FOM as a ROM instance."""
    return RomInstance(
        partition=partition,
        interior_maps=[LinearMap(sp.identity(s.n_interior, format="csr"))
                       for s in partition.subdomains],
        interface_maps=[LinearMap(sp.identity(s.n_interface, format="csr"))
                        for s in partition.subdomains],
        constraint_mode="wfpc",
        coupling=assemble_fom_constraints(partition.ports).blocks,
        provenance={"rom": "dd-fom", "constraint": "wfpc", "hr": "none"})


def default_n_c(part, n_gam: int, n_rows: int) -> int:
    """Twice the SRPC constraint count at the same interface dims, capped
    at the ``n_rows`` FOM constraints."""
    dims = port_latent_dims(part.ports, n_gam)
    srpc_rows = sum((len(p.members) - 1) * dims[p.index]
                    for p in part.ports.ports)
    return min(max(2 * srpc_rows, 1), n_rows)


def pod_maps(partition: Partition, snap, n_int: int, n_gam: int,
             constraint: str = "wfpc") -> dict:
    """POD maps for one LS-ROM configuration, in ``train_nets``' layout;
    each basis is capped by its snapshots' shape and numerical rank."""
    def fit(X, n):
        return LinearMap(pod(X, fixed_n=min(n, *X.shape)).Phi)

    subs = range(partition.n_sub)
    maps = {"interior": [fit(snap.interior[i], n_int) for i in subs]}
    if constraint == "wfpc":
        maps["interface"] = [fit(snap.interface[i], n_gam) for i in subs]
    else:
        maps["port"] = {j: fit(snap.port[j], d) for j, d in
                        port_latent_dims(partition.ports, n_gam).items()}
    return maps


def instance_from_maps(partition: Partition, maps: dict, provenance: dict,
                       *, n_gam: int, n_c: int | None = None,
                       wfpc_seed: int = 0) -> RomInstance:
    """Couple a map set (``pod_maps``/``train_nets`` layout) into a ROM
    instance; its layout picks the coupling mode.

    An ``"interface"`` set is coupled by ``wfpc``: the decoded interface
    traces are tied through the FOM port constraints compressed by a
    seeded C with ``n_c`` rows (default from the requested ``n_gam``).  A
    ``"port"`` set is coupled by ``srpc``: each interface map is assembled
    from the port maps, and the ROM port constraints act on port latent
    blocks of the port maps' latent dims.
    """
    interior = maps["interior"]
    if "interface" in maps:
        A = assemble_fom_constraints(partition.ports)
        if n_c is None:
            n_c = default_n_c(partition, n_gam, A.n_rows)
        C = wfpc_test_matrix(n_c, A.n_rows, wfpc_seed)
        return RomInstance(partition=partition, interior_maps=interior,
                           interface_maps=maps["interface"],
                           constraint_mode="wfpc",
                           coupling=[C @ A_i.toarray() for A_i in A.blocks],
                           provenance=provenance)
    ports, pt = maps["port"], partition.ports
    linear = all(isinstance(m, LinearMap) for m in ports.values())
    gams = [LinearMap(port_interface_basis(pt, ports, i)) if linear
            else assemble_srpc_interface(pt, ports, i)
            for i in range(partition.n_sub)]
    dims = {j: m.latent_dim for j, m in ports.items()}
    return RomInstance(partition=partition, interior_maps=interior,
                       interface_maps=gams, constraint_mode="srpc",
                       coupling=[b.toarray() for b in
                                 assemble_rom_constraints(pt, dims).blocks],
                       provenance=provenance)


def build_lsrom(partition: Partition, snap, n_int: int, n_gam: int,
                constraint: str = "wfpc", *, wfpc_seed: int = 0,
                n_c: int | None = None) -> RomInstance:
    """POD-based ROM: interior bases per subdomain; interface bases per
    subdomain (wfpc) or assembled from per-port bases (srpc)."""
    prov = {"rom": "lsrom", "constraint": constraint, "hr": "none",
            "n_int": n_int, "n_gam": n_gam}
    return instance_from_maps(
        partition, pod_maps(partition, snap, n_int, n_gam, constraint),
        prov, n_gam=n_gam, n_c=n_c, wfpc_seed=wfpc_seed)


def train_nets(partition: Partition, snap, n_int: int, n_gam: int,
               constraint: str = "wfpc", *,
               train_cfg: TrainConfig = TrainConfig()):
    """Train the decoder nets for one NM-ROM configuration.

    Returns ``{"interior": [net, ...], "interface": [net, ...]}`` for
    wfpc and ``{"interior": ..., "port": {j: net}}`` for srpc: Swish nets
    masked by ``MASK``, Sigmoid port nets by ``PORT_MASK``, each seeded
    deterministically from ``train_cfg.seed``.
    """
    nsub = len(partition.subdomains)

    def fit(X, n, tag, offset, mask):
        cfg = replace(train_cfg, seed=train_cfg.seed + offset)
        n_eff = max(1, min(n, X.shape[0] - 1))
        ae, _ = train(X, build_mask(X.shape[0], *mask), n_eff, cfg,
                      activation=tag)
        return ae

    nets = {"interior": [fit(snap.interior[i], n_int, "swish", 100 + i,
                             MASK) for i in range(nsub)]}
    if constraint == "wfpc":
        nets["interface"] = [fit(snap.interface[i], n_gam, "swish",
                                 200 + i, MASK) for i in range(nsub)]
    else:
        dims = port_latent_dims(partition.ports, n_gam)
        nets["port"] = {j: fit(snap.port[j], dims[j], "sigmoid", 300 + j,
                               PORT_MASK) for j in dims}
    return nets


def build_nmrom(partition: Partition, snap, n_int: int, n_gam: int,
                constraint: str = "wfpc", *,
                train_cfg: TrainConfig = TrainConfig(),
                wfpc_seed: int = 0, n_c: int | None = None) -> RomInstance:
    """Autoencoder ROM: the ``train_nets`` nets, with srpc port nets
    assembled into interface decoders, coupled by ``instance_from_maps``."""
    nets = train_nets(partition, snap, n_int, n_gam, constraint,
                      train_cfg=train_cfg)
    prov = {"rom": "nmrom", "constraint": constraint, "hr": "none",
            "n_int": n_int, "n_gam": n_gam, "seed": train_cfg.seed}
    return instance_from_maps(partition, nets, prov, n_gam=n_gam, n_c=n_c,
                              wfpc_seed=wfpc_seed)


def hr_sample(residual_snapshots: np.ndarray, n_res: int, n_samples: int):
    """Residual POD basis at discarded-energy tolerance ``HR_ENERGY`` and
    its greedy sample rows: ``n_samples`` of them, at least one per basis
    column, at most ``n_res``.  Returns ``(rows, basis)``."""
    basis = pod(residual_snapshots, tol=HR_ENERGY).Phi
    ns = min(max(n_samples, basis.shape[1]), n_res)
    return greedy_sample(basis, ns), basis


def hr_operator(mode: str, rows, basis: np.ndarray, n_res: int):
    """Collocation or gappy HR operator on the sampled ``rows``."""
    if mode == "collocation":
        return hr_collocation(rows, n_res)
    if mode == "gappy":
        return hr_gappy(rows, basis)
    raise ValueError("hr mode must be collocation or gappy")


def attach_hr(instance: RomInstance, snap, mode: str,
              n_samples: int = 100) -> RomInstance:
    """Return a copy of ``instance`` with per-subdomain HR operators built
    from residual snapshots by ``hr_sample`` and ``hr_operator``."""
    if mode not in ("collocation", "gappy"):
        raise ValueError("hr mode must be collocation or gappy")
    ops = []
    for i, sub in enumerate(instance.partition.subdomains):
        rows, basis = hr_sample(snap.residual[i], sub.n_res, n_samples)
        ops.append(hr_operator(mode, rows, basis, sub.n_res))
    return replace(instance, hr=ops,
                   provenance={**instance.provenance, "hr": mode,
                               "hr_samples": n_samples})


def fit_initializer(instance: RomInstance, snap) -> RomInstance:
    """Encode every training snapshot and fit the latent RBF model."""
    rows = []
    for k in range(snap.n_mu):
        parts = []
        for i in range(len(instance.partition.subdomains)):
            parts.append(instance.interior_maps[i].encode(
                snap.interior[i][:, k]))
            parts.append(instance.interface_maps[i].encode(
                snap.interface[i][:, k]))
        rows.append(np.concatenate(parts))
    init = RbfInitializer.fit(snap.params, np.vstack(rows))
    return replace(instance, initializer=init)


# -- SQP problem assembly ------------------------------------------------


def _restrict_map(m, rows):
    """``m`` restricted to output ``rows``: ``m`` itself when the rows
    cover every output, a zero-output linear map when there are none."""
    if rows.size == m.ambient_dim:
        return m
    if rows.size == 0:
        return LinearMap(np.zeros((0, m.latent_dim)))
    if hasattr(m, "restrict_outputs"):
        return m.restrict_outputs(rows)
    return extract_subnet(m, rows)


def _linear_jacobian(m):
    """``m``'s Jacobian if it is constant (``m`` is a ``LinearMap``), else
    ``None``."""
    return m.Phi if isinstance(m, LinearMap) else None


def _blockdiag(J_int, J_gam):
    """``blockdiag(J_int, J_gam)``: the Jacobian of the local decoded state
    over ``[x_int, x_gam]``, CSR when both blocks are sparse and dense
    otherwise."""
    if sp.issparse(J_int) and sp.issparse(J_gam):
        return sp.block_diag([J_int, J_gam], format="csr")
    J_int, J_gam = (a.toarray() if sp.issparse(a) else np.asarray(a)
                    for a in (J_int, J_gam))
    (r, k), (r_g, k_g) = J_int.shape, J_gam.shape
    M = np.zeros((r + r_g, k + k_g))
    M[:r, :k] = J_int
    M[r:, k:] = J_gam
    return M


def _block_structure(instance: RomInstance, i: int, ops: FomOperators):
    """Everything subdomain ``i``'s residual and constraint need that does
    not depend on the parameter:
    ``(hr, restricted, sub_int, gam, coupling, C, terms)``.

    ``gam`` is the interface outputs the residual reads off the full
    decode (WFPC) or the interface map restricted to them (SRPC);
    ``coupling`` is the instance's block, CSR only for the decomposed FOM.
    The constraint Jacobian ``C`` is ``coupling`` under SRPC and ``coupling
    @ Phi`` for a linear WFPC interface map.  When both maps are linear,
    ``M = blockdiag(J_int, J_gam)`` is constant and ``terms`` is
    ``restricted.product_terms(M)``.  ``C`` and ``terms`` are ``None``
    when they change per call, with a nonlinear map.
    """
    part = instance.partition
    sub = part.subdomains[i]
    hr = instance.hr[i]
    io, gio = hr_rows_for_subdomain(part, i, hr.rows)
    restricted = RestrictedResidual(
        ops, sub.res_rows[hr.rows],
        np.concatenate([sub.interior_cols[io], sub.interface_cols[gio]]))
    sub_int = _restrict_map(instance.interior_maps[i], io)
    coupling = instance.coupling[i]
    if instance.constraint_mode == "wfpc":
        # the constraint needs every interface trace entry, so the residual
        # reads its rows off the same full decode
        gam = gio
        Phi = _linear_jacobian(instance.interface_maps[i])
        C, J_gam = (None, None) if Phi is None else (coupling @ Phi, Phi[gio])
    else:
        gam = _restrict_map(instance.interface_maps[i], gio)
        J_gam = _linear_jacobian(gam)
        C = coupling
    J_int = _linear_jacobian(sub_int)
    terms = None
    if J_int is not None and J_gam is not None:
        terms = restricted.product_terms(_blockdiag(J_int, J_gam))
    return hr, restricted, sub_int, gam, coupling, C, terms


def build_problem(instance: RomInstance, ops: FomOperators) -> SqpProblem:
    """Instantiate the block-separable SQP problem at one parameter.

    Every block evaluates the residual rows its HR operator samples (all
    rows without HR) from only the decoder outputs those rows reference,
    calling each map's ``decode_and_jacobian`` once, and gets its Jacobian
    product from :meth:`RestrictedResidual.residual_and_product`.  The
    parameter-independent structure is built at the instance's first call
    and reused; each call binds only the boundary data of ``ops``.  The
    decomposed FOM's blocks (CSR identity maps) return ``R`` and ``C`` as
    CSR, for the Newton step of ``[R; C]``; ROM blocks return both dense.
    """
    part = instance.partition
    if ops.grid != part.grid:
        raise ValueError("operators were assembled on another grid than "
                         "the partition's")
    if instance._structure is None:
        instance._structure = [_block_structure(instance, i, ops)
                               for i in range(part.n_sub)]
    wfpc = instance.constraint_mode == "wfpc"
    blocks = []
    for i, (hr, restricted, sub_int, gam, coupling, C,
            terms) in enumerate(instance._structure):
        gam_map = instance.interface_maps[i]

        def evaluate(xi, xg, hr=hr, restricted=restricted.at(ops),
                     sub_int=sub_int, gam=gam, coupling=coupling, C=C,
                     gam_map=gam_map, terms=terms):
            if wfpc:
                g, J = gam_map.decode_and_jacobian(xg)
                v_gam = g[gam]
                c, C = coupling @ g, coupling @ J if C is None else C
            else:
                v_gam, J = gam.decode_and_jacobian(xg)
                c = coupling @ xg
            v_int, J_int = sub_int.decode_and_jacobian(xi)
            v = np.concatenate([v_int, v_gam])
            if terms is None:
                # a nonlinear map: M = blockdiag(J_int, J_gam) at this point
                terms = restricted.product_terms(
                    _blockdiag(J_int, J[gam] if wfpc else J))
            r, R = restricted.residual_and_product(v, terms)
            return hr.apply_sampled(r), hr.apply_sampled(R), c, C

        blocks.append(SqpBlock(instance.interior_maps[i].latent_dim,
                               gam_map.latent_dim, evaluate))
    return SqpProblem(blocks, instance.n_mult)


# -- initialization ------------------------------------------------------


def init_guess(instance: RomInstance, p: ParameterPoint,
               prob: SqpProblem, x0=None):
    """The start of an SQP solve of ``prob`` (the problem at ``p``): the
    latent ``x0`` if given, else the RBF prediction at ``p``, with
    least-squares multipliers.

    Evaluates every block once at ``(x0, 0)``; the multiplier solve uses
    the interface stationarity rows of that evaluation, which are linear
    in the multipliers for fixed latents.  Returns ``(x0, lam0, ev0)``;
    ``iterate(..., start=ev0)`` reuses ``ev0`` as its first evaluation.
    """
    if x0 is None:
        if instance.initializer is None:
            raise ValueError("instance has no fitted initializer")
        x0 = instance.initializer.query(p)
    x0 = np.asarray(x0, dtype=float)
    ev0 = eval_gradients(prob, x0, np.zeros(prob.n_mult))
    return x0, multiplier_least_squares(prob, ev0), ev0


def multiplier_least_squares(prob: SqpProblem, ev: SqpEval) -> np.ndarray:
    """argmin over multipliers of the interface stationarity residual of
    ``ev``, the evaluation at the start latents with zero multipliers.

    Zeros on a square problem (:func:`sqp.is_square`, the decomposed FOM),
    whose steps are Newton steps of ``[R; C]`` in ``C``'s null space: there
    the starting multipliers affect no step.
    """
    if is_square(prob, ev):
        return np.zeros(prob.n_mult)
    rows, rhs = [], []
    for off, block, be in zip(prob.offsets, prob.blocks, ev.blocks):
        gs = off + block.n_int
        rows.append(be.con_jac.T)
        rhs.append(-ev.rho[gs:gs + block.n_gam])
    lam, *_ = np.linalg.lstsq(np.vstack(rows), np.concatenate(rhs),
                              rcond=None)
    return lam


# -- error metric --------------------------------------------------------


def restrict_blocks(partition: Partition, state: np.ndarray):
    """Split a global state into per-subdomain (interior, interface)."""
    return [partition.restrict(i, state)
            for i in range(len(partition.subdomains))]


def relative_error(fom_blocks, rom_blocks) -> float:
    """Root mean over subdomains of the squared blockwise relative error."""
    if len(fom_blocks) != len(rom_blocks):
        raise ValueError("block counts differ")
    total = 0.0
    for (fi, fg), (ri, rg) in zip(fom_blocks, rom_blocks):
        denom = float(fi @ fi + fg @ fg)
        if denom == 0.0:
            raise ValueError("zero-norm reference block")
        num = float((fi - ri) @ (fi - ri) + (fg - rg) @ (fg - rg))
        total += num / denom
    return float(np.sqrt(total / len(fom_blocks)))


# -- solving -------------------------------------------------------------


@dataclass(eq=False)
class RomSolution:
    x_latent: np.ndarray
    lam: np.ndarray
    states: list = field(repr=False)      # [(x_int, x_gam), ...] decoded
    sqp: SqpResult = field(repr=False, default=None)
    error: float = np.nan


@dataclass(eq=False)
class BenchmarkRecord:
    label: str
    config: dict
    a: float
    lam: float
    error: float = np.nan
    fom_seconds: float = np.nan
    rom_seconds: float = np.nan
    parallel_seconds: float = np.nan
    per_iter_seconds: float = np.nan
    speedup: float = np.nan
    n_iter: int = 0
    converged: bool = False
    final_merit: float = np.nan
    status: str = "ok"
    online_seconds: float = np.nan    # assemble through decode, wall
    final_constraint: float = np.nan  # ||c|| at the last iterate

    HEADER = ["label", "rom", "constraint", "hr", "n_int", "n_gam", "a",
              "lambda", "error", "fom_seconds", "rom_seconds",
              "parallel_seconds", "per_iter_seconds", "speedup", "n_iter",
              "converged", "final_merit", "status", "online_seconds",
              "final_constraint"]

    def row(self):
        c = self.config
        return [self.label, c.get("rom", ""), c.get("constraint", ""),
                c.get("hr", ""), c.get("n_int", ""), c.get("n_gam", ""),
                self.a, self.lam, self.error, self.fom_seconds,
                self.rom_seconds, self.parallel_seconds,
                self.per_iter_seconds, self.speedup, self.n_iter,
                int(self.converged), self.final_merit, self.status,
                self.online_seconds, self.final_constraint]


def solve_rom(instance: RomInstance, p: ParameterPoint,
              cfg: SqpConfig = SqpConfig(), *, x0=None,
              fom_state=None, fom_seconds: float = np.nan,
              compute_error: bool = True, label: str = ""):
    """Solve the ROM at ``p``; returns ``(RomSolution, BenchmarkRecord)``.

    The solve starts at :func:`init_guess`: from ``x0`` if given (the
    decomposed FOM, which has no RBF initializer), else from the RBF
    prediction at ``p``.  The record's parallel time charges each
    iteration with the slowest block evaluation instead of the per-block
    sum, matching a one-subdomain-per-processor execution model.
    ``rom_seconds`` times the SQP iterations alone; ``online_seconds`` is
    the whole online path from operator assembly through decode (FOM
    reference and error excluded).
    """
    part = instance.partition
    if compute_error and fom_state is None:
        t0 = time.perf_counter()
        fom_state, _ = solve_monolithic(part.grid, p)
        fom_seconds = time.perf_counter() - t0
    t_online = time.perf_counter()
    ops = assemble(part.grid, p)
    prob = build_problem(instance, ops)
    x0, lam0, start = init_guess(instance, p, prob, x0)

    t0 = time.perf_counter()
    res = iterate(prob, x0, lam0, cfg, start)
    rom_seconds = time.perf_counter() - t0
    parallel = (sum(res.timings["block_max"]) + sum(res.timings["kkt"]))

    states = instance.decode(res.x)
    online_seconds = time.perf_counter() - t_online
    error = np.nan
    if compute_error:
        error = relative_error(restrict_blocks(part, fom_state), states)
    record = BenchmarkRecord(
        label=label or instance.provenance.get("rom", "rom"),
        config=dict(instance.provenance), a=p.a, lam=p.lam, error=error,
        fom_seconds=fom_seconds, rom_seconds=rom_seconds,
        parallel_seconds=parallel,
        per_iter_seconds=parallel / max(res.n_iter, 1),
        speedup=fom_seconds / parallel if parallel > 0 else np.nan,
        n_iter=res.n_iter, converged=res.converged,
        final_merit=res.final_merit,
        status=res.failure_reason or ("ok" if res.converged else "max_iter"),
        online_seconds=online_seconds,
        final_constraint=res.final_constraint)
    return RomSolution(x_latent=res.x, lam=res.lam, states=states, sqp=res,
                       error=error), record


# -- residual-bound diagnostics ------------------------------------------


def inverse_lipschitz_estimate(func, points, pairs):
    """min and max ratios ||f(w1)-f(w2)|| / ||w1-w2|| over index pairs."""
    vals = [func(w) for w in points]
    lo, hi = np.inf, 0.0
    used = 0
    for a, b in pairs:
        dw = np.linalg.norm(points[a] - points[b])
        if dw == 0.0:
            continue
        ratio = np.linalg.norm(vals[a] - vals[b]) / dw
        lo, hi = min(lo, ratio), max(hi, ratio)
        used += 1
    if used == 0:
        raise ValueError("all sampled pairs were degenerate")
    return lo, hi


@dataclass(eq=False)
class BoundDiagnostics:
    kappa_lower: float
    kappa_upper: float
    p_hat: float
    residual_norm: float
    bound_rhs: float
    observed_lhs: float
    bound_holds: bool
    best_fit_lhs: float
    apriori_rhs: float
    n_samples: int
    seed: int

    def report(self) -> str:
        lines = [
            "sampled residual-bound diagnostics (estimates, not proofs)",
            f"  samples={self.n_samples} seed={self.seed}",
            f"  kappa_lower={self.kappa_lower:.6e}  "
            f"kappa_upper={self.kappa_upper:.6e}  p_hat={self.p_hat:.6e}",
            f"  weighted residual norm at solution="
            f"{self.residual_norm:.6e}",
            f"  observed ||x_fom - decoded|| = {self.observed_lhs:.6e}",
            f"  a posteriori rhs = {self.bound_rhs:.6e}  "
            f"holds={self.bound_holds}",
            f"  best-approximation lhs = {self.best_fit_lhs:.6e}  "
            f"a priori rhs = {self.apriori_rhs:.6e}",
        ]
        return "\n".join(lines)


def verify_bounds(instance: RomInstance, p: ParameterPoint,
                  n_samples: int = 100, seed: int = 0,
                  cfg: SqpConfig = SqpConfig(), *, solution=None,
                  fom_state=None):
    """Sampled estimates of the inverse-Lipschitz residual bound.

    All constants come from random sampling around the solved state, so
    the verdict is a diagnostic consistency check, not a certificate.
    """
    part = instance.partition
    if fom_state is None:
        fom_state, _ = solve_monolithic(part.grid, p)
    if solution is None:
        solution, _ = solve_rom(instance, p, cfg, fom_state=fom_state)
    ops = assemble(part.grid, p)
    subs = part.subdomains
    rrs = [RestrictedResidual(ops, sub.res_rows, np.concatenate(
        [sub.interior_cols, sub.interface_cols])) for sub in subs]
    ends = np.cumsum([sub.n_interior + sub.n_interface for sub in subs])

    def weighted_residual(w):
        return np.concatenate([
            hr.apply_B(rr.residual(wi))
            for hr, rr, wi in zip(instance.hr, rrs, np.split(w, ends[:-1]))])

    def raw_residual(w):
        return np.concatenate([
            rr.residual(wi) for rr, wi in zip(rrs, np.split(w, ends[:-1]))])

    w_star = np.concatenate([np.concatenate(b) for b in solution.states])
    rng = np.random.default_rng(seed)
    fom_blocks = restrict_blocks(part, fom_state)
    x_dd = np.concatenate([np.concatenate(b) for b in fom_blocks])

    # sample on the set the bound quantifies over: the FOM solution plus
    # decoded latent perturbations around the ROM solution
    lat_scale = BOUND_REL_SCALE * max(np.linalg.norm(solution.x_latent), 1.0) \
        / np.sqrt(solution.x_latent.size)
    points = [x_dd]
    for _ in range(n_samples):
        xh = solution.x_latent + lat_scale * rng.standard_normal(
            solution.x_latent.size)
        points.append(np.concatenate(
            [np.concatenate(b) for b in instance.decode(xh)]))
    pairs = [(0, k) for k in range(1, len(points))]
    pairs += [(k, k + 1) for k in range(1, len(points) - 1)]
    kappa_lower, kappa_upper = inverse_lipschitz_estimate(
        weighted_residual, points, pairs)

    # P: weighted-vs-raw residual norm ratio over the decoded samples
    # (exactly 1 when B = I)
    p_hat = np.inf
    for w in points[1:]:
        denom = np.linalg.norm(raw_residual(w))
        if denom == 0.0:
            continue
        p_hat = min(p_hat, np.linalg.norm(weighted_residual(w)) / denom)
    if not np.isfinite(p_hat):
        raise ValueError("all sampled feasible points were degenerate")

    res_norm = float(np.linalg.norm(weighted_residual(w_star)))
    observed = float(np.linalg.norm(x_dd - w_star))
    rhs = res_norm / (p_hat * kappa_lower)

    # quasi-optimality proxy: distance to the decoded manifold estimated
    # by encode/decode of the FOM state
    best_lat = np.concatenate([
        np.concatenate([instance.interior_maps[i].encode(fi),
                        instance.interface_maps[i].encode(fg)])
        for i, (fi, fg) in enumerate(fom_blocks)])
    best_fit = np.concatenate(
        [np.concatenate(b) for b in instance.decode(best_lat)])
    best_lhs = float(np.linalg.norm(x_dd - best_fit))
    apriori = (1.0 + kappa_upper / (p_hat * kappa_lower)) * best_lhs

    return BoundDiagnostics(
        kappa_lower=float(kappa_lower), kappa_upper=float(kappa_upper),
        p_hat=float(p_hat), residual_norm=res_norm, bound_rhs=float(rhs),
        observed_lhs=observed, bound_holds=bool(observed <= rhs),
        best_fit_lhs=best_lhs, apriori_rhs=float(apriori),
        n_samples=n_samples, seed=seed)


# -- benchmark harness ---------------------------------------------------


def benchmark_sweep(instances: dict, params, out_dir,
                    cfg: SqpConfig = SqpConfig()):
    """Run every instance at every parameter; write records.csv and the
    per-instance summary pareto.csv.  ``None`` instances are recorded as
    absent cells."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    records = []
    fom_cache = {}
    for label, instance in instances.items():
        if instance is None:
            records.append(BenchmarkRecord(
                label=label, config={}, a=np.nan, lam=np.nan,
                status="absent"))
            continue
        for p in params:
            key = (p, instance.partition.grid)
            if key not in fom_cache:
                t0 = time.perf_counter()
                state, _ = solve_monolithic(instance.partition.grid, p)
                fom_cache[key] = (state, time.perf_counter() - t0)
            state, secs = fom_cache[key]
            try:
                _, rec = solve_rom(instance, p, cfg, fom_state=state,
                                   fom_seconds=secs, label=label)
            except ConvergenceError as exc:
                rec = BenchmarkRecord(label=label,
                                      config=dict(instance.provenance),
                                      a=p.a, lam=p.lam,
                                      status=f"failed: {exc}")
            records.append(rec)

    with open(out / "records.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(BenchmarkRecord.HEADER)
        for rec in records:
            w.writerow(rec.row())

    with open(out / "pareto.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["label", "rom", "constraint", "hr", "mean_error",
                    "mean_speedup", "mean_relative_time", "cells"])
        for label, instance in instances.items():
            ok = [r for r in records
                  if r.label == label and r.status == "ok"]
            if not ok:
                w.writerow([label, "", "", "", "", "", "", 0])
                continue
            c = ok[0].config
            errs = [r.error for r in ok]
            spd = [r.speedup for r in ok if np.isfinite(r.speedup)]
            rel = [r.parallel_seconds / r.fom_seconds for r in ok
                   if r.fom_seconds > 0]
            w.writerow([label, c.get("rom", ""), c.get("constraint", ""),
                        c.get("hr", ""), float(np.mean(errs)),
                        float(np.mean(spd)) if spd else "",
                        float(np.mean(rel)) if rel else "", len(ok)])
    return records
