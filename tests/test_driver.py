"""End-to-end ROM assembly: instances, initialization, error metric,
bound diagnostics, and the benchmark harness."""

import csv
import inspect
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg

from ddrom import burgers
from ddrom.autoencoder import TrainConfig
from ddrom.burgers import Grid2D, ParameterPoint, assemble, exact_state, \
    solve_monolithic
from ddrom.driver import (
    RbfInitializer,
    RomInstance,
    attach_hr,
    benchmark_sweep,
    build_dd_fom,
    build_lsrom,
    build_nmrom,
    build_problem,
    default_n_c,
    fit_initializer,
    hr_operator,
    init_guess,
    inverse_lipschitz_estimate,
    multiplier_least_squares,
    port_latent_dims,
    relative_error,
    solve_rom,
    verify_bounds,
    wfpc_test_matrix,
)
from ddrom.hyper import hr_rows_for_subdomain
from ddrom.partition import assemble_fom_constraints, \
    assemble_rom_constraints, build_partition
from ddrom.pod import LinearMap
from ddrom.snapshots import generate, sample_grid
from ddrom import sqp
from ddrom.sqp import SqpBlock, SqpConfig, SqpProblem, _kkt_matrix, \
    assemble_and_solve_kkt, eval_gradients, is_square, iterate

from fom_reference import reference_jacobian, reference_residual


@pytest.fixture(scope="module")
def desk():
    """Small 2x1 decomposition with a 6x4 training grid, shared by most
    tests here.  2x1 keeps one port, so WFPC n_c must stay within the
    shared-basis constraint rank (n_gam)."""
    grid = Grid2D(24, 6)
    part = build_partition(grid, 2, 1)
    params = sample_grid(6, 4, a_range=(100.0, 5000.0),
                         lam_range=(8.0, 20.0))
    snap = generate(grid, params, part)
    return grid, part, snap


@pytest.fixture(scope="module")
def ls_wfpc(desk):
    _, part, snap = desk
    inst = build_lsrom(part, snap, n_int=8, n_gam=6, constraint="wfpc",
                       n_c=6)
    return fit_initializer(inst, snap)


@pytest.fixture(scope="module")
def ls_srpc(desk):
    _, part, snap = desk
    inst = build_lsrom(part, snap, n_int=8, n_gam=6, constraint="srpc")
    return fit_initializer(inst, snap)


# ------------------------------------------------------------- small pieces

def test_port_latent_dims_caps_and_floors(desk):
    _, part, _ = desk
    pt = part.ports
    dims = port_latent_dims(pt, 4)
    assert set(dims) == {p.index for p in pt.ports}
    for p in pt.ports:
        assert dims[p.index] == max(min(p.size - 1, 4), 1)
    huge = port_latent_dims(pt, 10 ** 6)
    assert all(huge[p.index] == p.size - 1 for p in pt.ports)
    assert all(d == 1 for d in port_latent_dims(pt, 0).values())


def test_default_n_c_twice_srpc_rows_capped_at_fom_rows(desk):
    _, part, snap = desk
    n_rows = assemble_fom_constraints(part.ports).n_rows
    for n_gam in (1, 6, 20):
        srpc = assemble_rom_constraints(
            part.ports, port_latent_dims(part.ports, n_gam)).n_rows
        expected = min(2 * srpc, n_rows)
        assert default_n_c(part, n_gam, n_rows) == expected
        inst = build_lsrom(part, snap, n_int=4, n_gam=n_gam,
                           constraint="wfpc")
        assert inst.n_mult == expected
    assert default_n_c(part, 20, n_rows) == n_rows      # the cap binds


def test_wfpc_test_matrix_seeded_and_scaled():
    C1 = wfpc_test_matrix(4, 20, seed=7)
    C2 = wfpc_test_matrix(4, 20, seed=7)
    C3 = wfpc_test_matrix(4, 20, seed=8)
    np.testing.assert_array_equal(C1, C2)
    assert np.any(C1 != C3)
    assert C1.shape == (4, 20)
    # entries are N(0, 1/n_c); check the variance loosely
    assert abs(C1.var() * 4 - 1.0) < 0.5
    with pytest.raises(ValueError):
        wfpc_test_matrix(21, 20, seed=0)
    with pytest.raises(ValueError):
        wfpc_test_matrix(0, 20, seed=0)


def test_instance_validation(desk):
    _, part, snap = desk
    good = build_lsrom(part, snap, n_int=4, n_gam=3, constraint="wfpc",
                       n_c=3)

    def make(**kw):
        return RomInstance(**{
            "partition": part, "interior_maps": good.interior_maps,
            "interface_maps": good.interface_maps, "constraint_mode": "wfpc",
            "coupling": good.coupling, **kw})

    with pytest.raises(ValueError, match="ambient"):
        make(interior_maps=[LinearMap(np.eye(5))] * part.n_sub)
    with pytest.raises(ValueError, match="mode"):
        make(constraint_mode="strong")
    with pytest.raises(ValueError, match="one coupling block per"):
        make(coupling=good.coupling[:1])
    with pytest.raises(ValueError, match="subdomain 1"):
        make(coupling=[good.coupling[0], good.coupling[1][:, 1:]])
    # WFPC blocks act on decoded traces, SRPC blocks on latents
    with pytest.raises(ValueError, match="subdomain 0"):
        make(constraint_mode="srpc")
    assert [op.mode for op in make().hr] == ["none"] * part.n_sub


def test_coupling_blocks_bitwise_equal_their_sources(desk, ls_wfpc,
                                                     ls_srpc):
    _, part, _ = desk
    A = assemble_fom_constraints(part.ports)
    C = wfpc_test_matrix(6, A.n_rows, seed=0)
    for block, A_i in zip(ls_wfpc.coupling, A.blocks):
        np.testing.assert_array_equal(block, C @ A_i.toarray())
    for block, A_i in zip(build_dd_fom(part).coupling, A.blocks):
        assert sp.issparse(block)
        np.testing.assert_array_equal(block.toarray(), A_i.toarray())
    Ahat = assemble_rom_constraints(part.ports,
                                    port_latent_dims(part.ports, 6))
    for block, Ahat_i in zip(ls_srpc.coupling, Ahat.blocks):
        assert isinstance(block, np.ndarray)
        np.testing.assert_array_equal(block, Ahat_i.toarray())


def test_srpc_constraints_sized_by_rank_deficient_port_maps():
    """Four identical training points give rank-one port snapshots, so the
    port bases come out narrower than the requested n_gam = 3; the ROM
    constraints must take the bases' sizes, not the request."""
    grid = Grid2D(24, 6)
    part = build_partition(grid, 2, 1)
    params = sample_grid(2, 2, a_range=(100, 100), lam_range=(10, 10))
    snap = generate(grid, params, part)
    inst = build_lsrom(part, snap, n_int=4, n_gam=3, constraint="srpc")
    for block, g in zip(inst.coupling, inst.interface_maps):
        assert block.shape[1] == g.latent_dim
    prob = build_problem(inst, assemble(grid, params[0]))
    ev = eval_gradients(prob, np.zeros(prob.n_primal),
                        np.zeros(prob.n_mult))
    assert np.all(np.isfinite(ev.rho))


# ------------------------------------------------------------- error metric

def test_relative_error_trivial_cases():
    fom = [(np.array([1.0, 2.0]), np.array([3.0])),
           (np.array([0.5]), np.array([1.5, 2.5]))]
    assert relative_error(fom, fom) == 0.0
    doubled = [(2 * a, 2 * b) for a, b in fom]
    assert relative_error(fom, doubled) == pytest.approx(1.0, abs=1e-14)


def test_relative_error_hand_toy():
    # block 1: ||diff||^2/||fom||^2 = 4/5; block 2: 5/5 -> sqrt(0.9)
    fom = [(np.array([1.0, 2.0]), np.array([0.0])),
           (np.array([1.0]), np.array([2.0]))]
    rom = [(np.array([3.0, 2.0]), np.array([0.0])),
           (np.array([0.0]), np.array([0.0]))]
    assert relative_error(fom, rom) == pytest.approx(np.sqrt(0.9),
                                                     abs=1e-14)


def test_relative_error_rejects_zero_reference():
    fom = [(np.zeros(2), np.zeros(1))]
    rom = [(np.ones(2), np.ones(1))]
    with pytest.raises(ValueError, match="zero-norm"):
        relative_error(fom, rom)
    with pytest.raises(ValueError, match="block counts"):
        relative_error(fom, rom + rom)


# ------------------------------------------------------------ degeneration

def test_dd_fom_matches_monolithic():
    grid = Grid2D(16, 4)
    p = ParameterPoint(400.0, 12.0)
    part = build_partition(grid, 2, 1)
    inst = build_dd_fom(part)
    x_mono, _ = solve_monolithic(grid, p)
    x0 = np.concatenate(
        [np.concatenate(part.restrict(i, exact_state(grid, p)))
         for i in range(part.n_sub)])
    sol, rec = solve_rom(inst, p, SqpConfig(tol=1e-8), x0=x0,
                         fom_state=x_mono, fom_seconds=0.1)
    assert rec.converged
    assert rec.error < 1e-6
    # decoded states are the latents themselves under identity maps
    for i, (xi, xg) in enumerate(sol.states):
        ri, rg = part.restrict(i, x_mono)
        np.testing.assert_allclose(xi, ri, atol=1e-8)
        np.testing.assert_allclose(xg, rg, atol=1e-8)


@pytest.mark.parametrize("a,lam", [(5000.0, 15.0), (300.0, 10.0)])
def test_dd_fom_matches_monolithic_at_120x12(a, lam):
    # the sparse KKT path makes this size a sub-second solve; at the
    # workload tolerance the optimality norm stalls near its roundoff
    # floor, and the relative step test ends the solve
    grid = Grid2D(120, 12)
    p = ParameterPoint(a, lam)
    part = build_partition(grid, 2, 2)
    x_mono, newton = solve_monolithic(grid, p)
    x0 = np.zeros(sum(s.n_interior + s.n_interface for s in part.subdomains))
    sol, rec = solve_rom(build_dd_fom(part), p, SqpConfig(tol=1e-6),
                         x0=x0, fom_state=x_mono, fom_seconds=0.1)
    assert newton.converged and rec.converged
    assert sol.sqp.stop_reason == "step"
    assert rec.error <= 1e-8


def dd_fom_problem(nx, ny):
    """The decomposed FOM on an ``nx x ny`` grid with 2x2 subdomains, its
    SQP problem at a = 5000, lambda = 15 and the zero start of the
    ``dd-fom`` workload."""
    part = build_partition(Grid2D(nx, ny), 2, 2)
    prob = build_problem(build_dd_fom(part),
                         assemble(part.grid, ParameterPoint(5000.0, 15.0)))
    return prob, np.zeros(prob.n_primal)


def lstsq_multipliers(prob, ev):
    """The interface-stationarity least-squares multipliers of ``ev``,
    evaluated at zero multipliers."""
    rows, rhs = [], []
    for off, blk, be in zip(prob.offsets, prob.blocks, ev.blocks):
        rows.append(dense(be.con_jac).T)
        rhs.append(-ev.rho[off + blk.n_int:off + blk.n_int + blk.n_gam])
    lam, *_ = np.linalg.lstsq(np.vstack(rows), np.concatenate(rhs),
                              rcond=None)
    return lam


def dense_newton_matrix(prob, ev):
    """The square ``[R; C]`` of an evaluated DD-FOM problem, assembled
    densely from its blocks."""
    n, m = prob.n_primal, prob.n_mult
    A = np.zeros((n, n))
    row = 0
    for off, blk, be in zip(prob.offsets, prob.blocks, ev.blocks):
        A[row:row + be.R.shape[0], off:off + be.R.shape[1]] = be.R.toarray()
        A[n - m:, off + blk.n_int:off + blk.n_int + blk.n_gam] = \
            be.con_jac.toarray()
        row += be.R.shape[0]
    assert row == n - m
    return A


@pytest.mark.parametrize("nx,ny", [(60, 8), (120, 12)])
def test_dd_fom_square_step_matches_dense_and_normal_form(nx, ny):
    prob, x0 = dd_fom_problem(nx, ny)
    ref_prob = densified(prob)
    n, m = prob.n_primal, prob.n_mult
    lam = np.random.default_rng(nx).standard_normal(m)
    ev0 = eval_gradients(prob, x0, lam)
    s0, *_ = assemble_and_solve_kkt(prob, ev0, lam)
    # at the zero start, at the first Newton iterate and at an infeasible
    # random start (c != 0: the step needs its particular solution too)
    x_rand = np.random.default_rng(ny).standard_normal(n)
    for x in (x0, x0 + s0, x_rand):
        ev = eval_gradients(prob, x, lam)
        assert is_square(prob, ev)
        assert (np.abs(ev.con).max() > 0.1) == (x is x_rand)
        s, s_lam, path, res = assemble_and_solve_kkt(prob, ev, lam)
        assert path == "newton" and res <= 1e-10
        assert np.array_equal(lam + s_lam, np.zeros(m))
        A = dense_newton_matrix(prob, ev)
        # the dense reference takes the same one refinement round: [R; C]
        # has a condition number near 4e5 at 120x12, and an unrefined
        # solve's forward error reaches 1.5e-12 there
        rhs = -np.concatenate([be.Br for be in ev.blocks] + [ev.con])
        ref = np.linalg.solve(A, rhs)
        ref += np.linalg.solve(A, rhs - A @ ref)
        assert np.linalg.norm(s - ref) <= 1e-12 * np.linalg.norm(ref)
        # the dense normal-form KKT of the densified blocks, refined once
        K = _kkt_matrix(ref_prob, eval_gradients(ref_prob, x, lam))
        lu = scipy.linalg.lu_factor(K)
        normal = scipy.linalg.lu_solve(lu, -ev.optimality)
        normal += scipy.linalg.lu_solve(lu, -ev.optimality - K @ normal)
        assert np.linalg.norm(s - normal[:n]) <= 1e-10 * np.linalg.norm(
            normal[:n])


def test_dd_fom_multipliers_are_zero_without_least_squares(monkeypatch):
    prob, x0 = dd_fom_problem(24, 8)

    def lstsq(*args, **kwargs):
        raise AssertionError("least squares on a square problem")

    monkeypatch.setattr(np.linalg, "lstsq", lstsq)
    lam = multiplier_least_squares(prob, x0)
    assert np.array_equal(lam, np.zeros(prob.n_mult))


def test_dd_fom_iterates_do_not_depend_on_starting_multipliers():
    prob, x0 = dd_fom_problem(60, 8)
    cfg = SqpConfig(tol=1e-6, max_iter=15)
    lam_ls = lstsq_multipliers(prob,
                               eval_gradients(prob, x0, np.zeros(prob.n_mult)))
    assert np.abs(lam_ls).max() > 0
    zero, ls = iterate(prob, x0, None, cfg), iterate(prob, x0, lam_ls, cfg)
    assert zero.converged and ls.converged
    assert zero.kkt_path_history == ["newton"] * zero.n_iter
    assert all(r <= 1e-10 for r in zero.kkt_residual_history)
    assert zero.n_iter == ls.n_iter and zero.alpha_history == ls.alpha_history
    for (x_zero, _), (x_ls, _) in zip(zero.iterates, ls.iterates):
        np.testing.assert_array_equal(x_zero, x_ls)


def test_dd_fom_with_collocation_hr_is_rejected_at_first_solve(desk):
    # sampled rows leave the DD-FOM under-determined: [R; C] is not
    # square, and no normal-form solve stands in for its Newton step
    grid, part, snap = desk
    inst = attach_hr(build_dd_fom(part), snap, "collocation", n_samples=30)
    p = snap.params[7]
    prob = build_problem(inst, assemble(grid, p))
    x0 = np.zeros(prob.n_primal)
    ev = eval_gradients(prob, x0, np.zeros(prob.n_mult))
    rows = sum(be.R.shape[0] for be in ev.blocks)
    assert rows + prob.n_mult < prob.n_primal
    with pytest.raises(ValueError, match=f"{rows} residual rows"):
        assemble_and_solve_kkt(prob, ev, np.zeros(prob.n_mult))
    with pytest.raises(ValueError, match="square"):
        iterate(prob, x0, cfg=SqpConfig(tol=1e-6, max_iter=2))
    with pytest.raises(ValueError, match="square"):
        solve_rom(fit_initializer(inst, snap), p, compute_error=False)


def global_to_latent(part, g):
    """The DD-FOM latent that copies the global state ``g`` into every
    subdomain."""
    return np.concatenate([np.concatenate(part.restrict(i, g))
                           for i in range(part.n_sub)])


def copy_matrix(part, labels):
    """``P`` with ``P[g, j] = 1`` when copy ``j`` of the SQP's null-space
    step holds global unknown ``g``; raises unless ``labels`` puts every
    subdomain copy of one global unknown, and nothing else, in one copy."""
    cols = np.concatenate([np.concatenate([s.interior_cols, s.interface_cols])
                           for s in part.subdomains])
    P = np.zeros((part.grid.ndof, part.grid.ndof))
    P[cols, labels] = 1.0
    assert np.array_equal(P @ P.T, np.eye(part.grid.ndof))
    return P


def test_dd_fom_coupling_stays_csr_into_the_newton_matrix(desk,
                                                          monkeypatch):
    # the copy labels and R Z come from the CSR blocks without a
    # per-iteration np.nonzero; C Z = 0, and R Z is the monolithic
    # Jacobian's rows J[res_rows] up to a column permutation, exactly
    grid, part, snap = desk
    inst = build_dd_fom(part)
    ops = assemble(grid, snap.params[7])
    prob = build_problem(inst, ops)
    x = perturbed_latent(inst, snap, 7)
    A = assemble_fom_constraints(part.ports)
    for blk, A_i, (xi, xg) in zip(prob.blocks, A.blocks, prob.split(x)):
        C = blk.evaluate(xi, xg)[3]
        assert sp.issparse(C) and C.format == "csr"
        np.testing.assert_array_equal(C.toarray(), A_i.toarray())
    ev = eval_gradients(prob, x, np.zeros(prob.n_mult))
    assert all(sp.issparse(be.con_jac) for be in ev.blocks)

    def nonzero(*args, **kwargs):
        raise AssertionError("np.nonzero on a coupling block")

    monkeypatch.setattr(np, "nonzero", nonzero)
    labels, _ = sqp._copy_labels(prob, ev)
    RZ = sqp._rz_matrix(prob, ev, labels)
    monkeypatch.undo()
    n, m = prob.n_primal, prob.n_mult
    Z = np.eye(n - m)[labels]
    K = dense_newton_matrix(prob, ev)
    np.testing.assert_array_equal(K[n - m:] @ Z, np.zeros((m, n - m)))
    np.testing.assert_array_equal(RZ.toarray(), K[:n - m] @ Z)
    # at a state every subdomain copies from one global g
    g = np.random.default_rng(7).standard_normal(grid.ndof)
    ev = eval_gradients(prob, global_to_latent(part, g),
                        np.zeros(prob.n_mult))
    rows = np.concatenate([s.res_rows for s in part.subdomains])
    J = reference_jacobian(ops, g).toarray()
    np.testing.assert_array_equal(sqp._rz_matrix(prob, ev, labels).toarray(),
                                  J[rows] @ copy_matrix(part, labels))


@pytest.mark.parametrize("nx,ny", [(60, 8), (120, 12)])
def test_dd_fom_step_is_the_monolithic_newton_step(nx, ny):
    # at one global state g copied into every subdomain (c = 0), the DD-FOM
    # step is Z y, and y is the monolithic Newton step -J(g)^-1 r(g)
    p = ParameterPoint(5000.0, 15.0)
    part = build_partition(Grid2D(nx, ny), 2, 2)
    ops = assemble(part.grid, p)
    prob = build_problem(build_dd_fom(part), ops)
    lam = np.zeros(prob.n_mult)
    for g in (np.zeros(part.grid.ndof),
              0.5 * solve_monolithic(part.grid, p)[0],
              np.random.default_rng(nx).standard_normal(part.grid.ndof)):
        ev = eval_gradients(prob, global_to_latent(part, g), lam)
        assert not ev.con.any()
        s, _, path, _ = assemble_and_solve_kkt(prob, ev, lam)
        assert path == "newton"
        labels, _ = sqp._copy_labels(prob, ev)
        y = np.zeros(part.grid.ndof)
        y[labels] = s
        np.testing.assert_array_equal(s, y[labels])     # s = Z y exactly
        step = copy_matrix(part, labels) @ y
        ref = scipy.sparse.linalg.splu(burgers.jacobian(ops, g).tocsc()
                                       ).solve(-burgers.residual(ops, g))
        assert np.linalg.norm(step - ref) <= 1e-12 * np.linalg.norm(ref)


# ------------------------------------------------------------------ LS-ROM

def test_lsrom_training_param_error_below_pod_tail(desk, ls_wfpc):
    _, part, snap = desk
    tail = 0.0
    for i in range(part.n_sub):
        for X, m in ((snap.interior[i], ls_wfpc.interior_maps[i]),
                     (snap.interface[i], ls_wfpc.interface_maps[i])):
            Phi = m.jacobian()
            R = X - Phi @ (Phi.T @ X)
            tail = max(tail, np.linalg.norm(R, axis=0).max()
                       / np.linalg.norm(X, axis=0).min())
    for k in (0, 7, 23):
        _, rec = solve_rom(ls_wfpc, snap.params[k], SqpConfig(tol=1e-6))
        assert rec.converged
        assert rec.error <= tail


def test_lsrom_error_decreases_with_dims(desk):
    _, part, snap = desk
    errs = []
    for (ni, ng), nc in [((4, 3), 3), ((8, 6), 6), ((12, 8), 8)]:
        inst = fit_initializer(
            build_lsrom(part, snap, n_int=ni, n_gam=ng,
                        constraint="wfpc", n_c=nc), snap)
        _, rec = solve_rom(inst, snap.params[7], SqpConfig(tol=1e-6))
        errs.append(rec.error)
    assert errs[2] < errs[1] < errs[0]


def test_lsrom_srpc_solves_and_matches_wfpc_scale(desk, ls_wfpc, ls_srpc):
    _, part, snap = desk
    p = snap.params[7]
    _, rec_w = solve_rom(ls_wfpc, p, SqpConfig(tol=1e-6))
    _, rec_s = solve_rom(ls_srpc, p, SqpConfig(tol=1e-6))
    assert rec_s.converged and rec_w.converged
    assert rec_s.error < 10 * rec_w.error + 1e-6


def test_srpc_decoded_compatibility_lsrom(desk, ls_srpc):
    _, part, snap = desk
    A = assemble_fom_constraints(part.ports)
    dims = port_latent_dims(part.ports, 6)
    rng = np.random.default_rng(4)
    # draw one latent block per port and give every member the same copy:
    # the ROM constraint vanishes exactly
    for _ in range(5):
        shared = {j: rng.normal(size=d) for j, d in dims.items()}
        resid = np.zeros(A.n_rows)
        rom_resid = np.zeros(ls_srpc.n_mult)
        for i in range(part.n_sub):
            xg = np.concatenate(
                [shared[j] for j in part.ports.ports_of(i)])
            rom_resid += ls_srpc.coupling[i] @ xg
            resid += A.blocks[i] @ ls_srpc.interface_maps[i].decode(xg)
        assert np.abs(rom_resid).max() < 1e-12
        assert np.abs(resid).max() < 1e-10


def test_srpc_decoded_compatibility_nmrom(desk):
    _, part, snap = desk
    nm = build_nmrom(part, snap, n_int=4, n_gam=3, constraint="srpc",
                     train_cfg=TrainConfig(epochs=2, seed=9))
    A = assemble_fom_constraints(part.ports)
    dims = port_latent_dims(part.ports, 3)
    rng = np.random.default_rng(5)
    for _ in range(5):
        shared = {j: rng.normal(size=d) for j, d in dims.items()}
        resid = np.zeros(A.n_rows)
        for i in range(part.n_sub):
            xg = np.concatenate(
                [shared[j] for j in part.ports.ports_of(i)])
            resid += A.blocks[i] @ nm.interface_maps[i].decode(xg)
        # port decoders evaluate bitwise identically on every member
        assert np.abs(resid).max() == 0.0


# ------------------------------------------------------------ initializer

def test_rbf_exact_at_training_points(desk, ls_wfpc):
    _, part, snap = desk
    for k in (0, 11, 23):
        x0 = init_guess(ls_wfpc, snap.params[k])[0]
        enc = []
        for i in range(part.n_sub):
            enc.append(ls_wfpc.interior_maps[i].encode(
                snap.interior[i][:, k]))
            enc.append(ls_wfpc.interface_maps[i].encode(
                snap.interface[i][:, k]))
        np.testing.assert_allclose(x0, np.concatenate(enc), atol=1e-8)


def test_rbf_extrapolation_warns(desk, ls_wfpc):
    with pytest.warns(RuntimeWarning, match="outside"):
        ls_wfpc.initializer.query(ParameterPoint(9000.0, 24.0))


def test_rbf_needs_enough_points():
    pts = [ParameterPoint(1.0, 5.0), ParameterPoint(2.0, 6.0)]
    with pytest.raises(ValueError, match=">= 3"):
        RbfInitializer.fit(pts, np.zeros((2, 4)))


def test_unfitted_initializer_rejected(desk):
    _, part, snap = desk
    inst = build_lsrom(part, snap, n_int=4, n_gam=3, constraint="wfpc",
                       n_c=3)
    with pytest.raises(ValueError, match="initializer"):
        init_guess(inst, snap.params[0])


def test_multipliers_match_pseudoinverse_oracle(desk, ls_wfpc):
    from ddrom.burgers import assemble
    from ddrom.driver import build_problem
    _, part, snap = desk
    p = snap.params[7]
    prob = build_problem(ls_wfpc, assemble(part.grid, p))
    x0 = ls_wfpc.initializer.query(p)
    lam = multiplier_least_squares(prob, x0)
    ev = eval_gradients(prob, x0, np.zeros(prob.n_mult))
    rows, rhs = [], []
    for off, blk, be in zip(prob.offsets, prob.blocks, ev.blocks):
        rows.append(be.con_jac.T)
        rhs.append(-ev.rho[off + blk.n_int:off + blk.n_int + blk.n_gam])
    oracle = np.linalg.pinv(np.vstack(rows)) @ np.concatenate(rhs)
    np.testing.assert_allclose(lam, oracle, atol=1e-8)


def test_multipliers_zero_at_zero_residual():
    grid = Grid2D(12, 4)
    p = ParameterPoint(300.0, 10.0)
    part = build_partition(grid, 2, 1)
    inst = build_dd_fom(part)
    x_star, _ = solve_monolithic(grid, p, tol=1e-12)
    x0 = np.concatenate(
        [np.concatenate(part.restrict(i, x_star))
         for i in range(part.n_sub)])
    prob = build_problem(inst, assemble(grid, p))
    lam = multiplier_least_squares(prob, x0)
    assert np.abs(lam).max() < 1e-6


# -------------------------------------------------------- hyper-reduction

@pytest.mark.parametrize("mode", ["collocation", "gappy"])
def test_hr_error_stays_close(desk, ls_wfpc, mode):
    _, part, snap = desk
    h = attach_hr(ls_wfpc, snap, mode, n_samples=60)
    p = snap.params[7]
    _, base = solve_rom(ls_wfpc, p, SqpConfig(tol=1e-6))
    _, rec = solve_rom(h, p, SqpConfig(tol=1e-6))
    assert rec.converged
    assert rec.error <= 3 * base.error
    assert h.provenance["hr"] == mode


def test_hr_srpc_with_subnets(desk, ls_srpc):
    _, part, snap = desk
    h = attach_hr(ls_srpc, snap, "collocation", n_samples=60)
    _, base = solve_rom(ls_srpc, snap.params[7], SqpConfig(tol=1e-6))
    _, rec = solve_rom(h, snap.params[7], SqpConfig(tol=1e-6))
    assert rec.converged
    assert rec.error <= 3 * base.error


def test_hr_rejects_unknown_mode(desk, ls_wfpc):
    _, _, snap = desk
    with pytest.raises(ValueError, match="mode"):
        attach_hr(ls_wfpc, snap, "deim")


def test_hr_operator_rejects_unknown_mode():
    # the CLI's --hr-dir path builds operators directly: a misspelt mode
    # must not turn into gappy HR
    rows, basis = np.array([0, 1]), np.eye(4)[:, :2]
    assert hr_operator("collocation", rows, basis, 4).mode == "collocation"
    assert hr_operator("gappy", rows, basis, 4).mode == "gappy"
    for mode in ("colocation", "none", "deim"):
        with pytest.raises(ValueError, match="mode"):
            hr_operator(mode, rows, basis, 4)


# ------------------------------------------------- one subdomain residual path

@pytest.fixture(scope="module")
def nm_wfpc(desk):
    _, part, snap = desk
    return build_nmrom(part, snap, n_int=6, n_gam=4, constraint="wfpc",
                       n_c=4, train_cfg=TrainConfig(epochs=20, seed=5))


def instance_named(name, request):
    if name == "dd-fom":
        return build_dd_fom(request.getfixturevalue("desk")[1])
    return request.getfixturevalue(name.replace("-", "_"))


def perturbed_latent(inst, snap, k):
    """Every map's encoding of training snapshot ``k``, moved by a seeded
    perturbation so the residual is far from zero (no cancellation)."""
    x = np.concatenate([
        np.concatenate([inst.interior_maps[i].encode(snap.interior[i][:, k]),
                        inst.interface_maps[i].encode(
                            snap.interface[i][:, k])])
        for i in range(inst.partition.n_sub)])
    rng = np.random.default_rng(k)
    return x + 0.1 * np.abs(x).max() * rng.standard_normal(x.size)


def evaluate_blocks(inst, ops, x):
    prob = build_problem(inst, ops)
    return [blk.evaluate(xi, xg)
            for blk, (xi, xg) in zip(prob.blocks, prob.split(x))]


def assert_rel_close(got, ref, rel=1e-12):
    assert np.linalg.norm(got - ref) <= rel * np.linalg.norm(ref)


def dense(a):
    """``a`` as a dense array (DD-FOM Jacobians are CSR)."""
    return a.toarray() if sp.issparse(a) else np.asarray(a)


def densified(prob):
    """``prob`` with every block's ``R`` and ``C`` returned dense: the
    problem the dense normal-form ``_kkt_matrix`` takes as reference."""
    def dense_block(block):
        def evaluate(xi, xg):
            r, R, c, C = block.evaluate(xi, xg)
            return r, dense(R), c, dense(C)

        return SqpBlock(block.n_int, block.n_gam, evaluate)

    return SqpProblem([dense_block(b) for b in prob.blocks], prob.n_mult)


@pytest.mark.parametrize("name", ["ls-wfpc", "ls-srpc", "dd-fom",
                                  "nm-wfpc"])
def test_full_row_blocks_match_global_jacobian(desk, name, request):
    grid, part, snap = desk
    inst = instance_named(name, request)
    p = snap.params[7]
    ops = assemble(grid, p)
    x = perturbed_latent(inst, snap, 7)
    got = evaluate_blocks(inst, ops, x)
    for i, (sub, (xi, xg)) in enumerate(zip(part.subdomains,
                                            inst.split_latent(x))):
        int_map, gam_map = inst.interior_maps[i], inst.interface_maps[i]
        state = np.zeros(grid.ndof)
        state[sub.interior_cols] = int_map.decode(xi)
        state[sub.interface_cols] = gam_map.decode(xg)
        J = reference_jacobian(ops, state)[sub.res_rows]
        r, R, _, _ = got[i]
        R = dense(R)
        R_int, R_gam = R[:, :int_map.latent_dim], R[:, int_map.latent_dim:]
        assert_rel_close(r, reference_residual(ops, state)[sub.res_rows])
        assert_rel_close(R_int, J[:, sub.interior_cols]
                         @ dense(int_map.jacobian(xi)))
        assert_rel_close(R_gam, J[:, sub.interface_cols]
                         @ dense(gam_map.jacobian(xg)))


@pytest.mark.parametrize("name,mode", [("ls-wfpc", "collocation"),
                                       ("ls-wfpc", "gappy"),
                                       ("ls-srpc", "collocation"),
                                       ("nm-wfpc", "collocation"),
                                       ("dd-fom", "collocation"),
                                       ("dd-fom", "gappy")])
def test_hr_blocks_weight_full_row_blocks(desk, name, mode, request):
    grid, part, snap = desk
    inst = instance_named(name, request)
    h = attach_hr(inst, snap, mode, n_samples=30)
    assert all(hr.rows.size < sub.n_res
               for hr, sub in zip(h.hr, part.subdomains))
    ops = assemble(grid, snap.params[7])
    x = perturbed_latent(inst, snap, 7)
    full = evaluate_blocks(inst, ops, x)
    sampled = evaluate_blocks(h, ops, x)
    for hr, ref, got in zip(h.hr, full, sampled):
        for g, f in zip(got[:2], ref[:2]):
            assert_rel_close(dense(g), hr.matrix() @ dense(f))
        for g, f in zip(got[2:], ref[2:]):
            np.testing.assert_array_equal(dense(g), dense(f))


@pytest.mark.parametrize("name", ["ls-wfpc", "ls-srpc", "nm-wfpc-hr",
                                  "dd-fom"])
def test_cached_structure_matches_fresh_build(desk, name, request):
    grid, part, snap = desk
    if name == "nm-wfpc-hr":
        inst = attach_hr(request.getfixturevalue("nm_wfpc"), snap,
                         "collocation", n_samples=30)
    else:
        inst = instance_named(name, request)
    warm, fresh = replace(inst), replace(inst)
    x = perturbed_latent(inst, snap, 7)
    evaluate_blocks(warm, assemble(grid, snap.params[3]), x)
    assert warm._structure is not None and fresh._structure is None
    ops = assemble(grid, snap.params[7])
    prob_w, prob_f = build_problem(warm, ops), build_problem(fresh, ops)
    for bw, bf, (xi, xg) in zip(prob_w.blocks, prob_f.blocks,
                                prob_w.split(x)):
        for got, ref in zip(bw.evaluate(xi, xg), bf.evaluate(xi, xg)):
            np.testing.assert_array_equal(dense(got), dense(ref))


@pytest.mark.parametrize("name,mode", [("ls-wfpc", None), ("ls-srpc", None),
                                       ("nm-wfpc", None),
                                       ("ls-wfpc", "collocation"),
                                       ("ls-wfpc", "gappy"),
                                       ("ls-srpc", "collocation"),
                                       ("nm-wfpc", "collocation"),
                                       ("dd-fom", None),
                                       ("dd-fom", "collocation")])
def test_block_jacobian_is_csr_only_for_sparse_maps(desk, name, mode,
                                                    request):
    grid, part, snap = desk
    inst = instance_named(name, request)
    if mode is not None:
        inst = attach_hr(inst, snap, mode, n_samples=30)
    ops = assemble(grid, snap.params[7])
    prob = build_problem(inst, ops)
    x = perturbed_latent(inst, snap, 7)
    for blk, sub, (xi, xg), (zi, zg) in zip(
            prob.blocks, part.subdomains, prob.split(x),
            prob.split(np.zeros(x.size))):
        _, R, _, C = blk.evaluate(xi, xg)
        if name != "dd-fom":
            assert isinstance(R, np.ndarray) and isinstance(C, np.ndarray)
            continue
        assert sp.issparse(R) and R.format == "csr"
        assert sp.issparse(C) and C.format == "csr"
        if mode is None:
            # identity maps: R is the residual Jacobian itself, with one
            # sparsity pattern at every point, the zero state included
            state = np.zeros(grid.ndof)
            state[sub.interior_cols], state[sub.interface_cols] = xi, xg
            J = reference_jacobian(ops, state)[sub.res_rows][
                :, np.concatenate([sub.interior_cols, sub.interface_cols])]
            assert R.has_sorted_indices
            assert_rel_close(R.toarray(), J.toarray())
            R0 = blk.evaluate(zi, zg)[1]
            np.testing.assert_array_equal(R0.indices, R.indices)
            np.testing.assert_array_equal(R0.indptr, R.indptr)


def test_instance_copies_start_without_structure(desk, ls_wfpc):
    grid, _, snap = desk
    inst = replace(ls_wfpc)
    build_problem(inst, assemble(grid, snap.params[7]))
    assert inst._structure is not None
    assert replace(inst)._structure is None
    assert fit_initializer(inst, snap)._structure is None
    h = attach_hr(inst, snap, "collocation", n_samples=30)
    assert h._structure is None
    prob = build_problem(h, assemble(grid, snap.params[7]))
    for blk, hr, (xi, xg) in zip(prob.blocks, h.hr,
                                 prob.split(np.zeros(prob.n_primal))):
        assert blk.evaluate(xi, xg)[0].size == hr.rows.size


def test_build_problem_rejects_operators_of_another_grid(desk, ls_wfpc):
    grid, _, snap = desk
    p = snap.params[7]
    for other in (Grid2D(grid.nx + 2, grid.ny),
                  Grid2D(grid.nx, grid.ny, nu=2 * grid.nu)):
        with pytest.raises(ValueError, match="grid"):
            build_problem(replace(ls_wfpc), assemble(other, p))


def restricted_of(block):
    """The RestrictedResidual a problem block's evaluate closure holds."""
    return inspect.signature(block.evaluate).parameters["restricted"].default


def test_rows_evaluated_counts_per_problem(desk, ls_wfpc):
    grid, _, snap = desk
    inst = replace(ls_wfpc)
    probs = [build_problem(inst, assemble(grid, snap.params[k]))
             for k in (3, 7)]
    x = perturbed_latent(inst, snap, 7)
    for _ in range(2):
        for blk, (xi, xg) in zip(probs[0].blocks, probs[0].split(x)):
            blk.evaluate(xi, xg)
    for blk, sub in zip(probs[0].blocks, inst.partition.subdomains):
        assert restricted_of(blk).rows_evaluated == 2 * sub.n_res
    for blk in probs[1].blocks:
        assert restricted_of(blk).rows_evaluated == 0
    assert all(restricted.rows_evaluated == 0
               for _, restricted, *_ in inst._structure)


class CountingMap:
    """Forwards to map ``m`` and counts its decode, jacobian and fused
    decode_and_jacobian calls."""

    def __init__(self, m):
        self.m = m
        self.latent_dim, self.ambient_dim = m.latent_dim, m.ambient_dim
        self.calls = {"decode": 0, "jacobian": 0, "decode_and_jacobian": 0}

    def decode(self, x):
        self.calls["decode"] += 1
        return self.m.decode(x)

    def jacobian(self, x):
        self.calls["jacobian"] += 1
        return self.m.jacobian(x)

    def decode_and_jacobian(self, x):
        self.calls["decode_and_jacobian"] += 1
        return self.m.decode_and_jacobian(x)

    def encode(self, x):
        return self.m.encode(x)


@pytest.mark.parametrize("name", ["ls-wfpc", "nm-wfpc"])
def test_wfpc_evaluation_decodes_each_interface_once(desk, name, request):
    grid, _, snap = desk
    inst = instance_named(name, request)
    maps = [CountingMap(m) for m in inst.interface_maps]
    prob = build_problem(replace(inst, interface_maps=maps),
                         assemble(grid, snap.params[7]))
    x = perturbed_latent(inst, snap, 7)
    # the same point twice: one fused evaluation per call, nothing memoised
    for k in (1, 2):
        eval_gradients(prob, x, np.zeros(prob.n_mult))
        assert all(m.calls == {"decode": 0, "jacobian": 0,
                               "decode_and_jacobian": k} for m in maps)


class OpaqueMap(CountingMap):
    """A view of a linear map that the driver does not see is linear, so
    its blocks take the per-call Jacobian product."""

    def restrict_outputs(self, rows):
        return OpaqueMap(self.m.restrict_outputs(rows))


def test_constant_map_products_match_per_call_path(desk, ls_wfpc,
                                                   ls_srpc):
    # POD blocks reuse S M and M[g] computed at the instance's first
    # build; maps that do not look linear take the per-call product.  Both
    # agree at another parameter and point, the residual bitwise.
    grid, part, snap = desk
    smaller = build_lsrom(part, snap, n_int=5, n_gam=4, constraint="wfpc",
                          n_c=4)
    for inst in (replace(ls_wfpc), replace(ls_srpc), smaller,
                 attach_hr(ls_wfpc, snap, "gappy", n_samples=30)):
        opaque = replace(
            inst, interior_maps=[OpaqueMap(m) for m in inst.interior_maps],
            interface_maps=[OpaqueMap(m) for m in inst.interface_maps])
        build_problem(inst, assemble(grid, snap.params[3]))
        ops = assemble(grid, snap.params[7])
        fast, ref = build_problem(inst, ops), build_problem(opaque, ops)
        assert all(s[-1] is not None for s in inst._structure)
        assert all(s[-1] is None for s in opaque._structure)
        x = perturbed_latent(inst, snap, 7)
        for b_fast, b_ref, (xi, xg) in zip(fast.blocks, ref.blocks,
                                           fast.split(x)):
            Br, R, c, C = b_fast.evaluate(xi, xg)
            Br_ref, R_ref, c_ref, C_ref = b_ref.evaluate(xi, xg)
            assert np.array_equal(Br, Br_ref)
            assert isinstance(R, np.ndarray)
            assert np.linalg.norm(R - R_ref) <= 1e-12 * np.linalg.norm(R_ref)
            np.testing.assert_array_equal(c, c_ref)
            np.testing.assert_array_equal(C, C_ref)


@pytest.mark.parametrize("name", ["ls-wfpc", "ls-srpc", "dd-fom",
                                  "nm-wfpc"])
def test_linear_blocks_form_the_coupling_jacobian_once(desk, name,
                                                       request):
    # a linear block returns one C, coupling @ Phi (WFPC) or the coupling
    # block itself (SRPC), at every point; a nonlinear one forms C per call
    grid, _, snap = desk
    inst = replace(instance_named(name, request))
    prob = build_problem(inst, assemble(grid, snap.params[7]))
    x = perturbed_latent(inst, snap, 7)
    points = [prob.split(x), prob.split(np.zeros(x.size))]
    for i, (blk, g, coupling) in enumerate(zip(
            prob.blocks, inst.interface_maps, inst.coupling)):
        C1, C2 = (blk.evaluate(*pts[i])[3] for pts in points)
        if name == "nm-wfpc":
            assert inst._structure[i][-2] is None
            assert not np.array_equal(C1, C2)
            continue
        assert C1 is C2
        ref = coupling if name == "ls-srpc" else coupling @ g.Phi
        np.testing.assert_array_equal(dense(C1), dense(ref))


@pytest.fixture(scope="module")
def ls_2x2():
    grid = Grid2D(24, 8)
    part = build_partition(grid, 2, 2)
    snap = generate(grid, sample_grid(4, 3, a_range=(100.0, 5000.0),
                                      lam_range=(8.0, 20.0)), part)
    inst = build_lsrom(part, snap, n_int=4, n_gam=3, constraint="wfpc")
    return fit_initializer(inst, snap)


def test_multiplier_sweep_is_handed_to_the_sqp(ls_2x2):
    # solve_rom evaluates x0 once, for the multiplier least squares, and
    # the SQP starts from that sweep: one block evaluation fewer per
    # subdomain than a solve that evaluates x0 again, same bits
    p = ParameterPoint(1234.0, 13.0)
    cfg = SqpConfig(tol=1e-8, max_iter=6)

    def counting(inst):
        maps = [CountingMap(m) for m in inst.interface_maps]
        return replace(inst, interface_maps=maps), maps

    def evaluations(maps):
        return sum(m.calls["decode_and_jacobian"] for m in maps)

    inst, maps = counting(ls_2x2)
    sol, _ = solve_rom(inst, p, cfg, compute_error=False)
    handed = evaluations(maps)
    assert handed == 4 * (1 + len(sol.sqp.alpha_history)
                          + sum(round(np.log2(1 / a))
                                for a in sol.sqp.alpha_history))

    inst, maps = counting(ls_2x2)
    prob = build_problem(inst, assemble(inst.partition.grid, p))
    x0, lam0, _ = init_guess(inst, p, prob=prob)
    res = iterate(prob, x0, lam0, cfg)
    assert evaluations(maps) == handed + 4
    assert res.n_iter == sol.sqp.n_iter >= 2
    assert np.array_equal(res.x, sol.sqp.x)
    assert np.array_equal(res.lam, sol.sqp.lam)
    assert res.merit_history == sol.sqp.merit_history


def old_referenced_cols(pattern, rows):
    return np.unique(np.concatenate(
        [pattern.indices[pattern.indptr[r]:pattern.indptr[r + 1]]
         for r in rows])).astype(np.int64)


def test_row_to_output_maps_match_loop_reference(desk):
    _, part, _ = desk
    rng = np.random.default_rng(31)
    for i, sub in enumerate(part.subdomains):
        for size in [1, 7, sub.n_res // 2, sub.n_res]:
            z = np.sort(rng.choice(sub.n_res, size=size, replace=False))
            cols = part.referenced_cols(sub.res_rows[z])
            ref = old_referenced_cols(part.pattern, sub.res_rows[z])
            assert cols.dtype == np.int64
            np.testing.assert_array_equal(cols, ref)
            io, gio = hr_rows_for_subdomain(part, i, z)
            np.testing.assert_array_equal(io, np.searchsorted(
                sub.interior_cols, np.intersect1d(ref, sub.interior_cols)))
            np.testing.assert_array_equal(gio, np.searchsorted(
                sub.interface_cols, np.intersect1d(ref, sub.interface_cols)))


# ------------------------------------------------------------------ NM-ROM

def test_nmrom_wfpc_solves(desk):
    _, part, snap = desk
    nm = build_nmrom(part, snap, n_int=6, n_gam=4, constraint="wfpc",
                     n_c=4, train_cfg=TrainConfig(epochs=300, seed=5))
    nm = fit_initializer(nm, snap)
    _, rec = solve_rom(nm, snap.params[7],
                       SqpConfig(tol=1e-6, max_iter=30))
    assert rec.converged
    assert rec.error < 0.5


# ------------------------------------------------------- bound diagnostics

def test_kappa_estimate_linear_oracle():
    rng = np.random.default_rng(2)
    M = rng.normal(size=(3, 2))
    b = rng.normal(size=3)
    s = np.linalg.svd(M, compute_uv=False)
    pts = [rng.normal(size=2) for _ in range(1000)]
    pairs = [(k, k + 1) for k in range(999)]
    lo, hi = inverse_lipschitz_estimate(lambda w: M @ w - b, pts, pairs)
    assert s[-1] <= lo + 1e-12
    assert lo <= 1.1 * s[-1]
    assert hi <= s[0] + 1e-12
    assert hi >= 0.9 * s[0]


def test_kappa_estimate_rejects_degenerate():
    pts = [np.zeros(2), np.zeros(2)]
    with pytest.raises(ValueError, match="degenerate"):
        inverse_lipschitz_estimate(lambda w: w, pts, [(0, 1)])


def test_bound_diagnostics_tiny_instance(desk, ls_wfpc):
    _, part, snap = desk
    diag = verify_bounds(ls_wfpc, snap.params[7], n_samples=100, seed=3,
                         cfg=SqpConfig(tol=1e-6))
    assert diag.p_hat == pytest.approx(1.0, abs=1e-12)  # B = I
    assert diag.n_samples == 100 and diag.seed == 3
    assert diag.bound_holds
    assert diag.observed_lhs <= diag.bound_rhs
    assert 0 < diag.kappa_lower <= diag.kappa_upper
    text = diag.report()
    assert "estimates" in text and "seed=3" in text


# --------------------------------------------------------------- benchmark

def test_benchmark_sweep_schema_and_determinism(desk, ls_wfpc, ls_srpc,
                                                tmp_path):
    _, part, snap = desk
    instances = {"ls-wfpc": ls_wfpc, "ls-srpc": ls_srpc, "gone": None}
    params = [snap.params[7], snap.params[15]]
    recs1 = benchmark_sweep(instances, params, tmp_path / "a",
                            SqpConfig(tol=1e-6))
    recs2 = benchmark_sweep(instances, params, tmp_path / "b",
                            SqpConfig(tol=1e-6))

    with open(tmp_path / "a" / "records.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["label", "rom", "constraint", "hr", "n_int",
                       "n_gam", "a", "lambda", "error", "fom_seconds",
                       "rom_seconds", "parallel_seconds",
                       "per_iter_seconds", "speedup", "n_iter",
                       "converged", "final_merit", "status",
                       "online_seconds", "final_constraint"]
    assert len(rows) == 1 + 5          # 2 instances x 2 params + absent
    statuses = [r[rows[0].index("status")] for r in rows[1:]]
    assert statuses.count("absent") == 1

    ok = [r for r in recs1 if r.status == "ok"]
    assert ok and all(r.online_seconds >= r.rom_seconds > 0 for r in ok)

    # errors deterministic across repeated sweeps; timings excluded
    e1 = [r.error for r in recs1 if r.status == "ok"]
    e2 = [r.error for r in recs2 if r.status == "ok"]
    np.testing.assert_array_equal(e1, e2)

    with open(tmp_path / "a" / "pareto.csv") as fh:
        prow = list(csv.reader(fh))
    assert prow[0] == ["label", "rom", "constraint", "hr", "mean_error",
                       "mean_speedup", "mean_relative_time", "cells"]
    by_label = {r[0]: r for r in prow[1:]}
    assert by_label["gone"][-1] == "0"
    assert float(by_label["ls-wfpc"][4]) > 0


def test_benchmark_sweep_fom_reference_follows_viscosity(tmp_path):
    # two grids that differ only in nu: each record's error is the one of
    # its own solve, not of a FOM reference cached for the other grid
    params = sample_grid(4, 3, a_range=(100.0, 5000.0),
                         lam_range=(8.0, 20.0))
    instances, own = {}, {}
    p = ParameterPoint(2000.0, 14.0)
    for nu in (0.1, 0.2):
        part = build_partition(Grid2D(16, 4, nu), 2, 1)
        snap = generate(part.grid, params, part)
        inst = fit_initializer(build_lsrom(part, snap, 6, 4, n_c=4), snap)
        instances[f"nu={nu}"] = inst
        own[f"nu={nu}"] = solve_rom(inst, p, SqpConfig(tol=1e-6))[1].error
    recs = benchmark_sweep(instances, [p], tmp_path, SqpConfig(tol=1e-6))
    assert own["nu=0.1"] != own["nu=0.2"]
    assert {r.label: r.error for r in recs} == own


def test_solve_failure_reported_not_raised(desk, ls_wfpc):
    _, _, snap = desk
    _, rec = solve_rom(ls_wfpc, snap.params[7],
                       SqpConfig(tol=1e-14, max_iter=2))
    assert not rec.converged
    assert rec.n_iter == 2
    assert rec.status == "max_iter"


def test_benchmark_sweep_leaves_unconverged_runs_out(desk, ls_wfpc,
                                                     tmp_path):
    _, _, snap = desk
    recs = benchmark_sweep({"ls-wfpc": ls_wfpc}, [snap.params[7]], tmp_path,
                           SqpConfig(tol=1e-12, max_iter=1))
    assert [(r.status, r.converged) for r in recs] == [("max_iter", False)]
    with open(tmp_path / "records.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[1][rows[0].index("status")] == "max_iter"
    with open(tmp_path / "pareto.csv") as fh:
        prow = list(csv.reader(fh))
    assert prow[1] == ["ls-wfpc", "", "", "", "", "", "", "0"]


def test_srpc_instances_carry_no_fom_constraints(ls_wfpc, ls_srpc):
    # WFPC blocks act on the decoded interface trace, SRPC blocks on the
    # interface latent
    for inst, width in ((ls_wfpc, "ambient_dim"), (ls_srpc, "latent_dim")):
        for block, g in zip(inst.coupling, inst.interface_maps):
            assert block.shape == (inst.n_mult, getattr(g, width))
