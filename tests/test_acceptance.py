"""Acceptance checklist: twelve numbered end-to-end checks, one per test.

Each test prints a single ``[criterion N] PASS/FAIL`` line (visible under
``pytest -s``) and then asserts.  Criteria 9-11 share one scaled fixture
(120x12 grid, 2x2 subdomains, 400 training snapshots, networks trained
from scratch) and together take a few minutes; everything else runs in
seconds.
"""

import hashlib
import time
from types import SimpleNamespace

import numpy as np
import pytest

from ddrom import driver
from ddrom.autoencoder import (
    TrainConfig,
    _init_autoencoder,
    build_mask,
)
from ddrom.burgers import (
    Grid2D,
    ParameterPoint,
    assemble,
    exact_state,
    residual,
    solve_monolithic,
)
from ddrom.driver import (
    attach_hr,
    build_dd_fom,
    build_lsrom,
    build_nmrom,
    fit_initializer,
    solve_rom,
    verify_bounds,
)
from ddrom.hyper import extract_subnet, hr_gappy
from ddrom.partition import assemble_fom_constraints, build_partition
from ddrom.pod import pod
from ddrom.snapshots import NormalizationStats, generate, sample_grid
from ddrom.sqp import (
    SqpBlock,
    SqpConfig,
    SqpProblem,
    _kkt_matrix,
    assemble_and_solve_kkt,
    eval_gradients,
    iterate,
)

from fom_reference import reference_hr_matrix


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _random_net(n_out, band, shift, n, seed, activation="swish"):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n_out, 8))
    norm = NormalizationStats.from_snapshots(X)
    ae = _init_autoencoder(build_mask(n_out, band, shift), n, activation,
                           norm, rng)
    ae.b1g[:] = 0.1 * rng.normal(size=ae.b1g.size)
    ae.b1h[:] = 0.1 * rng.normal(size=ae.b1h.size)
    return ae


# -- small shared snapshot set (criteria 3, 6, 12) -----------------------

@pytest.fixture(scope="module")
def tiny():
    grid = Grid2D(20, 4)
    part = build_partition(grid, 2, 1)
    params = sample_grid(6, 5, a_range=(100.0, 5000.0),
                         lam_range=(8.0, 20.0))
    snap = generate(grid, params, part)
    return SimpleNamespace(grid=grid, part=part, snap=snap)


# -- criterion 1: DD solver reproduces the monolithic solution -----------

def test_dd_solve_matches_monolithic_newton():
    t0 = time.perf_counter()
    grid = Grid2D(60, 8)
    p = ParameterPoint(5000.0, 15.0)
    part = build_partition(grid, 2, 2)
    inst = build_dd_fom(part)
    x_mono, trace = solve_monolithic(grid, p)
    x0 = np.zeros(sum(s.n_interior + s.n_interface for s in part.subdomains))
    sol, rec = solve_rom(inst, p, SqpConfig(tol=1e-6, max_iter=15), x0=x0,
                         fom_state=x_mono, fom_seconds=np.nan,
                         compute_error=False)
    num = den = 0.0
    for i, (xi, xg) in enumerate(sol.states):
        ri, rg = part.restrict(i, x_mono)
        num += np.sum((xi - ri) ** 2) + np.sum((xg - rg) ** 2)
        den += np.sum(ri ** 2) + np.sum(rg ** 2)
    rel = float(np.sqrt(num / den))
    wall = time.perf_counter() - t0
    ok = trace.converged and rec.converged and rel <= 1e-6 and wall < 30.0
    _report(1, ok, f"dd vs monolithic rel l2 diff {rel:.3e} "
                   f"(<= 1e-6), {rec.n_iter} sqp iters, {wall:.1f} s")


# -- criterion 2: residual consistency order under grid refinement -------

def test_residual_of_exact_solution_shrinks_at_second_order():
    t0 = time.perf_counter()
    p = ParameterPoint(1.0, 25.0)
    norms = []
    for nx, ny in [(247, 39), (495, 79), (991, 159)]:
        g = Grid2D(nx, ny)
        norms.append(float(np.abs(residual(assemble(g, p),
                                           exact_state(g, p))).max()))
    factors = [norms[k] / norms[k + 1] for k in range(2)]
    wall = time.perf_counter() - t0
    ok = all(3.2 <= f <= 4.8 for f in factors) and wall < 60.0
    _report(2, ok, "residual inf-norm factors per h-halving "
                   f"{factors[0]:.2f}, {factors[1]:.2f} (in [3.2, 4.8]), "
                   f"{wall:.1f} s")


# -- criterion 3: POD projection error equals discarded energy -----------

def test_pod_projection_error_equals_discarded_energy(tiny):
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(tiny.part.n_sub):
        X = tiny.snap.interior[i]
        for n in (2, 4, 6):
            b = pod(X, fixed_n=n)
            lhs = np.linalg.norm(X - b.Phi @ (b.Phi.T @ X), "fro") ** 2
            rel = abs(lhs - b.discarded_energy) / b.discarded_energy
            worst = max(worst, rel)
    wall = time.perf_counter() - t0
    ok = worst <= 1e-8 and wall < 10.0
    _report(3, ok, f"max |frob^2 - tail energy| / tail energy {worst:.3e} "
                   f"(<= 1e-8), {wall:.1f} s")


# -- criterion 4: decoder Jacobian vs central finite differences ---------

def test_decoder_jacobian_matches_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(40)
    worst = 0.0
    for k in range(10):
        n_out = int(rng.integers(60, 501))
        net = _random_net(n_out, int(rng.integers(2, 6)),
                          int(rng.integers(2, 6)), int(rng.integers(2, 7)),
                          seed=1000 + k,
                          activation="swish" if k % 2 else "sigmoid")
        xh = rng.normal(size=net.latent_dim)
        J = net.jacobian(xh)
        fd = np.empty_like(J)
        h = 1e-6
        for d in range(net.latent_dim):
            e = np.zeros(net.latent_dim)
            e[d] = h
            fd[:, d] = (net.decode(xh + e) - net.decode(xh - e)) / (2 * h)
        worst = max(worst, np.linalg.norm(fd - J) / np.linalg.norm(J))
    wall = time.perf_counter() - t0
    ok = worst < 1e-5 and wall < 10.0
    _report(4, ok, f"10 random sparse nets (N <= 500): max fd rel error "
                   f"{worst:.3e} (< 1e-5), {wall:.1f} s")


# -- criterion 5: subnet rows bitwise-equal the full decoder -------------

def test_subnet_rows_bitwise_equal_full_decoder():
    t0 = time.perf_counter()
    rng = np.random.default_rng(50)
    exact = True
    for k in range(5):
        n_out = int(rng.integers(40, 200))
        net = _random_net(n_out, int(rng.integers(2, 5)),
                          int(rng.integers(2, 5)), 4, seed=2000 + k)
        keep = np.unique(rng.integers(0, n_out, size=n_out // 3))
        sub = extract_subnet(net, keep)
        for _ in range(100):
            xh = rng.normal(size=4)
            exact &= bool(np.array_equal(sub.decode(xh),
                                         net.decode(xh)[keep]))
    wall = time.perf_counter() - t0
    ok = exact and wall < 10.0
    _report(5, ok, f"5 nets x 100 points x random kept rows: bitwise equal "
                   f"{exact}, {wall:.1f} s")


# -- criterion 6: gappy-POD identities -----------------------------------

def test_gappy_pod_identities(tiny):
    t0 = time.perf_counter()
    Phi = pod(tiny.snap.residual[0], fixed_n=8).Phi
    n_rows = Phi.shape[0]
    # full sampling: the weighting matrix degenerates to Phi^T
    full = hr_gappy(np.arange(n_rows), Phi)
    dev = float(np.abs(reference_hr_matrix(full) - Phi.T).max())
    # partial sampling reconstructs in-span residuals exactly
    rng = np.random.default_rng(60)
    rows = np.sort(rng.choice(n_rows, size=3 * Phi.shape[1], replace=False))
    gap = hr_gappy(rows, Phi)
    worst = 0.0
    for _ in range(20):
        r = Phi @ rng.normal(size=Phi.shape[1])
        rec = Phi @ gap.apply_B(r)
        worst = max(worst, np.linalg.norm(rec - r) / np.linalg.norm(r))
    wall = time.perf_counter() - t0
    ok = dev <= 1e-12 and worst <= 1e-8 and wall < 5.0
    _report(6, ok, f"B == Phi^T at full sampling (max dev {dev:.2e} <= "
                   f"1e-12); in-span reconstruction rel error {worst:.2e} "
                   f"(<= 1e-8), {wall:.1f} s")


# -- criterion 7: decoder mask reference sizes ---------------------------

def test_mask_reference_width_and_nnz():
    t0 = time.perf_counter()
    # reference (rows, width, nnz) pairs for band = shift = 5; the first
    # pair is quoted against interior blocks of a 480x24 grid split 2x2
    # (5258 rows; see the partition suite for the geometric count).
    m1 = build_mask(5258, 5, 5)
    m2 = build_mask(1006, 5, 5)
    got = (m1.width, m1.nnz, m2.width, m2.nnz)
    want = (26290, 78820, 5030, 15040)
    wall = time.perf_counter() - t0
    ok = got == want and wall < 1.0
    _report(7, ok, f"mask sizes {got} == {want}, {wall:.2f} s")


# -- criterion 8: SQP solves linear instances in one iteration -----------

def test_sqp_converges_in_one_iteration_on_linear_instances():
    t0 = time.perf_counter()

    def linear_block(rng, n_mult):
        ni, ng, m = int(rng.integers(2, 5)), int(rng.integers(2, 5)), 9
        Ai, Ag = rng.normal(size=(m, ni)), rng.normal(size=(m, ng))
        b, E = rng.normal(size=m), rng.normal(size=(n_mult, ng))
        d = rng.normal(size=n_mult) / 2.0
        R = np.hstack([Ai, Ag])
        return SqpBlock(ni, ng, lambda xi, xg: (Ai @ xi + Ag @ xg - b, R,
                                                E @ xg - d, E))

    iters, backsub = [], 0.0
    for seed in range(5):
        rng = np.random.default_rng(80 + seed)
        prob = SqpProblem([linear_block(rng, 3) for _ in range(2)], 3)
        x0 = rng.normal(size=prob.n_primal)
        res = iterate(prob, x0, cfg=SqpConfig(tol=1e-10))
        iters.append(res.n_iter)
        assert res.converged and res.alpha_history == [1.0]
        # re-solve the KKT system at the starting point and measure the
        # back-substitution residual directly
        ev = eval_gradients(prob, x0, np.zeros(prob.n_mult))
        s, s_lam, *_ = assemble_and_solve_kkt(prob, ev,
                                              np.zeros(prob.n_mult))
        K = _kkt_matrix(prob, ev)
        rhs = -np.concatenate([ev.rho, ev.con])
        sol = np.concatenate([s, s_lam])
        backsub = max(backsub, np.linalg.norm(K @ sol - rhs)
                      / np.linalg.norm(rhs))
    wall = time.perf_counter() - t0
    ok = all(n == 1 for n in iters) and backsub <= 1e-10 and wall < 5.0
    _report(8, ok, f"5 linear instances: iterations {iters} (all 1), max "
                   f"kkt back-substitution residual {backsub:.2e} "
                   f"(<= 1e-10), {wall:.1f} s")


# -- criteria 9-11: scaled end-to-end group ------------------------------

@pytest.fixture(scope="module")
def scaled():
    """120x12 grid, 2x2 subdomains, 20x20 training grid, (8,4) ROMs.

    Trains every network from scratch; the WFPC weak-constraint row count
    is set to 8 (half the 16 interface latents) so the homogeneous
    constraint cannot pin the interface latents to zero.
    """
    t0 = time.perf_counter()
    grid = Grid2D(120, 12, nu=0.1)
    part = build_partition(grid, 2, 2)
    params = sample_grid(20, 20)
    p_test = ParameterPoint(7692.5384, 21.9230)
    assert all((q.a, q.lam) != (p_test.a, p_test.lam) for q in params)
    snap = generate(grid, params, part)
    assert not snap.failures

    fom_t0 = time.perf_counter()
    fom_state, _ = solve_monolithic(grid, p_test)
    fom_seconds = time.perf_counter() - fom_t0

    cfg = SqpConfig(tol=1e-4, max_iter=15)
    tcfg = TrainConfig(epochs=500, seed=0)
    n_c = 8

    # each distinct net is trained once: the SRPC build asks for the same
    # four interior nets as the WFPC build (same data, mask, latent size
    # and seed), and gets the WFPC build's
    train, trained, repeats = driver.train, {}, []

    def train_once(X, mask, n, cfg, activation):
        key = (hashlib.sha256(X.tobytes()).hexdigest(), X.shape, mask.band,
               mask.shift, n, cfg, activation)
        if key in trained:
            repeats.append(key)
        else:
            trained[key] = train(X, mask, n, cfg, activation=activation)
        return trained[key]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(driver, "train", train_once)
        ls = fit_initializer(
            build_lsrom(part, snap, 8, 4, "wfpc", n_c=n_c), snap)
        nm = fit_initializer(build_nmrom(part, snap, 8, 4, "wfpc", n_c=n_c,
                                         train_cfg=tcfg), snap)
        ls_srpc = fit_initializer(build_lsrom(part, snap, 8, 4, "srpc"), snap)
        nm_srpc = fit_initializer(
            build_nmrom(part, snap, 8, 4, "srpc", train_cfg=tcfg), snap)
    assert len(repeats) == 4

    solve = lambda inst, label: solve_rom(
        inst, p_test, cfg, fom_state=fom_state, fom_seconds=fom_seconds,
        label=label)
    ls_sol, ls_rec = solve(ls, "ls-wfpc")
    nm_sol, nm_rec = solve(nm, "nm-wfpc")
    ls_srpc_sol, ls_srpc_rec = solve(ls_srpc, "ls-srpc")
    nm_srpc_sol, nm_srpc_rec = solve(nm_srpc, "nm-srpc")

    return SimpleNamespace(
        grid=grid, part=part, snap=snap, p_test=p_test,
        fom_state=fom_state, fom_seconds=fom_seconds, cfg=cfg,
        ls=ls, nm=nm, ls_srpc=ls_srpc, nm_srpc=nm_srpc,
        ls_sol=ls_sol, ls_rec=ls_rec, nm_sol=nm_sol, nm_rec=nm_rec,
        ls_srpc_sol=ls_srpc_sol, ls_srpc_rec=ls_srpc_rec,
        nm_srpc_sol=nm_srpc_sol, nm_srpc_rec=nm_srpc_rec,
        wall=time.perf_counter() - t0)


def test_scaled_rom_accuracy(scaled):
    s = scaled
    ok = (s.ls_rec.converged and s.nm_rec.converged
          and s.ls_rec.n_iter <= 15 and s.nm_rec.n_iter <= 15
          and s.ls_sol.error <= 5e-2
          and s.nm_sol.error <= s.ls_sol.error
          and s.wall <= 1800.0)
    _report(9, ok, f"held-out (7692.5384, 21.9230): ls-rom error "
                   f"{s.ls_sol.error:.3e} (<= 5e-2), nm-rom error "
                   f"{s.nm_sol.error:.3e} (<= ls), iters "
                   f"{s.ls_rec.n_iter}/{s.nm_rec.n_iter} (<= 15), "
                   f"group wall {s.wall / 60:.1f} min (<= 30)")


def test_collocation_hr_cuts_per_iteration_time(scaled):
    s = scaled
    t0 = time.perf_counter()
    hr = attach_hr(s.nm, s.snap, "collocation", n_samples=100)

    # interleave repeated solves of both instances and compare the
    # fastest repeat of each, so scheduler noise on few-ms iterations
    # cannot decide the verdict
    def best_per_iter(inst, label):
        sols = [solve_rom(inst, s.p_test, s.cfg, fom_state=s.fom_state,
                          fom_seconds=s.fom_seconds, label=label)
                for _ in range(3)]
        return min(r.per_iter_seconds for _, r in sols), sols[0]

    full_t, (_, full_rec) = best_per_iter(s.nm, "nm-wfpc")
    hr_t, (hr_sol, hr_rec) = best_per_iter(hr, "nm-hr")
    wall = time.perf_counter() - t0
    ok = (hr_rec.converged and full_rec.converged
          and hr_t < full_t
          and hr_sol.error <= 3.0 * s.nm_sol.error
          and wall <= 600.0)
    _report(10, ok, f"collocation hr (100 rows/subdomain): per-iter "
                    f"{hr_t * 1e3:.2f} ms < {full_t * 1e3:.2f} ms non-hr "
                    f"(best of 3); error {hr_sol.error:.3e} <= 3x "
                    f"{s.nm_sol.error:.3e}, {wall:.0f} s")


def test_srpc_iterates_satisfy_decoded_port_compatibility(scaled):
    s = scaled
    A = assemble_fom_constraints(s.part.ports)
    worst = 0.0
    checked = 0
    for inst, sol in ((s.ls_srpc, s.ls_srpc_sol),
                      (s.nm_srpc, s.nm_srpc_sol)):
        assert sol.sqp.iterates, "solver did not record iterates"
        for xk, _ in sol.sqp.iterates:
            states = inst.decode(xk)
            mism = sum(A.blocks[i] @ states[i][1]
                       for i in range(s.part.n_sub))
            worst = max(worst, float(np.abs(mism).max()))
            checked += 1
    ok = worst <= 1e-10 and checked >= 2
    _report(11, ok, f"ls+nm srpc, {checked} iterates: max decoded port "
                    f"mismatch {worst:.3e} (<= 1e-10)")


# -- criterion 12: sampled residual-bound diagnostics --------------------

def test_bound_diagnostics_hold_on_tiny_instance(tiny):
    t0 = time.perf_counter()
    inst = fit_initializer(
        build_lsrom(tiny.part, tiny.snap, 6, 4, "wfpc", n_c=4), tiny.snap)
    p = ParameterPoint(1234.0, 13.1)
    fom_state, _ = solve_monolithic(tiny.grid, p)
    sol, _ = solve_rom(inst, p, SqpConfig(tol=1e-8, max_iter=30),
                       fom_state=fom_state, fom_seconds=np.nan)
    diag = verify_bounds(inst, p, n_samples=80, seed=0, solution=sol,
                         fom_state=fom_state)
    report = diag.report()
    wall = time.perf_counter() - t0
    ok = (diag.bound_holds and "kappa_lower" in report
          and "p_hat" in report and wall < 120.0)
    _report(12, ok, f"a posteriori bound holds: lhs {diag.observed_lhs:.3e}"
                    f" <= rhs {diag.bound_rhs:.3e}; kappa_lower "
                    f"{diag.kappa_lower:.3e}, p_hat {diag.p_hat:.3f}, "
                    f"{wall:.0f} s")
