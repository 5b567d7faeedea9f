"""Constrained Gauss-Newton SQP: KKT algebra, line search, FOM oracle."""

import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from ddrom.burgers import Grid2D, ParameterPoint, assemble, exact_state, \
    solve_monolithic
from ddrom import sqp
from ddrom.errors import ConvergenceError
from ddrom.partition import RestrictedResidual, assemble_fom_constraints, \
    build_partition
from ddrom.sqp import (
    ARMIJO_C1,
    SqpBlock,
    SqpConfig,
    SqpProblem,
    _kkt_matrix,
    assemble_and_solve_kkt,
    convergence_diagnostics,
    eval_gradients,
    iterate,
)


def linear_block(A_int, A_gam, b, E, d=None):
    """min ||A_int x_int + A_gam x_gam - b||; contributes E x_gam - d."""
    d = np.zeros(E.shape[0]) if d is None else d

    def evaluate(xi, xg):
        return (A_int @ xi + A_gam @ xg - b, np.hstack([A_int, A_gam]),
                E @ xg - d, E)

    return SqpBlock(A_int.shape[1], A_gam.shape[1], evaluate)


def random_linear_problem(seed, n_blocks=2, n_mult=2):
    rng = np.random.default_rng(seed)
    blocks = []
    for _ in range(n_blocks):
        ni, ng, m = rng.integers(2, 4), rng.integers(2, 4), 8
        blocks.append(linear_block(
            rng.normal(size=(m, ni)), rng.normal(size=(m, ng)),
            rng.normal(size=m), rng.normal(size=(n_mult, ng)),
            rng.normal(size=n_mult) / n_blocks))
    return SqpProblem(blocks, n_mult), rng


def sparsified(block):
    """``block`` with its Jacobian returned as CSR."""
    def evaluate(xi, xg):
        r, R, c, C = block.evaluate(xi, xg)
        return r, sp.csr_matrix(R), c, C

    return SqpBlock(block.n_int, block.n_gam, evaluate)


def global_matrices(prob):
    """Stack the linear problem into whole-system R, b, E, d."""
    Rs, bs, Es, ds = [], [], [], []
    for block in prob.blocks:
        zi = np.zeros(block.n_int)
        zg = np.zeros(block.n_gam)
        r0, R, c0, E = block.evaluate(zi, zg)
        Rs.append(R)
        bs.append(-r0)
        Es.append(np.hstack([np.zeros((c0.size, block.n_int)), E]))
        ds.append(-c0)
    R = np.zeros((sum(r.shape[0] for r in Rs), prob.n_primal))
    row = 0
    for off, Ri in zip(prob.offsets, Rs):
        R[row:row + Ri.shape[0], off:off + Ri.shape[1]] = Ri
        row += Ri.shape[0]
    E = np.hstack(Es)
    return R, np.concatenate(bs), E, sum(ds)


def constrained_lsq_oracle(R, b, E, d):
    """Nullspace method: exact minimizer of ||Rx-b|| s.t. Ex = d."""
    import scipy.linalg
    x_p, *_ = np.linalg.lstsq(E, d, rcond=None)
    N = scipy.linalg.null_space(E)
    y, *_ = np.linalg.lstsq(R @ N, b - R @ x_p, rcond=None)
    return x_p + N @ y


# -- gradients -----------------------------------------------------------


def test_zero_residual_zero_multiplier_gives_zero_gradient():
    E = np.ones((1, 2))

    def evaluate(xi, xg):
        return np.zeros(3), np.zeros((3, 4)), E @ xg * 0.0, E

    prob = SqpProblem([SqpBlock(2, 2, evaluate)], 1)
    ev = eval_gradients(prob, np.ones(4), np.zeros(1))
    assert np.array_equal(ev.rho, np.zeros(4))
    assert ev.merit == 0.0


def test_gradient_matches_finite_difference_lagrangian():
    # nonlinear residual and nonlinear constraint on a single block
    def evaluate(xi, xg):
        x = np.concatenate([xi, xg])
        r = np.array([np.sin(x[0]) + x[1] ** 2, x[0] * x[2], np.cos(x[2])])
        J = np.array([[np.cos(x[0]), 2 * x[1], 0.0],
                      [x[2], 0.0, x[0]],
                      [0.0, 0.0, -np.sin(x[2])]])
        return (r, J, np.array([xg[0] ** 3 - 1.0]),
                np.array([[3 * xg[0] ** 2]]))

    prob = SqpProblem([SqpBlock(2, 1, evaluate)], 1)
    x = np.array([0.3, -0.7, 0.9])
    lam = np.array([0.4])

    def lagrangian(xv):
        r, _, c, _ = prob.blocks[0].evaluate(xv[:2], xv[2:])
        return 0.5 * r @ r + lam @ c

    ev = eval_gradients(prob, x, lam)
    h = 1e-6
    fd = np.empty(3)
    for k in range(3):
        e = np.zeros(3)
        e[k] = h
        fd[k] = (lagrangian(x + e) - lagrangian(x - e)) / (2 * h)
    assert np.linalg.norm(fd - ev.rho) <= 1e-5 * max(
        1.0, np.linalg.norm(ev.rho))


def test_linear_problem_gradient_matches_normal_equations():
    prob, _ = random_linear_problem(0)
    R, b, E, d = global_matrices(prob)
    rng = np.random.default_rng(1)
    x = rng.normal(size=prob.n_primal)
    lam = rng.normal(size=prob.n_mult)
    ev = eval_gradients(prob, x, lam)
    assert np.allclose(ev.rho, R.T @ (R @ x - b) + E.T @ lam, atol=1e-12)
    assert np.allclose(ev.con, E @ x - d, atol=1e-12)


def test_block_errors_carry_index():
    def bad(xi, xg):
        raise FloatingPointError("boom")

    ok = linear_block(np.eye(2), np.eye(2), np.zeros(2), np.ones((1, 2)))
    prob = SqpProblem([ok, SqpBlock(2, 2, bad)], 1)
    with pytest.raises(RuntimeError, match="block 1"):
        eval_gradients(prob, np.zeros(8), np.zeros(1))


def test_inconsistent_constraint_shape_rejected():
    blk = linear_block(np.eye(2), np.eye(2), np.zeros(2), np.ones((2, 2)))
    prob = SqpProblem([blk], 1)       # declared 1 multiplier, block gives 2
    with pytest.raises(ValueError, match="block 0"):
        eval_gradients(prob, np.zeros(4), np.zeros(1))


# -- KKT solve -----------------------------------------------------------


def test_kkt_matrix_matches_dense_composition():
    prob, _ = random_linear_problem(2)
    R, b, E, d = global_matrices(prob)
    ev = eval_gradients(prob, np.zeros(prob.n_primal),
                        np.zeros(prob.n_mult))
    K = _kkt_matrix(prob, ev)
    n = prob.n_primal
    assert np.allclose(K[:n, :n], R.T @ R, atol=1e-12)
    assert np.allclose(K[n:, :n], E, atol=1e-12)
    assert np.allclose(K[:n, n:], E.T, atol=1e-12)
    assert np.array_equal(K[n:, n:], np.zeros((prob.n_mult, prob.n_mult)))


def test_gauss_newton_hessian_symmetric_psd():
    prob, rng = random_linear_problem(3)
    ev = eval_gradients(prob, np.zeros(prob.n_primal),
                        np.zeros(prob.n_mult))
    H = _kkt_matrix(prob, ev)[:prob.n_primal, :prob.n_primal]
    assert np.array_equal(H, H.T)
    for _ in range(20):
        v = rng.normal(size=prob.n_primal)
        assert v @ H @ v >= -1e-12


def test_kkt_solve_backsubstitution_residual():
    for seed in range(5):
        prob, rng = random_linear_problem(seed)
        x = rng.normal(size=prob.n_primal)
        lam = rng.normal(size=prob.n_mult)
        ev = eval_gradients(prob, x, lam)
        s, s_lam = assemble_and_solve_kkt(prob, ev)
        K = _kkt_matrix(prob, ev)
        rhs = -np.concatenate([ev.rho, ev.con])
        sol = np.concatenate([s, s_lam])
        assert np.linalg.norm(K @ sol - rhs) <= 1e-10 * np.linalg.norm(rhs)


def test_kkt_solution_matches_constrained_lsq_oracle():
    for seed in range(4):
        prob, rng = random_linear_problem(seed + 10)
        R, b, E, d = global_matrices(prob)
        x = rng.normal(size=prob.n_primal)
        ev = eval_gradients(prob, x, np.zeros(prob.n_mult))
        s, _ = assemble_and_solve_kkt(prob, ev)
        x_star = constrained_lsq_oracle(R, b, E, d)
        assert np.allclose(x + s, x_star, atol=1e-8)


def test_singular_kkt_raises_after_regularization_warning():
    # duplicated constraint rows make the saddle-point matrix singular in a
    # way +delta*I on the Hessian block cannot repair
    E = np.array([[1.0, 1.0], [1.0, 1.0]])
    blk = linear_block(np.eye(2), np.eye(2), np.ones(2), E)
    prob = SqpProblem([blk], 2)
    ev = eval_gradients(prob, np.zeros(4), np.zeros(2))
    with pytest.warns(RuntimeWarning, match="regularization"):
        with pytest.raises(ConvergenceError):
            assemble_and_solve_kkt(prob, ev)


def test_singular_sparse_kkt_raises_after_regularization_warning():
    # the same duplicated rows: SuperLU finds the factor exactly singular
    # before and after the regularization
    E = np.array([[1.0, 1.0], [1.0, 1.0]])
    blk = sparsified(linear_block(np.eye(2), np.eye(2), np.ones(2), E))
    prob = SqpProblem([blk], 2)
    ev = eval_gradients(prob, np.zeros(4), np.zeros(2))
    assert sp.issparse(_kkt_matrix(prob, ev))
    with pytest.warns(RuntimeWarning, match="regularization"):
        with pytest.raises(ConvergenceError, match="KKT matrix is singular"):
            assemble_and_solve_kkt(prob, ev)


@pytest.mark.parametrize("make", [lambda b: b, sparsified],
                         ids=["dense", "sparse"])
def test_regularizable_kkt_succeeds_after_one_regularization(make):
    # x_int[1] enters neither the residual nor the constraint: a zero row
    # and column that +delta*I on the Hessian block repairs
    A_int = np.array([[1.0, 0.0], [0.0, 0.0]])
    A_gam = np.array([[0.0], [1.0]])
    blk = make(linear_block(A_int, A_gam, np.array([1.0, 2.0]),
                            np.array([[1.0]]), np.array([0.5])))
    prob = SqpProblem([blk], 1)
    ev = eval_gradients(prob, np.zeros(3), np.zeros(1))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        s, s_lam = assemble_and_solve_kkt(prob, ev)
    assert sum(w.category is RuntimeWarning
               and "regularization" in str(w.message) for w in caught) == 1
    np.testing.assert_allclose(s, [1.0, 0.0, 0.5], atol=1e-9)
    assert np.all(np.isfinite(s_lam))


# -- sparse KKT path -------------------------------------------------------


def sparse_linear_problem(seed, which=None):
    """``random_linear_problem(seed)`` twice: as given, and with the blocks
    in ``which`` (default: all) returning CSR Jacobians."""
    prob, rng = random_linear_problem(seed)
    which = range(len(prob.blocks)) if which is None else which
    blocks = [sparsified(b) if i in which else b
              for i, b in enumerate(prob.blocks)]
    return prob, SqpProblem(blocks, prob.n_mult), rng


@pytest.mark.parametrize("which", [None, (0,), (1,)])
def test_sparse_kkt_matrix_matches_dense_composition(which):
    dense_prob, prob, rng = sparse_linear_problem(2, which)
    x = rng.normal(size=prob.n_primal)
    lam = rng.normal(size=prob.n_mult)
    K = _kkt_matrix(prob, eval_gradients(prob, x, lam))
    ref = _kkt_matrix(dense_prob, eval_gradients(dense_prob, x, lam))
    assert sp.issparse(K) and K.format == "csc"
    assert isinstance(ref, np.ndarray)
    assert np.linalg.norm(K.toarray() - ref) <= 1e-14 * np.linalg.norm(ref)
    n = prob.n_primal
    s = rng.normal(size=n)
    np.testing.assert_allclose(K[:n, :n] @ s, ref[:n, :n] @ s, rtol=1e-13)


@pytest.mark.parametrize("which", [None, (0,), (1,)])
def test_sparse_kkt_solve_backsubstitution_residual(which):
    for seed in range(5):
        dense_prob, prob, rng = sparse_linear_problem(seed, which)
        x = rng.normal(size=prob.n_primal)
        lam = rng.normal(size=prob.n_mult)
        ev = eval_gradients(prob, x, lam)
        np.testing.assert_allclose(
            ev.rho, eval_gradients(dense_prob, x, lam).rho, rtol=1e-13)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s, s_lam = assemble_and_solve_kkt(prob, ev)
        K = _kkt_matrix(prob, ev)
        rhs = -ev.optimality
        sol = np.concatenate([s, s_lam])
        assert np.linalg.norm(K @ sol - rhs) <= 1e-10 * np.linalg.norm(rhs)


def test_mixed_sparse_dense_problem_converges_in_one_step():
    dense_prob, prob, rng = sparse_linear_problem(20, which=(1,))
    R, b, E, d = global_matrices(dense_prob)
    res = iterate(prob, rng.normal(size=prob.n_primal),
                  cfg=SqpConfig(tol=1e-10))
    assert res.converged and res.n_iter == 1
    assert np.allclose(res.x, constrained_lsq_oracle(R, b, E, d), atol=1e-8)
    report = convergence_diagnostics(prob, res)
    assert all(eta <= 1e-6 for eta in report["eta"])


# -- iteration -----------------------------------------------------------


def test_quadratic_problem_converges_in_one_step():
    prob, rng = random_linear_problem(20)
    R, b, E, d = global_matrices(prob)
    x0 = rng.normal(size=prob.n_primal)
    res = iterate(prob, x0, cfg=SqpConfig(tol=1e-10))
    assert res.converged
    assert res.n_iter == 1
    assert res.alpha_history == [1.0]
    assert np.allclose(res.x, constrained_lsq_oracle(R, b, E, d), atol=1e-8)
    assert np.linalg.norm(E @ res.x - d) <= 1e-9


def test_start_at_kkt_point_runs_zero_iterations():
    prob, _ = random_linear_problem(21)
    first = iterate(prob, np.zeros(prob.n_primal), cfg=SqpConfig(tol=1e-10))
    again = iterate(prob, first.x, first.lam, cfg=SqpConfig(tol=1e-10))
    assert again.converged
    assert again.n_iter == 0


def test_armijo_guarantee_on_accepted_steps():
    cfg = SqpConfig(tol=1e-12, max_iter=10)

    def evaluate(xi, xg):
        x = np.concatenate([xi, xg])
        r = np.array([np.exp(x[0]) - 1.0, 5 * np.sin(x[1]), x[0] * x[1]])
        J = np.array([[np.exp(x[0]), 0.0],
                      [0.0, 5 * np.cos(x[1])],
                      [x[1], x[0]]])
        return (r, J, np.array([np.tanh(xg[0])]),
                np.array([[1.0 / np.cosh(xg[0]) ** 2]]))

    prob = SqpProblem([SqpBlock(1, 1, evaluate)], 1)
    res = iterate(prob, np.array([0.8, -0.6]), cfg=cfg)
    assert res.failure_reason is None
    for k, alpha in enumerate(res.alpha_history):
        assert 0 < alpha <= 1
        assert res.merit_history[k + 1] <= (
            1 - ARMIJO_C1 * alpha) * res.merit_history[k] + 1e-15


def test_linear_constraint_feasibility_preserved():
    # feasible start + linear constraints: every iterate stays feasible
    rng = np.random.default_rng(22)
    E1 = rng.normal(size=(2, 3))
    E2 = rng.normal(size=(2, 3))

    def make_evaluate(c, E):
        def evaluate(xi, xg):
            x = np.concatenate([xi, xg])
            r = np.array([x[0] ** 2 - c, x[1] * x[3], np.sin(x[4]),
                          x[2] - x[0]])
            J = np.zeros((4, 5))
            J[0, 0] = 2 * x[0]
            J[1, 1], J[1, 3] = x[3], x[1]
            J[2, 4] = np.cos(x[4])
            J[3, 2], J[3, 0] = 1.0, -1.0
            return r, J, E @ xg, E
        return evaluate

    blocks = [SqpBlock(2, 3, make_evaluate(0.5, E1)),
              SqpBlock(2, 3, make_evaluate(1.5, E2))]
    prob = SqpProblem(blocks, 2)
    x0 = np.zeros(prob.n_primal)       # E1@0 + E2@0 = 0: feasible
    res = iterate(prob, x0, cfg=SqpConfig(tol=1e-8, max_iter=12))
    for xk, lamk in res.iterates:
        ev = eval_gradients(prob, xk, lamk)
        assert np.linalg.norm(ev.con) <= 1e-10


def test_line_search_failure_returns_best_iterate_with_flag(monkeypatch):
    def evaluate(xi, xg):
        x = xi[0]
        return (np.array([np.sin(3 * x) + 0.1 * x]),
                np.array([[3 * np.cos(3 * x) + 0.1]]),
                np.zeros(0), np.zeros((0, 0)))

    prob = SqpProblem([SqpBlock(1, 0, evaluate)], 0)
    monkeypatch.setattr(sqp, "MAX_HALVINGS", 0)
    res = iterate(prob, np.array([0.5]), cfg=SqpConfig(tol=1e-10))
    assert not res.converged
    assert res.failure_reason == "line_search"
    assert res.x[0] == 0.5             # best iterate is the start point


def test_iterate_input_validation():
    prob, _ = random_linear_problem(23)
    with pytest.raises(ValueError):
        iterate(prob, np.zeros(prob.n_primal + 1))
    with pytest.raises(ValueError):
        iterate(prob, np.full(prob.n_primal, np.nan))
    with pytest.raises(ValueError):
        SqpConfig(tol=-1.0)
    with pytest.raises(ValueError):
        SqpConfig(backtrack_factor=1.5)


# -- diagnostics ---------------------------------------------------------


def test_diagnostics_zero_for_linear_problem():
    prob, rng = random_linear_problem(24)
    res = iterate(prob, rng.normal(size=prob.n_primal),
                  cfg=SqpConfig(tol=1e-10))
    report = convergence_diagnostics(prob, res)
    assert report["iterations"] == sorted(report["iterations"])
    assert len(report["eta"]) == res.n_iter
    assert all(eta <= 1e-6 for eta in report["eta"])


def test_diagnostics_require_recorded_steps():
    # a run that starts at the KKT point records no step
    prob, _ = random_linear_problem(25)
    cfg = SqpConfig(tol=1e-10)
    first = iterate(prob, np.zeros(prob.n_primal), cfg=cfg)
    res = iterate(prob, first.x, first.lam, cfg=cfg)
    assert res.n_iter == 0 and not res.steps
    with pytest.raises(ValueError):
        convergence_diagnostics(prob, res)


# -- decomposed FOM against the monolithic solver ------------------------


@pytest.fixture(scope="module")
def dd_fom():
    grid = Grid2D(16, 4)
    p = ParameterPoint(400.0, 12.0)
    part = build_partition(grid, 2, 1)
    ops = assemble(grid, p)
    A = assemble_fom_constraints(part.ports)
    blocks = []
    for i, sub in enumerate(part.subdomains):
        Ei = A.blocks[i].toarray()
        Ei_sp = A.blocks[i]

        rr = RestrictedResidual(ops, sub.res_rows, np.concatenate(
            [sub.interior_cols, sub.interface_cols]))

        def evaluate(xi, xg, rr=rr, Ei_sp=Ei_sp, Ei=Ei):
            x = np.concatenate([xi, xg])
            return rr.residual(x), rr.jacobian(x).toarray(), Ei_sp @ xg, Ei

        blocks.append(SqpBlock(sub.n_interior, sub.n_interface, evaluate))
    prob = SqpProblem(blocks, A.n_rows)
    x0 = np.concatenate([
        np.concatenate([exact_state(grid, p)[sub.interior_cols],
                        exact_state(grid, p)[sub.interface_cols]])
        for sub in part.subdomains])
    return grid, p, part, prob, x0


def test_dd_fom_matches_monolithic_newton(dd_fom):
    grid, p, part, prob, x0 = dd_fom
    res = iterate(prob, x0, cfg=SqpConfig(tol=1e-8, max_iter=15))
    assert res.converged
    mono, _ = solve_monolithic(grid, p)
    rebuilt = np.zeros(grid.ndof)
    for (xi, xg), sub in zip(prob.split(res.x), part.subdomains):
        rebuilt[sub.interior_cols] = xi
        rebuilt[sub.interface_cols] = xg
    err = np.linalg.norm(rebuilt - mono) / np.linalg.norm(mono)
    assert err <= 1e-6


def test_dd_fom_contracts_near_solution(dd_fom):
    _, _, _, prob, x0 = dd_fom
    res = iterate(prob, x0, cfg=SqpConfig(tol=1e-8, max_iter=20))
    report = convergence_diagnostics(prob, res)
    # once in the local regime the optimality norm must contract
    tail = report["contraction"][1:res.n_iter]
    assert tail and all(ratio < 1.0 for ratio in tail)
    assert all(np.isfinite(report["eta"]))
