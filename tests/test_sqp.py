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
    """``block`` with its Jacobians ``R`` and ``C`` returned as CSR."""
    def evaluate(xi, xg):
        r, R, c, C = block.evaluate(xi, xg)
        return r, sp.csr_matrix(R), c, sp.csr_matrix(C)

    return SqpBlock(block.n_int, block.n_gam, evaluate)


def densified(prob):
    """``prob`` with every block's ``R`` and ``C`` returned dense: the
    problem the dense normal-form ``_kkt_matrix`` takes as reference."""
    def dense_block(block):
        def evaluate(xi, xg):
            r, R, c, C = block.evaluate(xi, xg)
            return (r, R.toarray() if sp.issparse(R) else R, c,
                    C.toarray() if sp.issparse(C) else C)

        return SqpBlock(block.n_int, block.n_gam, evaluate)

    return SqpProblem([dense_block(b) for b in prob.blocks], prob.n_mult)


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


FD_STEP = 1e-6      # convergence_diagnostics' finite-difference step


def gn_hessian_product(prob, ev, s):
    """The Gauss-Newton Hessian product ``blockdiag(R_i' R_i) s``, formed
    blockwise as ``R_i' (R_i s_i)``."""
    out = np.empty(prob.n_primal)
    for off, be in zip(prob.offsets, ev.blocks):
        w = be.R.shape[1]
        out[off:off + w] = be.R.T @ (be.R @ s[off:off + w])
    return out


def convergence_diagnostics(prob, result):
    """Convergence measures of a recorded run: the optimality norm's
    contraction per iteration, and ``eta``, the Gauss-Newton inexactness
    per accepted step, ||(true Hessian - GN Hessian) s|| / ||F||, from
    central-difference Hessian-vector products of the Lagrangian
    gradient (two gradient sweeps per step)."""
    if len(result.iterates) < 2 or not result.steps:
        raise ValueError("diagnostics need a recorded run of >= 1 step")
    merits = result.merit_history
    ratios = [merits[k + 1] / merits[k] if merits[k] > 0 else np.nan
              for k in range(len(merits) - 1)]
    etas = []
    for (xk, lamk), (s, _) in zip(result.iterates, result.steps):
        ev = eval_gradients(prob, xk, lamk)
        h = FD_STEP / max(np.linalg.norm(s), 1e-300)
        plus = eval_gradients(prob, xk + h * s, lamk)
        minus = eval_gradients(prob, xk - h * s, lamk)
        Hs_true = (plus.rho - minus.rho) / (2.0 * h)
        Hs_gn = gn_hessian_product(prob, ev, s)
        denom = max(ev.merit, 1e-300)
        etas.append(float(np.linalg.norm(Hs_true - Hs_gn)) / denom)
    return {"merit": list(merits),
            "contraction": ratios,
            "eta": etas,
            "iterations": list(range(len(merits)))}


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


def count_rz_matrices(monkeypatch):
    calls = []
    build = sqp._rz_matrix

    def spy(prob, ev, labels):
        calls.append(1)
        return build(prob, ev, labels)

    monkeypatch.setattr(sqp, "_rz_matrix", spy)
    return calls


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
        s, s_lam, *_ = assemble_and_solve_kkt(prob, ev, lam)
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
        s, *_ = assemble_and_solve_kkt(prob, ev, np.zeros(prob.n_mult))
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
            assemble_and_solve_kkt(prob, ev, np.zeros(2))


def test_regularizable_kkt_succeeds_after_one_regularization():
    # x_int[1] enters neither the residual nor the constraint: a zero row
    # and column that +delta*I on the Hessian block repairs
    A_int = np.array([[1.0, 0.0], [0.0, 0.0]])
    A_gam = np.array([[0.0], [1.0]])
    blk = linear_block(A_int, A_gam, np.array([1.0, 2.0]),
                       np.array([[1.0]]), np.array([0.5]))
    prob = SqpProblem([blk], 1)
    ev = eval_gradients(prob, np.zeros(3), np.zeros(1))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        s, s_lam, *_ = assemble_and_solve_kkt(prob, ev, np.zeros(1))
    assert sum(w.category is RuntimeWarning
               and "regularization" in str(w.message) for w in caught) == 1
    np.testing.assert_allclose(s, [1.0, 0.0, 0.5], atol=1e-9)
    assert np.all(np.isfinite(s_lam))


# -- square Newton path ---------------------------------------------------


def sparse_linear_problem(seed, which=None):
    """``random_linear_problem(seed)`` twice: as given, and with the blocks
    in ``which`` (default: all) returning CSR Jacobians."""
    prob, rng = random_linear_problem(seed)
    which = range(len(prob.blocks)) if which is None else which
    blocks = [sparsified(b) if i in which else b
              for i, b in enumerate(prob.blocks)]
    return prob, SqpProblem(blocks, prob.n_mult), rng


def test_mixed_sparse_dense_problem_is_rejected():
    # one sparse and one dense block fit neither step: the first solve
    # raises, naming the blocks' shapes, instead of choosing one
    _, prob, rng = sparse_linear_problem(20, which=(1,))
    x = rng.normal(size=prob.n_primal)
    ev = eval_gradients(prob, x, np.zeros(prob.n_mult))
    with pytest.raises(ValueError, match=r"\(ndarray \(8, \d\), ndarray "
                       r"\(2, \d\)\), \(csr_matrix \(8, \d\), csr_matrix"):
        assemble_and_solve_kkt(prob, ev, np.zeros(prob.n_mult))
    with pytest.raises(ValueError, match="all sparse .* or all dense"):
        iterate(prob, x)


def square_block(A_int, A_gam, b, E, d=None):
    """A sparse :func:`linear_block` whose residual rows plus one
    multiplier per row of ``E`` number its unknowns."""
    blk = sparsified(linear_block(A_int, A_gam, b, E, d))
    assert A_int.shape[0] + E.shape[0] == blk.n_int + blk.n_gam
    return blk


def test_square_predicate_reads_sparsity_and_sizes():
    _, prob, rng = sparse_linear_problem(2)
    x, lam = rng.normal(size=prob.n_primal), rng.normal(size=prob.n_mult)
    with pytest.raises(ValueError, match="16 residual rows"):
        sqp.is_square(prob, eval_gradients(prob, x, lam))   # not square
    # two residual rows and one constraint (x_gam[0] = x_gam[1]) on three
    # unknowns
    blk = linear_block(np.ones((2, 1)), np.eye(2), np.ones(2),
                       np.array([[1.0, -1.0]]))
    prob = SqpProblem([blk], 1)
    ev = eval_gradients(prob, np.zeros(3), np.zeros(1))
    assert not sqp.is_square(prob, ev)          # dense R and C
    prob = SqpProblem([sparsified(blk)], 1)
    ev = eval_gradients(prob, np.zeros(3), np.zeros(1))
    assert sqp.is_square(prob, ev)


def test_square_step_is_newton_step_with_zero_new_multipliers(monkeypatch):
    # the three interface unknowns are copies of one unknown (a chain of
    # signed-incidence rows); a random x violates C x = d, so the step
    # needs its particular solution s_p as well as R Z
    rng = np.random.default_rng(30)
    E = np.array([[1.0, -1.0, 0.0], [0.0, -1.0, 1.0]])
    blk = square_block(np.eye(3, 2) + 0.1 * rng.normal(size=(3, 2)),
                       rng.normal(size=(3, 3)), rng.normal(size=3), E,
                       rng.normal(size=2))
    prob = SqpProblem([blk], 2)
    x, lam = rng.normal(size=5), rng.normal(size=2)
    ev = eval_gradients(prob, x, lam)
    assert np.abs(ev.con).max() > 0.1
    calls = count_rz_matrices(monkeypatch)
    s, s_lam, path, res = assemble_and_solve_kkt(prob, ev, lam)
    assert calls == [1]
    assert path == "newton" and res <= 1e-10
    assert np.array_equal(lam + s_lam, np.zeros(2))
    r0, R, c0, _ = blk.evaluate(x[:2], x[2:])
    A = np.vstack([R.toarray(), np.hstack([np.zeros((2, 2)), E])])
    ref = np.linalg.solve(A, -np.concatenate([r0, c0]))
    assert np.linalg.norm(s - ref) <= 1e-12 * np.linalg.norm(ref)
    ref_prob = densified(prob)
    K = _kkt_matrix(ref_prob, eval_gradients(ref_prob, x, lam))
    sol = np.linalg.solve(K, -ev.optimality)
    assert np.linalg.norm(s - sol[:5]) <= 1e-10 * np.linalg.norm(sol[:5])


def test_singular_square_system_raises_convergence_error(monkeypatch):
    # [R; C] singular through a zero column (x_int[1] enters neither
    # residual nor constraint) and through duplicated constraint rows: no
    # normal-form solve stands in for the Newton step
    singular = [
        SqpProblem([square_block(
            np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]),
            np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
            np.array([1.0, 2.0, 0.0]), np.array([[1.0, -1.0]]),
            np.array([0.5]))], 1),
        SqpProblem([square_block(
            np.eye(2), np.eye(2), np.ones(2),
            np.array([[1.0, -1.0], [1.0, -1.0]]))], 2)]
    monkeypatch.setattr(sqp, "_kkt_matrix", None)
    for prob in singular:
        x0 = np.zeros(prob.n_primal)
        ev = eval_gradients(prob, x0, np.zeros(prob.n_mult))
        assert sqp.is_square(prob, ev)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError, match=r"\[R; C\]"):
                assemble_and_solve_kkt(prob, ev, np.zeros(prob.n_mult))
            with pytest.raises(ConvergenceError, match=r"\[R; C\]"):
                iterate(prob, x0, cfg=SqpConfig(tol=1e-10, max_iter=1))


def test_square_problem_without_incidence_constraints_is_rejected():
    # [R; C] is square, but a row of C that does not equate two copies
    # (one +1 and one -1) leaves no null-space step: the first solve
    # raises, naming it, instead of choosing another step
    for E in ([[1.0, 0.0], [0.0, 2.0]], [[1.0, 1.0], [1.0, -1.0]],
              [[2.0, -2.0], [1.0, -1.0]], [[1.0, -1.0, 1.0]]):
        E = np.array(E)
        m, n_gam = E.shape
        rows = 2 + n_gam - m
        blk = square_block(np.ones((rows, 2)), np.eye(rows, n_gam),
                           np.ones(rows), E)
        prob = SqpProblem([blk], m)
        x0 = np.zeros(prob.n_primal)
        ev = eval_gradients(prob, x0, np.zeros(m))
        assert sqp.is_square(prob, ev)
        with pytest.raises(ValueError, match="signed-incidence C"):
            assemble_and_solve_kkt(prob, ev, np.zeros(m))
        with pytest.raises(ValueError, match="signed-incidence C"):
            iterate(prob, x0, cfg=SqpConfig(tol=1e-10, max_iter=1))


def test_kkt_path_and_residual_recorded_per_solve(monkeypatch):
    prob, rng = random_linear_problem(20)
    res = iterate(prob, rng.normal(size=prob.n_primal),
                  cfg=SqpConfig(tol=1e-10))
    assert res.kkt_path_history == ["kkt"] * res.n_iter
    assert len(res.kkt_residual_history) == res.n_iter
    assert all(0.0 <= r <= 1e-10 for r in res.kkt_residual_history)
    # a solve whose step the line search then rejects is recorded too
    monkeypatch.setattr(sqp, "MAX_HALVINGS", 0)
    failed = iterate(SqpProblem([wiggly_block()], 0), np.array([1.7]),
                     cfg=SqpConfig(tol=1e-10))
    assert failed.stop_reason == "line_search" and failed.n_iter == 0
    assert failed.kkt_path_history == ["kkt"]
    assert len(failed.kkt_residual_history) == 1


@pytest.mark.parametrize("which", [None, (0,), ()])
def test_gauss_newton_product_matches_kkt_hessian_block(which):
    # any mix of sparse and dense blocks, against the dense normal form
    _, prob, rng = sparse_linear_problem(4, which)
    ref_prob = densified(prob)
    for _ in range(3):
        x = rng.normal(size=prob.n_primal)
        lam = rng.normal(size=prob.n_mult)
        ev = eval_gradients(prob, x, lam)
        s = rng.normal(size=prob.n_primal)
        n = prob.n_primal
        ref = _kkt_matrix(ref_prob, eval_gradients(ref_prob, x, lam))[
            :n, :n] @ s
        got = gn_hessian_product(prob, ev, s)
        assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


# -- iteration -----------------------------------------------------------


def test_quadratic_problem_converges_in_one_step():
    prob, rng = random_linear_problem(20)
    R, b, E, d = global_matrices(prob)
    x0 = rng.normal(size=prob.n_primal)
    res = iterate(prob, x0, cfg=SqpConfig(tol=1e-10))
    assert res.converged and res.stop_reason == "merit"
    assert res.n_iter == 1
    assert res.alpha_history == [1.0]
    assert len(res.constraint_history) == 2
    assert res.final_constraint <= 1e-9
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
    # the line search's own test: Armijo decrease of f + mu ||c||_1
    for k, alpha in enumerate(res.alpha_history):
        (x, lam), (x_new, lam_new) = res.iterates[k], res.iterates[k + 1]
        s, s_lam = res.steps[k]
        ev, new = (eval_gradients(prob, x, lam),
                   eval_gradients(prob, x_new, lam_new))
        mu = 2.0 * np.abs(lam + s_lam).max()
        viol = np.abs(ev.con).sum()
        slope = ev.grad_f @ s - mu * viol
        assert slope < 0
        assert new.objective + mu * np.abs(new.con).sum() <= (
            ev.objective + mu * viol + ARMIJO_C1 * alpha * slope)


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


def wiggly_block(n_far=0):
    """r = sin(3 x) + 0.1 x on ``x_int[0]``; from x = 1.7 the full
    Gauss-Newton step raises both the optimality norm and the objective.
    ``n_far`` more interior unknowns sit solved at 1000 (r = x - 1000)."""
    def evaluate(xi, xg):
        x = xi[0]
        r = np.concatenate([[np.sin(3 * x) + 0.1 * x], xi[1:] - 1000.0])
        J = np.eye(1 + n_far)
        J[0, 0] = 3 * np.cos(3 * x) + 0.1
        return r, J, np.zeros(0), np.zeros((0, 0))

    return SqpBlock(1 + n_far, 0, evaluate)


def test_line_search_failure_returns_best_iterate_with_flag(monkeypatch):
    # the one trial step (no halvings) fails both Armijo tests
    prob = SqpProblem([wiggly_block()], 0)
    monkeypatch.setattr(sqp, "MAX_HALVINGS", 0)
    res = iterate(prob, np.array([1.7]), cfg=SqpConfig(tol=1e-10))
    assert not res.converged
    assert res.failure_reason == "line_search"
    assert res.x[0] == 1.7             # best iterate is the start point
    assert res.stop_reason == "line_search"


def test_merit_floor_above_tol_converges_on_the_step_test():
    # a nonzero-residual least-squares problem scaled by 1e7: at the
    # minimizer exp(x_int) = 1.6, grad f = J'r cancels terms of size 1e14,
    # so roundoff keeps the optimality norm above tol for good
    S = 1e7

    def evaluate(xi, xg):
        e = np.exp(xi[0])
        r = S * np.array([e - 1.0, e - 2.2, xg[0] - 2.0])
        J = S * np.array([[e, 0.0], [e, 0.0], [0.0, 1.0]])
        return r, J, xg - 1.0, np.eye(1)

    prob = SqpProblem([SqpBlock(1, 1, evaluate)], 1)
    x0 = np.array([1.0, 0.0])
    floor = iterate(prob, x0, cfg=SqpConfig(tol=1e-300, max_iter=15))
    assert floor.stop_reason == "max_iter"
    assert min(floor.merit_history) >= 1e-4
    res = iterate(prob, x0, cfg=SqpConfig(tol=1e-4, max_iter=15))
    assert res.converged and res.stop_reason == "step"
    assert res.failure_reason is None
    assert res.final_merit >= 1e-4
    s, _ = res.steps[-1]
    assert np.linalg.norm(s) <= 1e-4 * np.linalg.norm(res.x)
    assert abs(res.x[0] - np.log(1.6)) <= 1e-9
    assert res.final_constraint <= 1e-12


def test_backtracked_step_never_stops_the_solve_by_itself():
    # a far unknown makes ||x|| ~ 1000; tol sits between the damped and
    # the full first step relative to it
    prob = SqpProblem([wiggly_block(n_far=1)], 0)
    x0 = np.array([1.45, 1000.0])
    probe = iterate(prob, x0, cfg=SqpConfig(max_iter=1))
    alpha = probe.alpha_history[0]
    s, _ = probe.steps[0]
    x1 = probe.iterates[1][0]
    assert alpha < 1.0
    tol = 0.5 * (alpha + 1.0) * np.linalg.norm(s) / np.linalg.norm(x1)
    assert alpha * np.linalg.norm(s) <= tol * np.linalg.norm(x1)
    assert probe.merit_history[1] >= tol
    res = iterate(prob, x0, cfg=SqpConfig(tol=tol, max_iter=30))
    assert res.n_iter >= 2
    np.testing.assert_array_equal(res.iterates[1][0], x1)
    assert res.converged


def test_step_raising_optimality_norm_but_lowering_l1_merit_is_taken():
    # r = (atan(x_int), x_gam - 1), c = x_gam - 0.5: from x_int = 1.2 the
    # Gauss-Newton step overshoots to -0.94 and lowers |atan|, so the
    # objective and the constraint violation fall while ||(grad L, c)||
    # rises
    def evaluate(xi, xg):
        r = np.array([np.arctan(xi[0]), xg[0] - 1.0])
        J = np.array([[1.0 / (1.0 + xi[0] ** 2), 0.0], [0.0, 1.0]])
        return r, J, xg - 0.5, np.eye(1)

    prob = SqpProblem([SqpBlock(1, 1, evaluate)], 1)
    res = iterate(prob, np.array([1.2, 0.6]), np.array([0.4]),
                  SqpConfig(tol=1e-10, max_iter=1))
    assert res.alpha_history == [1.0]
    assert res.merit_history[1] > res.merit_history[0]
    mu = 2 * abs(res.lam[0])
    phi = [f + mu * c for f, c in zip(res.objective_history,
                                      res.constraint_history)]
    assert phi[1] < phi[0]


def test_nan_start_ends_unconverged_without_a_step():
    def evaluate(xi, xg):
        return np.full(2, np.nan), np.eye(2), np.zeros(0), np.zeros((0, 0))

    res = iterate(SqpProblem([SqpBlock(2, 0, evaluate)], 0), np.ones(2))
    assert res.stop_reason == "max_iter" and not res.converged
    assert res.n_iter == 0 and res.failure_reason is None


def test_iterate_input_validation():
    prob, _ = random_linear_problem(23)
    with pytest.raises(ValueError):
        iterate(prob, np.zeros(prob.n_primal + 1))
    with pytest.raises(ValueError):
        iterate(prob, np.full(prob.n_primal, np.nan))
    with pytest.raises(ValueError):
        SqpConfig(tol=-1.0)


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
