"""Equality-constrained Gauss-Newton SQP for block-separable least squares.

Solves

    min_x  0.5 * sum_i || B_i r_i(x_i) ||^2   s.t.  sum_i c_i(x_i^gam) = 0

where each block ``i`` owns an (interior, interface) latent pair and only
the interface part enters the coupling constraint.  Every iteration solves
one block-arrow KKT system with Gauss-Newton Hessian blocks and takes a
damped step chosen by Armijo backtracking on the first-order optimality
norm.  The same loop serves the decomposed FOM (identity decoders) and all
ROM variants; blocks are callables, so the solver knows nothing about
Burgers or autoencoders.  A block Jacobian may be dense or sparse: with
any sparse one the KKT matrix is assembled sparse and factored by a
sparse LU, otherwise densely.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg

from .errors import ConvergenceError

ARMIJO_C1 = 1e-4    # sufficient-decrease constant of the line search
MAX_HALVINGS = 25   # line-search step halvings before giving up
REG_SCALE = 1e-12   # KKT fallback regularization, relative to trace(R'R)
FD_STEP = 1e-6      # convergence_diagnostics' finite-difference step


@dataclass(frozen=True, eq=False)
class SqpBlock:
    """One subdomain's block-local evaluation.

    ``evaluate(x_int, x_gam)`` returns ``(Br, R, c, C)``: the weighted
    residual, its Jacobian over ``[x_int, x_gam]`` (``rows x (n_int +
    n_gam)``, dense or scipy sparse), this block's additive contribution
    to the coupling constraint and that contribution's Jacobian in
    ``x_gam``.  It must be side-effect-free.
    """

    n_int: int
    n_gam: int
    evaluate: object


class SqpProblem:
    def __init__(self, blocks, n_mult: int):
        if not blocks:
            raise ValueError("need at least one block")
        if n_mult < 0:
            raise ValueError("multiplier dimension must be nonnegative")
        self.blocks = list(blocks)
        self.n_mult = n_mult
        self.offsets = []
        pos = 0
        for b in self.blocks:
            self.offsets.append(pos)
            pos += b.n_int + b.n_gam
        self.n_primal = pos

    def split(self, x):
        """Per-block (x_int, x_gam) views of the stacked vector."""
        out = []
        for off, b in zip(self.offsets, self.blocks):
            out.append((x[off:off + b.n_int],
                        x[off + b.n_int:off + b.n_int + b.n_gam]))
        return out


@dataclass(frozen=True)
class SqpConfig:
    tol: float = 1e-4
    max_iter: int = 15
    backtrack_factor: float = 0.5

    def __post_init__(self):
        if (self.tol <= 0 or self.max_iter < 1
                or not 0 < self.backtrack_factor < 1):
            raise ValueError("invalid solver configuration")


@dataclass(eq=False)
class _BlockEval:
    Br: np.ndarray
    R: np.ndarray
    con_jac: np.ndarray
    seconds: float


@dataclass(eq=False)
class SqpEval:
    """Gradients and cached block data at one (x, lam) point."""

    rho: np.ndarray                 # stacked Lagrangian gradient, n_primal
    con: np.ndarray                 # constraint value, n_mult
    blocks: list = field(repr=False, default_factory=list)
    block_max_seconds: float = 0.0
    block_sum_seconds: float = 0.0

    @property
    def optimality(self) -> np.ndarray:
        return np.concatenate([self.rho, self.con])

    @property
    def merit(self) -> float:
        return float(np.linalg.norm(self.optimality))

    @property
    def objective(self) -> float:
        return 0.5 * sum(float(b.Br @ b.Br) for b in self.blocks)


def eval_gradients(prob: SqpProblem, x: np.ndarray,
                   lam: np.ndarray) -> SqpEval:
    """First-order optimality pieces at ``(x, lam)`` (block-local work)."""
    con = np.zeros(prob.n_mult)
    evals = []
    for i, (block, (xi, xg)) in enumerate(zip(prob.blocks, prob.split(x))):
        t0 = time.perf_counter()
        try:
            Br, R, cval, cjac = block.evaluate(xi, xg)
        except Exception as exc:
            raise RuntimeError(f"evaluation failed in block {i}") from exc
        dt = time.perf_counter() - t0
        if not sp.issparse(R):
            R = np.asarray(R, dtype=float)
        cval = np.asarray(cval, dtype=float)
        cjac = np.atleast_2d(np.asarray(cjac, dtype=float))
        if cval.shape != (prob.n_mult,) or cjac.shape != (prob.n_mult,
                                                          block.n_gam):
            raise ValueError(f"block {i} constraint has inconsistent shape")
        con += cval
        evals.append(_BlockEval(Br=Br, R=R, con_jac=cjac, seconds=dt))
    return _gradients(prob, evals, con, lam)


def _gradients(prob: SqpProblem, blocks, con, lam) -> SqpEval:
    """The :class:`SqpEval` of evaluated ``blocks`` (summed constraint
    ``con``) with the Lagrangian gradient formed at the multipliers
    ``lam``; no block is evaluated."""
    rho = np.zeros(prob.n_primal)
    for off, block, be in zip(prob.offsets, prob.blocks, blocks):
        grad = be.R.T @ be.Br
        grad[block.n_int:] += be.con_jac.T @ lam
        rho[off:off + block.n_int + block.n_gam] = grad
    return SqpEval(rho=rho, con=con, blocks=blocks,
                   block_max_seconds=max(b.seconds for b in blocks),
                   block_sum_seconds=sum(b.seconds for b in blocks))


def _kkt_matrix(prob: SqpProblem, ev: SqpEval):
    """The block-arrow KKT matrix ``[[blockdiag(R_i' R_i), C'], [C, 0]]``:
    dense when every ``R_i`` is dense, otherwise CSC from one COO
    construction over the blocks' ``R_i' R_i`` and the nonzeros of ``C``."""
    n, m = prob.n_primal, prob.n_mult
    if not any(sp.issparse(be.R) for be in ev.blocks):
        K = np.zeros((n + m, n + m))
        for off, block, be in zip(prob.offsets, prob.blocks, ev.blocks):
            w = block.n_int + block.n_gam
            K[off:off + w, off:off + w] = be.R.T @ be.R
            gs = off + block.n_int
            K[n:, gs:gs + block.n_gam] = be.con_jac
            K[gs:gs + block.n_gam, n:] = be.con_jac.T
        return K
    rows, cols, vals = [], [], []
    for off, block, be in zip(prob.offsets, prob.blocks, ev.blocks):
        H = sp.coo_matrix(be.R.T @ be.R)
        r, c = np.nonzero(be.con_jac)
        v = be.con_jac[r, c]
        c = c + off + block.n_int
        rows += [H.row + off, r + n, c]
        cols += [H.col + off, c, r + n]
        vals += [H.data, v, v]
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n + m, n + m)).tocsc()


def _lu(K):
    """``(solve, smallest pivot)`` of an LU factorization of ``K``: SuperLU
    with its default COLAMD ordering for sparse ``K``, LAPACK for dense.
    SuperLU's exactly-singular error is raised as ``LinAlgError``."""
    if sp.issparse(K):
        try:
            lu = scipy.sparse.linalg.splu(K)
        except RuntimeError as exc:          # "Factor is exactly singular"
            raise scipy.linalg.LinAlgError(str(exc)) from exc
        return lu.solve, float(np.abs(lu.U.diagonal()).min())
    lu, piv = scipy.linalg.lu_factor(K)
    return ((lambda b: scipy.linalg.lu_solve((lu, piv), b)),
            float(np.abs(np.diag(lu)).min()))


def assemble_and_solve_kkt(prob: SqpProblem, ev: SqpEval):
    """Solve the block-arrow saddle-point system for the SQP step.

    LU (sparse when any block Jacobian is sparse, see :func:`_lu`) with one
    round of iterative refinement; the back-substitution residual must
    come out below 1e-10 relative, otherwise the Hessian blocks are
    regularized by +delta*I once and the solve retried.
    """
    n = prob.n_primal
    K = _kkt_matrix(prob, ev)
    rhs = -ev.optimality
    rhs_norm = max(np.linalg.norm(rhs), 1e-300)

    def attempt(mat):
        solve, pivot = _lu(mat)
        sol = solve(rhs)
        if not np.all(np.isfinite(sol)):
            return sol, np.inf, pivot
        sol += solve(rhs - mat @ sol)
        if not np.all(np.isfinite(sol)):
            return sol, np.inf, pivot
        res = np.linalg.norm(rhs - mat @ sol) / rhs_norm
        return sol, res, pivot

    try:
        sol, res, pivot = attempt(K)
        ok = res <= 1e-10
    except scipy.linalg.LinAlgError:
        sol, res, pivot, ok = None, np.inf, 0.0, False
    if not ok:
        delta = REG_SCALE * max(K.diagonal()[:n].sum(), 1.0)
        warnings.warn(
            f"KKT solve needed +{delta:.3e} regularization "
            f"(smallest pivot {pivot:.3e})", RuntimeWarning, stacklevel=2)
        if sp.issparse(K):
            K = (K + sp.diags(np.repeat([delta, 0.0], [n, prob.n_mult]))
                 ).tocsc()
        else:
            K[np.arange(n), np.arange(n)] += delta
        try:
            sol, res, pivot = attempt(K)
        except scipy.linalg.LinAlgError as exc:
            raise ConvergenceError(
                f"KKT matrix is singular (smallest pivot {pivot:.3e})"
            ) from exc
        if res > 1e-10:
            raise ConvergenceError(
                f"KKT back-substitution residual {res:.3e} exceeds 1e-10 "
                f"after regularization (smallest pivot {pivot:.3e})")
    return sol[:n], sol[n:]


@dataclass(eq=False)
class SqpResult:
    x: np.ndarray
    lam: np.ndarray
    converged: bool
    n_iter: int
    merit_history: list
    objective_history: list
    alpha_history: list
    failure_reason: str | None = None
    iterates: list = field(default_factory=list, repr=False)
    steps: list = field(default_factory=list, repr=False)
    timings: dict = field(default_factory=dict, repr=False)

    @property
    def final_merit(self) -> float:
        return self.merit_history[-1]


def iterate(prob: SqpProblem, x0, lam0=None,
            cfg: SqpConfig = SqpConfig(), start: SqpEval | None = None
            ) -> SqpResult:
    """Run the SQP loop from ``(x0, lam0)`` until the optimality norm
    drops below ``cfg.tol`` or the iteration budget is exhausted.

    ``start`` is an evaluation at ``x0`` (at any multipliers) that the
    caller already made, such as the multiplier least-squares sweep; its
    blocks are reused instead of evaluating ``x0`` again (only the
    gradient depends on the multipliers), with bitwise the same
    iterates.
    """
    x = np.array(x0, dtype=float)
    if x.shape != (prob.n_primal,):
        raise ValueError("initial point has wrong length")
    lam = (np.zeros(prob.n_mult) if lam0 is None
           else np.array(lam0, dtype=float))
    if lam.shape != (prob.n_mult,):
        raise ValueError("initial multiplier has wrong length")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(lam))):
        raise ValueError("initial point must be finite")

    ev = (eval_gradients(prob, x, lam) if start is None
          else _gradients(prob, start.blocks, start.con, lam))
    merits = [ev.merit]
    objectives = [ev.objective]
    alphas = []
    iterates = [(x.copy(), lam.copy())]
    steps = []
    timings = {"block_max": [], "kkt": []}
    best = (ev.merit, x.copy(), lam.copy())
    failure = None

    n_iter = 0
    while merits[-1] >= cfg.tol and n_iter < cfg.max_iter:
        t_par = ev.block_max_seconds
        t0 = time.perf_counter()
        s, s_lam = assemble_and_solve_kkt(prob, ev)
        t_kkt = time.perf_counter() - t0

        alpha = 1.0
        accepted = None
        for _ in range(MAX_HALVINGS + 1):
            trial = eval_gradients(prob, x + alpha * s, lam + alpha * s_lam)
            t_par += trial.block_max_seconds
            if trial.merit <= (1.0 - ARMIJO_C1 * alpha) * merits[-1]:
                accepted = trial
                break
            alpha *= cfg.backtrack_factor
        timings["block_max"].append(t_par)
        timings["kkt"].append(t_kkt)
        if accepted is None:
            failure = "line_search"
            break

        x += alpha * s
        lam += alpha * s_lam
        ev = accepted
        n_iter += 1
        merits.append(ev.merit)
        objectives.append(ev.objective)
        alphas.append(alpha)
        iterates.append((x.copy(), lam.copy()))
        steps.append((s.copy(), s_lam.copy()))
        if ev.merit < best[0]:
            best = (ev.merit, x.copy(), lam.copy())

    if failure is not None:
        _, x, lam = best
    return SqpResult(x=x, lam=lam, converged=bool(merits[-1] < cfg.tol)
                     and failure is None,
                     n_iter=n_iter, merit_history=merits,
                     objective_history=objectives, alpha_history=alphas,
                     failure_reason=failure, iterates=iterates, steps=steps,
                     timings=timings)


def convergence_diagnostics(prob: SqpProblem, result: SqpResult) -> dict:
    """Report-only convergence measures from a recorded run.

    ``eta`` estimates the Gauss-Newton inexactness per accepted step as
    ||(true Hessian - GN Hessian) s|| / ||F|| using finite-difference
    Hessian-vector products, so it costs two gradient sweeps per iteration:
    meant for small problems.  Never gates or alters a solve.
    """
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
        Hs_gn = _kkt_matrix(prob, ev)[:prob.n_primal, :prob.n_primal] @ s
        denom = max(ev.merit, 1e-300)
        etas.append(float(np.linalg.norm(Hs_true - Hs_gn)) / denom)
    return {"merit": list(merits),
            "contraction": ratios,
            "eta": etas,
            "iterations": list(range(len(merits)))}
