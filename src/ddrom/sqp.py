"""Equality-constrained Gauss-Newton SQP for block-separable least squares.

Solves

    min_x  0.5 * sum_i || B_i r_i(x_i) ||^2   s.t.  sum_i c_i(x_i^gam) = 0

where each block ``i`` owns an (interior, interface) latent pair and only
the interface part enters the coupling constraint.  Every iteration takes
one Gauss-Newton SQP step and damps it by Armijo backtracking on the l1
merit ``f + mu ||c||_1`` (``f`` the objective, ``mu`` twice the largest
new multiplier), on which a Gauss-Newton SQP step always descends
(Nocedal & Wright, ch. 18).  The solve has converged when the
first-order optimality norm ||(grad L, c)|| drops below ``tol``, or when
an accepted iteration's full Gauss-Newton step is at most ``tol`` times
the new iterate's norm; the second test ends nonzero-residual problems
whose optimality norm has a roundoff floor above ``tol``.  The same loop
serves the decomposed FOM (identity decoders) and all ROM variants;
blocks are callables, so the solver knows nothing about Burgers or
autoencoders.

How a step is solved is decided once, by :func:`is_square`, from the
kind of the blocks' Jacobians ``R_i`` and ``C_i``:

* all sparse, with the residual rows plus the multipliers numbering the
  unknowns (the decomposed FOM): ``[R; C]`` is square, and the
  Gauss-Newton SQP step is its Newton step ``s = -[R; C]^-1 [Br; c]``
  with zero new multipliers (``C' (lam + s_lam) = -R' (Br + R s) = 0``,
  ``C`` of full row rank).  Every row of ``C`` equates two copies of an
  unknown, so the step is taken in ``C``'s null space (Nocedal & Wright,
  sec. 15.3): ``s = s_p + Z y``, with ``Z`` the 0/1 copy matrix,
  ``C s_p = -c`` (``s_p = 0`` when ``c == 0``) and ``(R Z) y = -(Br +
  R s_p)``.  The square ``R Z`` is factored by a sparse LU, without
  squaring its condition number in ``R' R``; a singular factor raises
  :class:`ConvergenceError`, and the driver skips the multiplier least
  squares, which could affect no step.  What only the sparsity decides
  is kept in a :class:`StepCache` across the problems of one instance:
  the copy labels and ``C``, the pattern of ``R Z`` and the map that
  gathers its values, and the column ordering COLAMD computes for the
  first factor, which every later factor of that pattern reuses.  An
  entry is rebuilt when what it was built from changes;
* all dense (the ROMs): the dense normal-form KKT system
  ``[[blockdiag(R_i' R_i), C'], [C, 0]]``, regularized once by
  ``+delta I`` if its solve fails;
* anything else (a non-square sparse problem such as the under-determined
  decomposed FOM with hyper-reduction, or sparse and dense blocks mixed)
  raises ``ValueError`` at its first solve.

A factor's smallest pivot is computed only when an error or warning
message prints it.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.csgraph
import scipy.sparse.linalg

from .errors import ConvergenceError

ARMIJO_C1 = 1e-4    # sufficient-decrease constant of the line search
MAX_HALVINGS = 25   # line-search step halvings before giving up
REG_SCALE = 1e-12   # KKT fallback regularization, relative to trace(R'R)


@dataclass(frozen=True, eq=False)
class SqpBlock:
    """One subdomain's block-local evaluation.

    ``evaluate(x_int, x_gam)`` returns ``(Br, R, c, C)``: the weighted
    residual, its Jacobian over ``[x_int, x_gam]`` (``rows x (n_int +
    n_gam)``), this block's additive contribution to the coupling
    constraint and that contribution's Jacobian in ``x_gam``; ``R`` and
    ``C`` are scipy sparse in every block or dense in every block (see
    :func:`is_square`).  It must be side-effect-free.
    """

    n_int: int
    n_gam: int
    evaluate: object


class StepCache:
    """What the SQP step needs that only the blocks' sparsity decides,
    built at the first evaluation or solve that needs it and kept across
    the problems of one instance (``SqpProblem(..., cache)``); per
    iteration only values change.

    * per block, a sparse ``C_i'`` as CSR, for the Lagrangian gradient;
    * the copy labels and the stacked ``C`` of a square problem
      (:func:`_copy_labels`);
    * the CSC pattern of ``R Z`` and the map from the blocks' concatenated
      ``R_i.data`` to its values (:func:`_rz_matrix`);
    * SuperLU's column ordering of ``R Z``, COLAMD's from its first factor
      (:func:`ordered_splu`).

    Each entry is checked against what it was built from (the ``C_i``
    objects, the ``R_i`` index arrays, ``R Z``'s pattern by value) and is
    rebuilt, with what derives from it, when they differ.
    """

    def __init__(self):
        self.transposes = {}    # block index -> (C_i, C_i' as CSR)
        self.copies = None      # (layout, C_i objects, labels, C)
        self.rz = None          # (labels, R_i patterns, pattern, gathers)
        self.ordering = []      # R Z's column ordering (ordered_splu)

    def transpose(self, i: int, C):
        """``C'`` of block ``i``'s constraint Jacobian ``C``: a view for a
        dense ``C``, a CSR formed once per sparse ``C`` object."""
        if not sp.issparse(C):
            return C.T
        hit = self.transposes.get(i)
        if hit is None or hit[0] is not C:
            hit = self.transposes[i] = (C, C.T.tocsr())
        return hit[1]


class SqpProblem:
    def __init__(self, blocks, n_mult: int, cache: StepCache | None = None):
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
        self.cache = StepCache() if cache is None else cache

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
    # line-search step reduction: a class constant, not a setting
    backtrack_factor: ClassVar[float] = 0.5

    def __post_init__(self):
        if self.tol <= 0 or self.max_iter < 1:
            raise ValueError("invalid solver configuration")


@dataclass(eq=False)
class _BlockEval:
    Br: np.ndarray
    R: object           # dense, or scipy sparse (see is_square)
    con_jac: object     # the same kind as R
    seconds: float


@dataclass(eq=False)
class SqpEval:
    """Gradients and cached block data at one (x, lam) point."""

    grad_f: np.ndarray              # stacked objective gradient R' Br
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
        R = R.tocsr() if sp.issparse(R) else np.asarray(R, dtype=float)
        cval = np.asarray(cval, dtype=float)
        cjac = (cjac.tocsr() if sp.issparse(cjac)
                else np.atleast_2d(np.asarray(cjac, dtype=float)))
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
    grad_f, rho = np.zeros(prob.n_primal), np.zeros(prob.n_primal)
    for i, (off, block, be) in enumerate(zip(prob.offsets, prob.blocks,
                                             blocks)):
        R = be.R
        if sp.issparse(R):
            # R' Br without a transposed wrapper, each entry summed over
            # ascending rows like scipy's R.T @ Br
            rows = np.repeat(np.arange(R.shape[0]), np.diff(R.indptr))
            grad = np.bincount(R.indices, R.data * be.Br[rows],
                               minlength=R.shape[1])
        else:
            grad = R.T @ be.Br
        grad_f[off:off + grad.size] = grad
        grad[block.n_int:] += prob.cache.transpose(i, be.con_jac) @ lam
        rho[off:off + grad.size] = grad
    return SqpEval(grad_f=grad_f, rho=rho, con=con, blocks=blocks,
                   block_max_seconds=max(b.seconds for b in blocks),
                   block_sum_seconds=sum(b.seconds for b in blocks))


def _kkt_matrix(prob: SqpProblem, ev: SqpEval) -> np.ndarray:
    """The dense block-arrow KKT matrix ``[[blockdiag(R_i' R_i), C'],
    [C, 0]]`` of an all-dense problem."""
    n, m = prob.n_primal, prob.n_mult
    K = np.zeros((n + m, n + m))
    for off, block, be in zip(prob.offsets, prob.blocks, ev.blocks):
        w = block.n_int + block.n_gam
        K[off:off + w, off:off + w] = be.R.T @ be.R
        gs = off + block.n_int
        K[n:, gs:gs + block.n_gam] = be.con_jac
        K[gs:gs + block.n_gam, n:] = be.con_jac.T
    return K


def is_square(prob: SqpProblem, ev: SqpEval) -> bool:
    """Which step the evaluated problem takes.

    ``True`` when every block's ``R`` and ``C`` are sparse and the residual
    rows plus the multipliers number the unknowns: the step is the Newton
    step of the square ``[R; C]``, in ``C``'s null space.  ``False`` when
    every block's ``R`` and ``C`` are dense: the step solves the dense
    normal-form KKT system.  Any other problem raises ``ValueError``
    naming its shapes.
    """
    kinds = {(sp.issparse(be.R), sp.issparse(be.con_jac))
             for be in ev.blocks}
    if kinds == {(False, False)}:
        return False
    rows = sum(be.R.shape[0] for be in ev.blocks)
    if kinds == {(True, True)} and rows + prob.n_mult == prob.n_primal:
        return True
    raise ValueError(
        "SQP blocks must be all sparse with a square [R; C] or all dense: "
        f"{rows} residual rows + {prob.n_mult} multipliers vs "
        f"{prob.n_primal} unknowns; (R, C) per block: " + ", ".join(
            f"({type(be.R).__name__} {be.R.shape}, "
            f"{type(be.con_jac).__name__} {be.con_jac.shape})"
            for be in ev.blocks))


def _copy_labels(prob: SqpProblem, ev: SqpEval):
    """``(labels, C)``: the stacked CSR constraint Jacobian ``C`` of a
    square problem and, per unknown, its copy: a connected component of the
    graph whose edges are ``C``'s rows, so ``Z = I[labels]`` spans ``C``'s
    null space.  ``ValueError`` unless every row of ``C`` is one +1 and one
    -1.  Kept in ``prob.cache`` while the blocks return the same ``C_i``
    objects."""
    cons = [be.con_jac for be in ev.blocks]
    n, m = prob.n_primal, prob.n_mult
    layout = (tuple(prob.offsets), n, m)
    hit = prob.cache.copies
    if hit and hit[0] == layout and all(a is b for a, b in zip(hit[1], cons)):
        return hit[2:]
    C = sp.hstack([M for b, C_i in zip(prob.blocks, cons)
                   for M in (sp.csr_matrix((m, b.n_int)), C_i)], format="csr")
    if np.any(np.diff(C.indptr) != 2) or np.any(
            np.sort(C.data.reshape(-1, 2)) != [-1.0, 1.0]):
        raise ValueError("a square SQP problem needs a signed-incidence C: "
                         "one +1 and one -1 per row")
    edges = C.indices.reshape(-1, 2).T
    n_copies, labels = scipy.sparse.csgraph.connected_components(
        sp.coo_matrix((np.ones(m), tuple(edges)), (n, n)), directed=False)
    if n_copies != n - m:
        raise ConvergenceError(f"[R; C] is singular: C leaves {n_copies} "
                               f"copies for {n - m} residual rows")
    prob.cache.copies = (layout, cons, labels, C)
    return labels, C


def _rz_pattern(prob: SqpProblem, Rs, labels):
    """The parts of ``R Z`` that only the ``R_i`` patterns fix: its CSC
    index arrays (duplicates summed, rows ascending per column) and, into
    the concatenated ``R_i.data``, the entry that starts each value and the
    ``(value, entry)`` pairs added to it, in ``R_i.data`` order as scipy's
    ``sum_duplicates`` adds them."""
    n = prob.n_primal - prob.n_mult
    starts = np.cumsum([0] + [R.shape[0] for R in Rs])
    rows = np.concatenate([k + np.repeat(np.arange(R.shape[0]),
                                         np.diff(R.indptr))
                           for k, R in zip(starts, Rs)])
    cols = np.concatenate([labels[off + R.indices]
                           for off, R in zip(prob.offsets, Rs)])
    order = np.lexsort((rows, cols))        # stable: duplicates keep order
    key = cols[order].astype(np.int64) * n + rows[order]
    first = np.concatenate([[True], key[1:] != key[:-1]])
    value = np.cumsum(first) - 1
    # built through the constructor once, so the index arrays already have
    # the dtype scipy picks and the per-call wrap does not convert them
    pattern = sp.csc_matrix((np.zeros(first.sum()), rows[order][first],
                             np.concatenate([[0], np.cumsum(np.bincount(
                                 cols[order][first], minlength=n))])),
                            shape=(n, n))
    return pattern, order[first], value[~first], order[~first]


def _rz_matrix(prob: SqpProblem, ev: SqpEval, labels):
    """``R Z`` as canonical CSC: the blocks' CSR ``R_i`` with each column
    relabelled to its copy and duplicates summed (``Z`` is never formed).
    Its pattern and value map (:func:`_rz_pattern`) are kept in
    ``prob.cache`` while ``labels`` and every ``R_i``'s index arrays stay
    the same; per call one gather fills the values."""
    Rs = [be.R for be in ev.blocks]
    cache = prob.cache
    hit = cache.rz
    if not (hit and hit[0] is labels and len(hit[1]) == len(Rs) and all(
            np.array_equal(R.indptr, ptr) and np.array_equal(R.indices, ind)
            for R, (ptr, ind) in zip(Rs, hit[1]))):
        hit = cache.rz = (labels, [(R.indptr.copy(), R.indices.copy())
                                   for R in Rs],
                          *_rz_pattern(prob, Rs, labels))
    _, _, pattern, take, dup_value, dup_entry = hit
    data = np.concatenate([R.data for R in Rs])
    values = data[take]
    np.add.at(values, dup_value, data[dup_entry])
    return sp.csc_matrix((values, pattern.indices, pattern.indptr),
                         shape=pattern.shape)


def _splu(K, permc_spec=None):
    """SuperLU factor of the CSC ``K``; its exactly-singular error is raised
    as ``LinAlgError``."""
    try:
        return scipy.sparse.linalg.splu(K, permc_spec=permc_spec)
    except RuntimeError as exc:              # "Factor is exactly singular"
        raise scipy.linalg.LinAlgError(str(exc)) from exc


def _superlu_pivot(lu):
    """A SuperLU factor's smallest absolute pivot, as a callable: reading
    ``lu.U`` costs about half a factorization, so only messages call it."""
    return lambda: float(np.abs(lu.U.diagonal()).min())


def _lu(K):
    """``(solve, pivot)`` of an LU factorization of ``K``: SuperLU with its
    default COLAMD ordering for sparse ``K``, LAPACK for dense.  ``pivot()``
    is the smallest absolute pivot, computed only when a message needs
    it."""
    if sp.issparse(K):
        lu = _splu(K)
        return lu.solve, _superlu_pivot(lu)
    lu, piv = scipy.linalg.lu_factor(K)
    return ((lambda b: scipy.linalg.lu_solve((lu, piv), b)),
            lambda: float(np.abs(np.diag(lu)).min()))


def ordered_splu(K, ordering: list):
    """``(solve, pivot)`` of the CSC ``K`` as :func:`_lu` gives them, with
    SuperLU's COLAMD ordering computed only when the sparsity pattern
    changes.  ``ordering`` holds at most one entry: the pattern of the
    last COLAMD factor, a copy of its ``perm_c`` (``lu.perm_c`` itself
    keeps the whole factor alive) and the pattern pre-permuted by it with
    the gather into it.  A ``K`` of that pattern, compared by value, is
    factored pre-permuted in its natural order, with bitwise the COLAMD
    factor, and the solution is read back through ``perm_c``; a ``K`` of
    another pattern is factored with COLAMD and replaces the entry."""
    if ordering:
        ptr, ind, perm_c, pptr, pind, take = ordering[0]
        if np.array_equal(ptr, K.indptr) and np.array_equal(ind, K.indices):
            lu = _splu(sp.csc_matrix((K.data[take], pind, pptr),
                                     shape=K.shape), "NATURAL")
            return (lambda b: lu.solve(b)[perm_c]), _superlu_pivot(lu)
    lu = _splu(K)
    index = sp.csc_matrix((np.arange(K.nnz), K.indices, K.indptr),
                          shape=K.shape)[:, np.argsort(lu.perm_c)]
    ordering[:] = [(K.indptr.copy(), K.indices.copy(), lu.perm_c.copy(),
                    index.indptr, index.indices, index.data)]
    return lu.solve, _superlu_pivot(lu)


def _refined_solve(mat, rhs, factor=None):
    """``(solution, relative back-substitution residual, pivot)`` of ``mat
    x = rhs`` by LU with one round of iterative refinement; ``factor`` is
    ``mat``'s ``(solve, pivot)``, by default :func:`_lu`'s.  The residual is
    infinite when the solution is not finite."""
    rhs_norm = max(np.linalg.norm(rhs), 1e-300)
    solve, pivot = _lu(mat) if factor is None else factor
    sol = solve(rhs)
    if not np.all(np.isfinite(sol)):
        return sol, np.inf, pivot
    sol += solve(rhs - mat @ sol)
    if not np.all(np.isfinite(sol)):
        return sol, np.inf, pivot
    res = float(np.linalg.norm(rhs - mat @ sol) / rhs_norm)
    return sol, res, pivot


def assemble_and_solve_kkt(prob: SqpProblem, ev: SqpEval, lam):
    """Solve for the SQP step ``(s, s_lam)`` at the evaluation ``ev`` made
    at the multipliers ``lam``; returns ``(s, s_lam, path, residual)``.

    :func:`is_square` picks the system (or raises ``ValueError``): the
    Newton step of ``[R; C]`` in ``C``'s null space (``s = s_p + Z y``, see
    the module docstring), with ``s_lam = -lam`` (``path`` ``"newton"``),
    or the dense saddle-point system ``[[blockdiag(R_i' R_i), C'], [C, 0]]``
    (``"kkt"``).  Each is an LU (see :func:`_lu`) with one round of
    iterative refinement whose relative back-substitution residual,
    returned as ``residual``, must come out below 1e-10.  A Newton solve
    that misses it (in ``R Z`` or, if ``c != 0``, in ``C C'``) raises
    ``ConvergenceError``; a KKT solve that misses it is retried once with
    its Hessian blocks regularized by +delta*I, with a warning
    (``"kkt+reg"``), and then raises.
    """
    n = prob.n_primal
    if is_square(prob, ev):
        labels, C = _copy_labels(prob, ev)
        rhs, s, res_p = -np.concatenate([be.Br for be in ev.blocks]), 0, 0
        try:
            if ev.con.any():            # s_p = C' (C C')^-1 (-c)
                z, res_p, _ = _refined_solve((C @ C.T).tocsc(), -ev.con)
                s = C.T @ z
                rhs -= np.concatenate([be.R @ s[o:o + be.R.shape[1]] for
                                       o, be in zip(prob.offsets, ev.blocks)])
            RZ = _rz_matrix(prob, ev, labels)
            y, res, pivot = _refined_solve(
                RZ, rhs, ordered_splu(RZ, prob.cache.ordering))
        except scipy.linalg.LinAlgError as exc:
            raise ConvergenceError(f"[R; C] is singular ({exc})") from exc
        res = max(res, res_p)
        if res > 1e-10:
            raise ConvergenceError(
                f"[R; C] back-substitution residual {res:.3e} exceeds "
                f"1e-10 (smallest pivot {pivot():.3e})")
        return s + y[labels], -lam, "newton", res
    K = _kkt_matrix(prob, ev)
    rhs = -ev.optimality
    path = "kkt"
    try:
        sol, res, pivot = _refined_solve(K, rhs)
        ok = res <= 1e-10
    except scipy.linalg.LinAlgError:
        sol, res, pivot, ok = None, np.inf, (lambda: 0.0), False
    if not ok:
        path = "kkt+reg"
        delta = REG_SCALE * max(K.diagonal()[:n].sum(), 1.0)
        warnings.warn(
            f"KKT solve needed +{delta:.3e} regularization "
            f"(smallest pivot {pivot():.3e})", RuntimeWarning, stacklevel=2)
        K[np.arange(n), np.arange(n)] += delta
        try:
            sol, res, pivot = _refined_solve(K, rhs)
        except scipy.linalg.LinAlgError as exc:
            raise ConvergenceError(
                f"KKT matrix is singular (smallest pivot {pivot():.3e})"
            ) from exc
        if res > 1e-10:
            raise ConvergenceError(
                f"KKT back-substitution residual {res:.3e} exceeds 1e-10 "
                f"after regularization (smallest pivot {pivot():.3e})")
    return sol[:n], sol[n:], path, res


@dataclass(eq=False)
class SqpResult:
    x: np.ndarray
    lam: np.ndarray
    stop_reason: str    # "merit", "step", "max_iter" or "line_search"
    n_iter: int
    merit_history: list
    objective_history: list
    constraint_history: list      # ||c|| per iterate
    alpha_history: list
    # per KKT solve: "newton", "kkt" or "kkt+reg" (see
    # assemble_and_solve_kkt), and its back-substitution residual
    kkt_path_history: list = field(default_factory=list)
    kkt_residual_history: list = field(default_factory=list)
    iterates: list = field(default_factory=list, repr=False)
    steps: list = field(default_factory=list, repr=False)
    timings: dict = field(default_factory=dict, repr=False)

    @property
    def converged(self) -> bool:
        return self.stop_reason in ("merit", "step")

    @property
    def failure_reason(self) -> str | None:
        return "line_search" if self.stop_reason == "line_search" else None

    @property
    def final_merit(self) -> float:
        return self.merit_history[-1]

    @property
    def final_constraint(self) -> float:
        return self.constraint_history[-1]


def _l1_armijo(ev: SqpEval, lam, s, s_lam):
    """Armijo test on the l1 merit ``phi = f + mu ||c||_1`` along ``s``.

    ``mu = 2 ||lam + s_lam||_inf`` and the directional derivative is
    ``grad f' s - mu ||c||_1``.  Returns ``accepts(trial, alpha)``; it
    never accepts along a nondescent ``s``.
    """
    mu = 2.0 * np.max(np.abs(lam + s_lam), initial=0.0)
    viol = float(np.abs(ev.con).sum())
    phi = ev.objective + mu * viol
    slope = float(ev.grad_f @ s) - mu * viol

    def accepts(trial, alpha):
        return slope < 0 and (trial.objective + mu * np.abs(trial.con).sum()
                              <= phi + ARMIJO_C1 * alpha * slope)

    return accepts


def iterate(prob: SqpProblem, x0, lam0=None,
            cfg: SqpConfig = SqpConfig(), start: SqpEval | None = None
            ) -> SqpResult:
    """Run the SQP loop from ``(x0, lam0)`` until it converges, the
    iteration budget is exhausted or the line search fails.

    The solve has converged (``stop_reason``) on ``"merit"`` when the
    optimality norm ||(grad L, c)|| drops below ``cfg.tol``, and on
    ``"step"`` when, after an accepted iteration, its full Gauss-Newton
    step ``s`` (not the damped ``alpha * s``, so backtracking cannot fake
    convergence) satisfies ``||s|| <= cfg.tol * ||x_new||``.  A trial
    step is accepted on Armijo decrease of the l1 merit
    (:func:`_l1_armijo`); each rejection scales it by
    ``SqpConfig.backtrack_factor``.

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
    constraints = [float(np.linalg.norm(ev.con))]
    alphas = []
    iterates = [(x.copy(), lam.copy())]
    steps = []
    timings = {"block_max": [], "kkt": []}
    kkt_paths, kkt_residuals = [], []
    best = (ev.merit, x.copy(), lam.copy())
    stop = "merit" if ev.merit < cfg.tol else None

    n_iter = 0
    while stop is None:
        if n_iter == cfg.max_iter or np.isnan(merits[-1]):
            stop = "max_iter"     # a NaN start cannot be solved
            break
        t_par = ev.block_max_seconds
        t0 = time.perf_counter()
        s, s_lam, path, kkt_res = assemble_and_solve_kkt(prob, ev, lam)
        t_kkt = time.perf_counter() - t0
        kkt_paths.append(path)
        kkt_residuals.append(kkt_res)

        accepts = _l1_armijo(ev, lam, s, s_lam)
        alpha = 1.0
        accepted = None
        for _ in range(MAX_HALVINGS + 1):
            trial = eval_gradients(prob, x + alpha * s, lam + alpha * s_lam)
            t_par += trial.block_max_seconds
            if accepts(trial, alpha):
                accepted = trial
                break
            alpha *= cfg.backtrack_factor
        timings["block_max"].append(t_par)
        timings["kkt"].append(t_kkt)
        if accepted is None:
            stop = "line_search"
            break

        x += alpha * s
        lam += alpha * s_lam
        ev = accepted
        n_iter += 1
        merits.append(ev.merit)
        objectives.append(ev.objective)
        constraints.append(float(np.linalg.norm(ev.con)))
        alphas.append(alpha)
        iterates.append((x.copy(), lam.copy()))
        steps.append((s.copy(), s_lam.copy()))
        if ev.merit < best[0]:
            best = (ev.merit, x.copy(), lam.copy())
        if ev.merit < cfg.tol:
            stop = "merit"
        elif np.linalg.norm(s) <= cfg.tol * np.linalg.norm(x):
            stop = "step"

    if stop == "line_search":
        _, x, lam = best
    return SqpResult(x=x, lam=lam, stop_reason=stop, n_iter=n_iter,
                     merit_history=merits, objective_history=objectives,
                     constraint_history=constraints, alpha_history=alphas,
                     kkt_path_history=kkt_paths,
                     kkt_residual_history=kkt_residuals,
                     iterates=iterates, steps=steps, timings=timings)
