"""Independent reference for the Burgers residual and Jacobian.

The formula of the ``burgers`` module docstring evaluated with the global
operators: the residual as Hadamard products of whole-grid difference
products, the Jacobian as the sparse sum of ``diag`` and ``D Bx`` blocks
that ``sp.bmat`` stacks.  Sparse sums and products keep no exact zeros.
Tests compare the library's kernel with these, which share none of its code.
:func:`reference_jacobian_on_pattern` places the same values on the fixed
stencil pattern, explicit zeros kept, as the library's Jacobian stores them.
:func:`reference_hr_matrix` is the dense hyper-reduction weighting ``B``.

:func:`reference_rz_matrix` builds the decomposed FOM's Newton matrix
``R Z`` from scratch at every call, the reference for the SQP step's
per-instance pattern and value map.  :func:`reference_newton` is the
monolithic Newton loop with a plain COLAMD ``splu`` at every iteration,
the reference for the per-grid column orderings of ``solve_monolithic``.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg

from ddrom import burgers
from ddrom.errors import ConvergenceError


def reference_residual(ops, s):
    """``(r_u; r_v)`` at state ``s``."""
    n = ops.grid.nnode
    u, v = s[:n], s[n:]
    ru = (u * (ops.Bx @ u - ops.bux) + v * (ops.By @ u - ops.buy)
          + ops.Cdiff @ u + ops.cu)
    rv = (u * (ops.Bx @ v - ops.bvx) + v * (ops.By @ v - ops.bvy)
          + ops.Cdiff @ v + ops.cv)
    return np.concatenate([ru, rv])


def reference_jacobian(ops, s):
    """The analytic Jacobian of :func:`reference_residual` at ``s`` (CSR)."""
    n = ops.grid.nnode
    u, v = s[:n], s[n:]
    Du = sp.diags(u)
    Dv = sp.diags(v)
    Juu = (sp.diags(ops.Bx @ u - ops.bux) + Du @ ops.Bx + Dv @ ops.By
           + ops.Cdiff)
    Juv = sp.diags(ops.By @ u - ops.buy)
    Jvu = sp.diags(ops.Bx @ v - ops.bvx)
    Jvv = (Du @ ops.Bx + sp.diags(ops.By @ v - ops.bvy) + Dv @ ops.By
           + ops.Cdiff)
    return sp.bmat([[Juu, Juv], [Jvu, Jvv]], format="csr")


def reference_jacobian_on_pattern(ops, s):
    """:func:`reference_jacobian` placed on the stencil pattern (CSR, sorted
    columns): per block the entries of ``Bx``, ``By``, ``Cdiff`` and the
    diagonal, between blocks the diagonal, holding an explicit zero where
    the formula's sparse sum has no entry."""
    J = reference_jacobian(ops, s).tocoo()
    eye = sp.identity(ops.grid.nnode)
    block = abs(ops.Bx) + abs(ops.By) + abs(ops.Cdiff) + eye
    support = sp.bmat([[block, eye], [eye, block]], format="csr")
    support.sort_indices()
    n = support.shape[1]
    keys = (np.repeat(np.arange(support.shape[0]), np.diff(support.indptr))
            * n + support.indices)
    data = np.zeros(support.nnz)
    data[np.searchsorted(keys, J.row * n + J.col)] = J.data
    return sp.csr_matrix((data, support.indices, support.indptr),
                         shape=support.shape)


def reference_hr_matrix(hr):
    """The dense weighting matrix ``B`` of an ``hyper.HrOperator``, from its
    ``rows`` and, for gappy POD, its ``weights``."""
    B = np.zeros((hr.out_dim, hr.n_ambient))
    if hr.mode == "gappy":
        B[:, hr.rows] = hr.weights
    else:
        B[np.arange(hr.rows.size), hr.rows] = 1.0
    return B


def reference_rz_matrix(prob, ev, labels):
    """``R Z`` of an evaluated square SQP problem as CSC: the blocks' CSR
    ``R_i`` stacked, each column relabelled to its copy, with duplicates
    left in place for SuperLU's ``sum_duplicates``."""
    Rs = [be.R.tocsr() for be in ev.blocks]
    starts = np.cumsum([0] + [R.nnz for R in Rs])
    n_res = prob.n_primal - prob.n_mult
    return sp.csr_matrix((
        np.concatenate([R.data for R in Rs]),
        np.concatenate([labels[off + R.indices]
                        for off, R in zip(prob.offsets, Rs)]),
        np.concatenate([[0]] + [R.indptr[1:] + k
                                for R, k in zip(Rs, starts)])),
        (n_res, n_res)).tocsc()


def reference_newton(grid, p, init=None, tol=1e-8, max_iter=25):
    """``burgers.solve_monolithic``'s damped Newton loop, factoring every
    Jacobian with ``splu`` and its COLAMD ordering; returns ``(state,
    NewtonTrace)`` and raises ``ConvergenceError`` where it does."""
    ops = burgers.assemble(grid, p)
    s = (np.zeros(grid.ndof) if init is None
         else np.array(init, dtype=float, copy=True))
    r = burgers.residual(ops, s)
    rnorm = float(np.linalg.norm(r))
    trace = burgers.NewtonTrace(iterates=[s.copy()], residuals=[r.copy()],
                                norms=[rnorm], alphas=[])
    for _ in range(max_iter):
        if rnorm <= tol:
            break
        lu = scipy.sparse.linalg.splu(burgers.jacobian(ops, s).tocsc())
        d = lu.solve(-r)
        alpha = 1.0
        for _halving in range(21):
            s_new = s + alpha * d
            r_new = burgers.residual(ops, s_new)
            rnorm_new = float(np.linalg.norm(r_new))
            if rnorm_new < rnorm:
                break
            alpha *= 0.5
        else:
            raise ConvergenceError(
                f"Newton stagnated at |r| = {rnorm:.3e}", trace)
        s, r, rnorm = s_new, r_new, rnorm_new
        trace.alphas.append(alpha)
        trace.iterates.append(s.copy())
        trace.residuals.append(r.copy())
        trace.norms.append(rnorm)
    if rnorm > tol:
        raise ConvergenceError(f"no convergence in {max_iter} iterations "
                               f"(|r| = {rnorm:.3e})", trace)
    trace.converged = True
    return s, trace
