"""Independent reference for the Burgers residual and Jacobian.

The formula of the ``burgers`` module docstring evaluated with the global
operators: the residual as Hadamard products of whole-grid difference
products, the Jacobian as the sparse sum of ``diag`` and ``D Bx`` blocks
that ``sp.bmat`` stacks.  Sparse sums and products keep no exact zeros.
Tests compare the library's kernel with these, which share none of its code.

:func:`reference_rz_matrix` builds the decomposed FOM's Newton matrix
``R Z`` from scratch at every call, the reference for the SQP step's
per-instance pattern and value map.
"""

import numpy as np
import scipy.sparse as sp


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
