"""Independent reference for the Burgers residual and Jacobian.

The formula of the ``burgers`` module docstring evaluated with the global
operators: the residual as Hadamard products of whole-grid difference
products, the Jacobian as the sparse sum of ``diag`` and ``D Bx`` blocks
that ``sp.bmat`` stacks.  Sparse sums and products keep no exact zeros.
Tests compare the library's kernel with these, which share none of its code.
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
