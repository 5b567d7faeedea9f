"""Finite-difference full-order model of the steady 2-D Burgers equation.

The model lives on the rectangle ``[-1, 1] x [0, 0.05]`` with Dirichlet data
supplied by a closed-form exact solution parameterized by a shock position
``a`` and a steepness ``lam``.  A state is a vector of length ``2*nx*ny``
holding the ``u``-velocity block followed by the ``v``-velocity block; within
each block node ``(i, j)`` (1-based grid indices) sits at flat position
``(j-1)*nx + (i-1)``, i.e. rows of constant ``y`` are contiguous.

The discrete residual for the ``u`` block is

    r_u = u * (Bx u - b_ux) + v * (By u - b_uy) + Cdiff u + c_u

with central first differences ``Bx, By``, the scaled 5-point Laplacian
``Cdiff``, and boundary vectors built from the exact solution on ghost
points; the ``v`` block is analogous.  :class:`RestrictedResidual`
evaluates it and its exact Jacobian (Hadamard products couple the ``u``
and ``v`` blocks on the diagonal) on a subdomain's rows or the whole grid.
"""

from __future__ import annotations

import copy
import functools
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConvergenceError, SingularityError

X_MIN, X_MAX = -1.0, 1.0
Y_MIN, Y_MAX = 0.0, 0.05

#: below this magnitude psi is treated as singular; analytically psi > 0
#: everywhere on the domain for parameters in the sampled box, so the guard
#: only catches out-of-range misuse.
PSI_GUARD = 1e-300

A_RANGE = (1.0, 1.0e4)
LAM_RANGE = (5.0, 25.0)


@dataclass(frozen=True)
class ParameterPoint:
    """Shock parameters ``(a, lam)`` of the exact solution."""

    a: float
    lam: float

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.lam)):
            raise ValueError("parameters must be finite")
        if not self.in_domain:
            warnings.warn(
                f"parameter ({self.a}, {self.lam}) lies outside the sampled "
                f"box {A_RANGE} x {LAM_RANGE}",
                stacklevel=3,
            )

    @property
    def in_domain(self) -> bool:
        return (A_RANGE[0] <= self.a <= A_RANGE[1]
                and LAM_RANGE[0] <= self.lam <= LAM_RANGE[1])


@dataclass(frozen=True)
class Grid2D:
    """Uniform interior grid: ``nx`` by ``ny`` nodes, viscosity ``nu``."""

    nx: int
    ny: int
    nu: float = 0.1

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise ValueError("need nx >= 2 and ny >= 2")
        if not self.nu > 0:
            raise ValueError("viscosity must be positive")

    @property
    def hx(self) -> float:
        return (X_MAX - X_MIN) / (self.nx + 1)

    @property
    def hy(self) -> float:
        return (Y_MAX - Y_MIN) / (self.ny + 1)

    @property
    def x(self) -> np.ndarray:
        """Interior x-coordinates ``x_i = -1 + i*hx``, ``i = 1..nx``."""
        return X_MIN + self.hx * np.arange(1, self.nx + 1)

    @property
    def y(self) -> np.ndarray:
        """Interior y-coordinates ``y_j = j*hy``, ``j = 1..ny``."""
        return self.hy * np.arange(1, self.ny + 1)

    @property
    def nnode(self) -> int:
        return self.nx * self.ny

    @property
    def ndof(self) -> int:
        """State length: u and v at every interior node."""
        return 2 * self.nx * self.ny


def exact_solution(p: ParameterPoint, x, y, nu: float = 0.1):
    """Closed-form ``(u, v)`` at coordinates ``(x, y)`` (broadcastable).

    Raises :class:`SingularityError` if the denominator ``psi`` falls below
    ``PSI_GUARD`` anywhere.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    lam = p.lam
    ep = np.exp(lam * (x - 1.0))
    em = np.exp(-lam * (x - 1.0))
    cy = np.cos(lam * y)
    sy = np.sin(lam * y)
    psi = p.a * (1.0 + x) + (ep + em) * cy
    if np.any(np.abs(psi) < PSI_GUARD):
        raise SingularityError("psi vanishes at an evaluation point")
    u = -2.0 * nu * (p.a + lam * (ep - em) * cy) / psi
    v = 2.0 * nu * lam * (ep + em) * sy / psi
    return u, v


def exact_state(grid: Grid2D, p: ParameterPoint) -> np.ndarray:
    """Exact solution sampled on the interior grid, in state ordering."""
    X, Y = np.meshgrid(grid.x, grid.y)  # shape (ny, nx); [j, i] layout
    u, v = exact_solution(p, X, Y, nu=grid.nu)
    return np.concatenate([u.ravel(), v.ravel()])


@dataclass(frozen=True, eq=False)
class FomOperators:
    """Immutable discrete operators and boundary vectors for one ``(grid, p)``."""

    grid: Grid2D
    param: ParameterPoint
    Bx: sp.csr_matrix = field(repr=False)
    By: sp.csr_matrix = field(repr=False)
    Cdiff: sp.csr_matrix = field(repr=False)
    bux: np.ndarray = field(repr=False)
    buy: np.ndarray = field(repr=False)
    cu: np.ndarray = field(repr=False)
    bvx: np.ndarray = field(repr=False)
    bvy: np.ndarray = field(repr=False)
    cv: np.ndarray = field(repr=False)

    @functools.cached_property
    def _kernel(self) -> "RestrictedResidual":
        return _fom_kernel(self.grid).at(self)


def _first_difference(n: int) -> sp.csr_matrix:
    """Tridiagonal (-1, 0, +1) matrix of order n."""
    e = np.ones(n - 1)
    return sp.diags([-e, e], [-1, 1], format="csr")


def _second_difference(n: int) -> sp.csr_matrix:
    """Tridiagonal (1, -2, 1) matrix of order n."""
    e = np.ones(n)
    return sp.diags([e[:-1], -2.0 * e, e[:-1]], [-1, 0, 1], format="csr")


@functools.lru_cache(maxsize=8)
def _grid_operators(grid: Grid2D):
    """``(Bx, By, Cdiff)`` of ``grid``, built once per grid and shared by
    every :func:`assemble` on it, so their arrays are read-only."""
    nx, ny, nu = grid.nx, grid.ny, grid.nu
    hx, hy = grid.hx, grid.hy
    Bx = (-1.0 / (2.0 * hx)) * sp.kron(sp.identity(ny), _first_difference(nx),
                                       format="csr")
    By = (-1.0 / (2.0 * hy)) * sp.kron(_first_difference(ny), sp.identity(nx),
                                       format="csr")
    Cdiff = ((nu / hx**2) * sp.kron(sp.identity(ny), _second_difference(nx))
             + (nu / hy**2) * sp.kron(_second_difference(ny),
                                      sp.identity(nx))).tocsr()
    for mat in (Bx, By, Cdiff):
        for arr in (mat.data, mat.indices, mat.indptr):
            arr.flags.writeable = False
    return Bx, By, Cdiff


def assemble(grid: Grid2D, p: ParameterPoint) -> FomOperators:
    """Build the sparse operators and exact-solution boundary vectors."""
    nx, ny, nu = grid.nx, grid.ny, grid.nu
    hx, hy = grid.hx, grid.hy
    n = grid.nnode
    Bx, By, Cdiff = _grid_operators(grid)

    # Ghost values of the exact solution just outside each edge.
    uL, vL = exact_solution(p, X_MIN, grid.y, nu=nu)
    uR, vR = exact_solution(p, X_MAX, grid.y, nu=nu)
    uB, vB = exact_solution(p, grid.x, Y_MIN, nu=nu)
    uT, vT = exact_solution(p, grid.x, Y_MAX, nu=nu)

    left = np.arange(ny) * nx          # flat positions with i = 1
    right = left + (nx - 1)            # i = nx
    bottom = np.arange(nx)             # j = 1
    top = (ny - 1) * nx + np.arange(nx)  # j = ny

    def edge_vectors(gL, gR, gB, gT):
        exl = np.zeros(n); exl[left] = gL
        exr = np.zeros(n); exr[right] = gR
        eyb = np.zeros(n); eyb[bottom] = gB
        eyt = np.zeros(n); eyt[top] = gT
        bx = (-1.0 / (2.0 * hx)) * (exl - exr)
        by = (-1.0 / (2.0 * hy)) * (eyb - eyt)
        c = (nu / hx**2) * (exl + exr) + (nu / hy**2) * (eyb + eyt)
        return bx, by, c

    bux, buy, cu = edge_vectors(uL, uR, uB, uT)
    bvx, bvy, cv = edge_vectors(vL, vR, vB, vT)

    return FomOperators(grid=grid, param=p, Bx=Bx, By=By, Cdiff=Cdiff,
                        bux=bux, buy=buy, cu=cu, bvx=bvx, bvy=bvy, cv=cv)


@functools.lru_cache(maxsize=8)
def _fom_kernel(grid: Grid2D) -> "RestrictedResidual":
    """Every row of ``grid`` on every column, with identity product terms,
    built once per grid; each :class:`FomOperators` rebinds a copy."""
    every = np.arange(grid.ndof)
    kernel = RestrictedResidual(
        assemble(grid, ParameterPoint(A_RANGE[0], LAM_RANGE[0])), every, every)
    kernel._identity_terms  # built before any copy, so the copies share them
    return kernel


def residual(ops: FomOperators, s: np.ndarray) -> np.ndarray:
    """Discrete residual at ``s``: :class:`RestrictedResidual`, every row."""
    return ops._kernel._residual(s)[0]


def jacobian(ops: FomOperators, s: np.ndarray) -> sp.csr_matrix:
    """Analytic Jacobian of :func:`residual` at ``s`` (CSR): the kernel on
    every row with identity terms, its fixed pattern copied and exact zeros
    dropped.  Pattern and values are then bitwise those of the zero-free
    sparse sum of the formula's ``diag``, ``D Bx`` and ``Cdiff`` terms; the
    zero state's explicit zeros would change SuperLU's column ordering."""
    kernel = ops._kernel
    J = kernel._product(*kernel._residual(s)[1:],
                        kernel._identity_terms).copy()
    J.eliminate_zeros()
    return J


def structural_pattern(grid: Grid2D) -> sp.csr_matrix:
    """State-independent Jacobian sparsity pattern (boolean CSR).

    The pattern is the union over all states of the analytic Jacobian's
    support: 5-point coupling within each velocity block plus diagonal
    cross-coupling between blocks.
    """
    nx, ny = grid.nx, grid.ny

    def absval(m):
        m = m.tocsr(copy=True)
        m.data = np.abs(m.data)
        return m

    # summing |entries| keeps the union support (signed sums can cancel)
    block = (sp.kron(sp.identity(ny), absval(_first_difference(nx)))
             + sp.kron(absval(_first_difference(ny)), sp.identity(nx))
             + sp.kron(sp.identity(ny), absval(_second_difference(nx)))
             + sp.kron(absval(_second_difference(ny)), sp.identity(nx))
             + sp.identity(nx * ny))
    eye = sp.identity(nx * ny)
    pat = sp.bmat([[block, eye], [eye, block]], format="csr")
    pat.data = np.ones_like(pat.data)
    return pat.astype(bool)


class RestrictedResidual:
    """Evaluates selected Burgers residual rows from a local column vector.

    ``rows`` are global residual row indices; ``cols`` are global state
    columns in the caller's chosen order (the local vector is indexed the
    same way).  Every column structurally referenced by the rows must be
    present.  Evaluation touches only the selected rows -- the instance
    counts evaluated rows so hyper-reduction tests can assert nothing else
    was computed.

    Construction does the symbolic work once: the row-restricted
    operators, which depend only on the grid.  :meth:`at` rebinds the
    parameter-dependent boundary data and shares everything else.
    """

    def __init__(self, ops: FomOperators, rows, cols):
        n = ops.grid.nnode
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        self.grid = ops.grid
        self.rows = rows
        self.cols = cols
        self.n_rows = m = rows.size
        self.n_cols = cols.size

        lookup = np.full(2 * n, -1, dtype=np.int64)
        lookup[cols] = np.arange(cols.size)

        # row k is the u (v) equation at node rows[k] % n: its operators
        # act on the u (v) columns, and its Hadamard factors u, v live on
        # the same node
        node = rows % n
        shift = rows - node

        def remap(mat):
            sub = mat[node, :].tocoo()
            local = lookup[sub.col + shift[sub.row]]
            if np.any(local < 0):
                raise ValueError("restricted rows reference columns outside "
                                 "the provided column set")
            return sp.csr_matrix((sub.data, (sub.row, local)),
                                 shape=(m, cols.size))

        def gather_idx(offset):
            local = lookup[node + offset]
            if np.any(local < 0):
                raise ValueError("diagonal coupling column missing from the "
                                 "provided column set")
            return local

        # S = [Bx; By; Cdiff] on the selected rows (its first 2m rows are
        # D = [Bx; By]), and each row's own-node u and v columns (the
        # Hadamard factors)
        self._S = sp.vstack([remap(ops.Bx), remap(ops.By), remap(ops.Cdiff)],
                            format="csr")
        self._g = np.concatenate([gather_idx(0), gather_idx(n)])
        self._bind(ops)

    def _bind(self, ops: FomOperators):
        """Gather the boundary vectors of ``ops`` onto the selected rows."""
        def on_rows(u_vec, v_vec):
            return np.concatenate([u_vec, v_vec])[self.rows]

        self._b = np.concatenate([on_rows(ops.bux, ops.bvx),
                                  on_rows(ops.buy, ops.bvy)])
        self._c = on_rows(ops.cu, ops.cv)
        self.rows_evaluated = 0

    def at(self, ops: FomOperators) -> "RestrictedResidual":
        """This evaluator with the boundary data of ``ops`` and a fresh row
        count; the symbolic structure is shared, not rebuilt."""
        if ops.grid != self.grid:
            raise ValueError("operators were assembled on another grid")
        new = copy.copy(self)
        new._bind(ops)
        return new

    def _residual(self, x):
        """``(r, d, xg)``: the residual, ``d = D x - [bx; by]`` and the
        own-node u and v entries ``xg`` of ``x``."""
        if x.shape != (self.n_cols,):
            raise ValueError("local state has wrong length")
        m = self.n_rows
        s = self._S @ x
        d, xg = s[:2 * m] - self._b, x[self._g]
        return xg[:m] * d[:m] + xg[m:] * d[m:] + s[2 * m:] + self._c, d, xg

    def residual(self, x: np.ndarray) -> np.ndarray:
        self.rows_evaluated += self.n_rows
        return self._residual(x)[0]

    def jacobian(self, x: np.ndarray) -> sp.csr_matrix:
        """The residual Jacobian: :meth:`residual_and_product`'s kernel
        with ``M`` the identity."""
        return self._product(*self._residual(x)[1:], self._identity_terms)

    @functools.cached_property
    def _identity_terms(self):
        """:meth:`product_terms` of the identity, built at first use."""
        return self.product_terms(sp.identity(self.n_cols, format="csr"))

    def product_terms(self, M):
        """The parts of ``jacobian(x) @ M`` that do not depend on ``x``, to
        pass to :meth:`residual_and_product` (once per ``M`` when it is
        constant): the five terms ``M[g_u], Bx M, By M, M[g_v], Cdiff M``.

        For a dense ``M`` they are dense rows.  For a sparse ``M`` they are
        value rows over the union of their sparsity patterns (row-major,
        sorted columns), so the product is CSR with that pattern at every
        ``x``.
        """
        if not sp.issparse(M):
            M = np.asarray(M, dtype=float)
        if M.ndim != 2 or M.shape[0] != self.n_cols:
            raise ValueError("M must have one row per local column")
        m = self.n_rows
        SM, MG = self._S @ M, M[self._g]
        terms = (MG[:m], SM[:m], SM[m:2 * m], MG[m:], SM[2 * m:])
        if not sp.issparse(M):
            return terms, np.s_[:, None], None
        k = np.int64(M.shape[1])
        coo = [t.tocoo() for t in terms]
        keys = np.unique(np.concatenate([t.row * k + t.col for t in coo]))
        values = np.zeros((5, keys.size))
        for v, t in zip(values, coo):
            v[np.searchsorted(keys, t.row * k + t.col)] = t.data
        # built through the constructor once, so the index arrays already
        # have the dtype scipy picks and the per-call wrap does not convert
        pattern = sp.csr_matrix(
            (np.zeros(keys.size), keys % k, np.concatenate(
                [[0], np.cumsum(np.bincount(keys // k, minlength=m))])),
            shape=(m, k))
        # shared by every product: read-only, so an in-place structural
        # change of one (``eliminate_zeros``) raises, not corrupts the rest
        for arr in (pattern.indices, pattern.indptr):
            arr.flags.writeable = False
        return tuple(values), keys // k, pattern

    def _product(self, d, xg, terms):
        """``jacobian(x) @ M`` from ``d``, ``xg`` and ``product_terms(M)``:
        the row-scaled terms summed per entry in the fixed order
        ``d_u T0 + x_u T1 + x_v T2 + d_v T3 + T4``.  The scales are
        broadcast over dense rows or gathered by each nonzero's row."""
        m = self.n_rows
        (T0, T1, T2, T3, T4), at, pattern = terms
        JM = d[:m][at] * T0
        JM += xg[:m][at] * T1
        JM += xg[m:][at] * T2
        JM += d[m:][at] * T3
        JM += T4
        if pattern is None:
            return JM
        return sp.csr_matrix((JM, pattern.indices, pattern.indptr),
                             shape=pattern.shape)

    def residual_and_product(self, x: np.ndarray, terms):
        """``(residual(x), jacobian(x) @ M)`` with ``terms =
        product_terms(M)``: the product is dense for a dense ``M`` and CSR
        for a sparse one, with no Jacobian formed.  The residual is
        bitwise :meth:`residual`'s, and the rows are counted once."""
        self.rows_evaluated += self.n_rows
        r, d, xg = self._residual(x)
        return r, self._product(d, xg, terms)


@dataclass
class NewtonTrace:
    """Iteration history of a monolithic Newton solve."""

    iterates: list
    residuals: list
    norms: list
    alphas: list
    converged: bool = False

    @property
    def niter(self) -> int:
        return len(self.alphas)


def solve_monolithic(grid: Grid2D, p: ParameterPoint, init=None,
                     tol: float = 1e-8, max_iter: int = 25):
    """Damped Newton solve of the full-order model.

    Each step factors :func:`jacobian` (the subdomain blocks' kernel over
    every row, exact zeros dropped) with SuperLU.  Returns
    ``(state, NewtonTrace)``.  The trace keeps every iterate and its
    residual vector so downstream snapshot harvesting can reuse them.
    Raises :class:`ConvergenceError` on stagnation or iteration exhaustion.
    """
    ops = assemble(grid, p)
    if init is None:
        s = np.zeros(grid.ndof)
    else:
        s = np.array(init, dtype=float, copy=True)
        if s.shape != (grid.ndof,):
            raise ValueError("initial state has wrong length")
        if not np.all(np.isfinite(s)):
            raise ValueError("initial state contains non-finite entries")

    trace = NewtonTrace(iterates=[], residuals=[], norms=[], alphas=[])
    r = residual(ops, s)
    rnorm = float(np.linalg.norm(r))
    trace.iterates.append(s.copy())
    trace.residuals.append(r.copy())
    trace.norms.append(rnorm)

    for _ in range(max_iter):
        if rnorm <= tol:
            trace.converged = True
            return s, trace
        J = jacobian(ops, s)
        try:
            lu = spla.splu(J.tocsc())
        except RuntimeError as exc:  # pragma: no cover - defensive
            raise ConvergenceError(f"singular Jacobian: {exc}", trace) from exc
        d = lu.solve(-r)
        alpha = 1.0
        for _halving in range(21):
            s_new = s + alpha * d
            r_new = residual(ops, s_new)
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

    if rnorm <= tol:
        trace.converged = True
        return s, trace
    raise ConvergenceError(
        f"no convergence in {max_iter} iterations (|r| = {rnorm:.3e})", trace)
