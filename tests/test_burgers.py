"""Full-order model: exact solution, operator assembly, residual, Newton."""

import numpy as np
import pytest
import scipy.sparse as sp

from ddrom import burgers
from ddrom.burgers import (
    Grid2D,
    ParameterPoint,
    assemble,
    exact_solution,
    exact_state,
    jacobian,
    residual,
    solve_monolithic,
    structural_pattern,
)
from ddrom.errors import ConvergenceError, SingularityError

from fom_reference import reference_jacobian, reference_residual


# ---------------------------------------------------------------- exact solution

def test_exact_solution_trivial_point():
    # At x=1 the exponentials cancel in u's numerator and psi = a*2 + 2.
    p = ParameterPoint(1.0, 25.0)
    u, v = exact_solution(p, 1.0, 0.0, nu=0.1)
    assert u == pytest.approx(-0.05, abs=1e-15)
    assert v == 0.0


def test_exact_solution_v_vanishes_on_lower_edge():
    p = ParameterPoint(123.0, 17.0)
    _, v = exact_solution(p, np.linspace(-1, 1, 11), 0.0)
    assert np.all(v == 0.0)


def test_exact_solution_frozen_values():
    # High-precision reference values (50-digit arithmetic, rounded to f64).
    p = ParameterPoint(7692.5384, 21.9230)
    u, v = exact_solution(p, 0.0, 0.025, nu=0.1)
    assert u == pytest.approx(4.384587551595927, rel=1e-13)
    assert v == pytest.approx(2.676614458454527, rel=1e-13)

    p2 = ParameterPoint(5000.0, 15.0)
    u2, v2 = exact_solution(p2, -0.5, 0.0125, nu=0.1)
    assert u2 == pytest.approx(2.9999985362323884, rel=1e-13)
    assert v2 == pytest.approx(0.569185587108358, rel=1e-13)


def test_exact_solution_singularity_guard():
    # a=-2, lam=0, x=0: psi = -2*(1+0) + (e^0 + e^0)*cos(0) = 0 exactly.
    with pytest.warns(UserWarning):
        p = ParameterPoint(-2.0, 0.0)
    with pytest.raises(SingularityError):
        exact_solution(p, 0.0, 0.013)


def test_parameter_point_warns_outside_box():
    with pytest.warns(UserWarning):
        ParameterPoint(0.5, 30.0)
    with pytest.raises(ValueError):
        ParameterPoint(np.nan, 10.0)


# ---------------------------------------------------------------- grid

def test_grid_spacing_and_coordinates():
    g = Grid2D(nx=60, ny=8)
    assert g.hx == pytest.approx(2.0 / 61)
    assert g.hy == pytest.approx(0.05 / 9)
    assert g.x[0] == pytest.approx(-1 + g.hx)
    assert g.x[-1] == pytest.approx(1 - g.hx)
    assert g.y[0] == pytest.approx(g.hy)
    assert g.ndof == 2 * 60 * 8


def test_grid_rejects_degenerate():
    with pytest.raises(ValueError):
        Grid2D(nx=1, ny=5)
    with pytest.raises(ValueError):
        Grid2D(nx=4, ny=4, nu=0.0)


# ---------------------------------------------------------------- assembly

def test_bx_block_structure():
    g = Grid2D(nx=3, ny=2)
    ops = assemble(g, ParameterPoint(10.0, 10.0))
    Bx = ops.Bx.toarray()
    c = -1.0 / (2 * g.hx)
    tri = c * np.array([[0, 1, 0], [-1, 0, 1], [0, -1, 0]])
    expect = np.zeros((6, 6))
    expect[:3, :3] = tri
    expect[3:, 3:] = tri
    np.testing.assert_allclose(Bx, expect)


def test_cdiff_interior_row_sums_vanish():
    g = Grid2D(nx=7, ny=5)
    ops = assemble(g, ParameterPoint(2.0, 6.0))
    row_sums = np.asarray(ops.Cdiff.sum(axis=1)).ravel()
    # rows of nodes not adjacent to any edge see the full (1,-2,1) stencils
    interior = []
    for j in range(1, g.ny - 1):
        for i in range(1, g.nx - 1):
            interior.append(j * g.nx + i)
    np.testing.assert_allclose(row_sums[interior], 0.0, atol=1e-12)


def test_grid_operators_shared_per_grid_and_read_only():
    g = Grid2D(nx=9, ny=4)
    first = assemble(g, ParameterPoint(10.0, 10.0))
    again = assemble(Grid2D(nx=9, ny=4), ParameterPoint(3000.0, 20.0))
    assert not np.array_equal(first.bux, again.bux)

    def d1(n):
        return sp.diags([-np.ones(n - 1), np.ones(n - 1)], [-1, 1])

    def d2(n):
        return sp.diags([np.ones(n - 1), -2.0 * np.ones(n), np.ones(n - 1)],
                        [-1, 0, 1])

    Ix, Iy = sp.identity(g.nx), sp.identity(g.ny)
    uncached = {
        "Bx": (-1.0 / (2.0 * g.hx)) * sp.kron(Iy, d1(g.nx)),
        "By": (-1.0 / (2.0 * g.hy)) * sp.kron(d1(g.ny), Ix),
        "Cdiff": (g.nu / g.hx**2) * sp.kron(Iy, d2(g.nx))
        + (g.nu / g.hy**2) * sp.kron(d2(g.ny), Ix),
    }
    for name, ref in uncached.items():
        op = getattr(first, name)
        assert op is getattr(again, name)
        np.testing.assert_array_equal(op.toarray(), ref.toarray())
        for arr in (op.data, op.indices, op.indptr):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = arr[0]
        with pytest.raises(ValueError, match="read-only"):
            op *= 2.0


def brute_force_residual(grid, p, s):
    """Loop-based stencil evaluation used as an assembly oracle."""
    nx, ny, nu = grid.nx, grid.ny, grid.nu
    hx, hy = grid.hx, grid.hy
    n = nx * ny
    u = s[:n].reshape(ny, nx)
    v = s[n:].reshape(ny, nx)

    def ghost(i, j):
        # (i, j) are 1-based grid indices possibly on the boundary ring
        x = -1.0 + i * hx
        y = j * hy
        return exact_solution(p, x, y, nu=nu)

    def val(w, comp, i, j):
        if 1 <= i <= nx and 1 <= j <= ny:
            return w[j - 1, i - 1]
        ue, ve = ghost(i, j)
        return ue if comp == "u" else ve

    r = np.zeros(2 * n)
    for j in range(1, ny + 1):
        for i in range(1, nx + 1):
            pflat = (j - 1) * nx + (i - 1)
            for comp, w, off in (("u", u, 0), ("v", v, n)):
                wij = w[j - 1, i - 1]
                wx = (val(w, comp, i + 1, j) - val(w, comp, i - 1, j)) / (2 * hx)
                wy = (val(w, comp, i, j + 1) - val(w, comp, i, j - 1)) / (2 * hy)
                lap = ((val(w, comp, i + 1, j) - 2 * wij + val(w, comp, i - 1, j)) / hx**2
                       + (val(w, comp, i, j + 1) - 2 * wij + val(w, comp, i, j - 1)) / hy**2)
                uij = u[j - 1, i - 1]
                vij = v[j - 1, i - 1]
                r[off + pflat] = nu * lap - uij * wx - vij * wy
    return r


def test_residual_matches_brute_force_stencil_oracle():
    g = Grid2D(nx=4, ny=3)
    p = ParameterPoint(500.0, 12.0)
    ops = assemble(g, p)
    rng = np.random.default_rng(7)
    s = rng.normal(size=g.ndof)
    r_fast = residual(ops, s)
    r_slow = brute_force_residual(g, p, s)
    np.testing.assert_allclose(r_fast, r_slow, rtol=1e-12, atol=1e-12)


def test_residual_at_zero_state_is_boundary_vector():
    g = Grid2D(nx=5, ny=4)
    ops = assemble(g, ParameterPoint(3000.0, 20.0))
    r = residual(ops, np.zeros(g.ndof))
    np.testing.assert_array_equal(r, np.concatenate([ops.cu, ops.cv]))


def test_residual_determinism_bitwise():
    g = Grid2D(nx=6, ny=4)
    ops = assemble(g, ParameterPoint(42.0, 9.0))
    s = np.random.default_rng(0).normal(size=g.ndof)
    np.testing.assert_array_equal(residual(ops, s), residual(ops, s))


def test_residual_consistency_second_order():
    # || r(exact on grid) ||_inf should shrink ~4x per h-halving; the sharp
    # lam=25 profile needs moderately fine grids to enter that regime.
    # h = 2/(nx+1), so nx -> 2*nx+1 halves the spacing.
    p = ParameterPoint(1.0, 25.0)
    norms = []
    for nx, ny in [(247, 39), (495, 79), (991, 159)]:
        g = Grid2D(nx=nx, ny=ny)
        ops = assemble(g, p)
        norms.append(np.linalg.norm(residual(ops, exact_state(g, p)), np.inf))
    r1 = norms[0] / norms[1]
    r2 = norms[1] / norms[2]
    assert 3.2 <= r1 <= 4.8
    assert 3.2 <= r2 <= 4.8


# ---------------------------------------------------------------- jacobian

@pytest.mark.parametrize("seed", range(4))
def test_jacobian_matches_central_differences(seed):
    g = Grid2D(nx=5, ny=3)
    ops = assemble(g, ParameterPoint(800.0, 14.0))
    rng = np.random.default_rng(seed)
    s = rng.normal(size=g.ndof)
    d = rng.normal(size=g.ndof)
    eps = 1e-6 * (1 + np.abs(s).max())
    fd = (residual(ops, s + eps * d) - residual(ops, s - eps * d)) / (2 * eps)
    jv = jacobian(ops, s) @ d
    assert np.linalg.norm(fd - jv) <= 1e-6 * max(1.0, np.linalg.norm(jv))


def test_jacobian_at_zero_state():
    g = Grid2D(nx=4, ny=4)
    ops = assemble(g, ParameterPoint(100.0, 7.0))
    J = jacobian(ops, np.zeros(g.ndof)).toarray()
    n = g.nnode
    expect_uu = np.diag(-ops.bux) + ops.Cdiff.toarray()
    expect_uv = np.diag(-ops.buy)
    np.testing.assert_allclose(J[:n, :n], expect_uu, atol=1e-14)
    np.testing.assert_allclose(J[:n, n:], expect_uv, atol=1e-14)


def test_jacobian_pattern_within_structural_pattern():
    g = Grid2D(nx=6, ny=5)
    ops = assemble(g, ParameterPoint(1234.0, 11.0))
    s = np.random.default_rng(3).normal(size=g.ndof)
    J = jacobian(ops, s).tocsr()
    pat = structural_pattern(g).tocsr()
    # every stored entry of J sits inside the structural pattern
    outside = (abs(J) > 0).astype(int) - pat.astype(int)
    assert outside.max() <= 0


def test_structural_pattern_is_the_jacobian_support():
    # the support of the formula's Jacobian at a random state (no entry
    # cancels there) and the kernel's fixed pattern, on every small grid:
    # the nx = 2 grids once picked up diagonal-neighbour couplings
    rng = np.random.default_rng(11)
    p = ParameterPoint(1234.0, 11.0)
    grids = [Grid2D(nx, ny) for nx in range(2, 10) for ny in range(2, 10)]
    wrong = []
    for g in grids + [Grid2D(60, 8), Grid2D(120, 12)]:
        pat = structural_pattern(g)
        J = reference_jacobian(assemble(g, p), rng.normal(size=g.ndof))
        J.eliminate_zeros()
        J.sort_indices()
        kernel = burgers._fom_kernel(g)._identity_terms[2]
        assert isinstance(pat, sp.csr_matrix) and pat.dtype == bool
        assert pat.shape == (g.ndof, g.ndof) and np.all(pat.data)
        same_support = (np.array_equal(pat.indptr, J.indptr)
                        and np.array_equal(pat.indices, J.indices))
        same_kernel = all(
            a.dtype == b.dtype and np.array_equal(a, b)
            for a, b in ((pat.indptr, kernel.indptr),
                         (pat.indices, kernel.indices)))
        if not (same_support and same_kernel):
            wrong.append((g.nx, g.ny))
    assert wrong == []


@pytest.mark.parametrize("nx,ny", [(24, 6), (60, 8), (120, 12)])
def test_residual_and_jacobian_bitwise_equal_sparse_formula(nx, ny):
    # the kernel's Jacobian, exact zeros dropped, has the pattern and the
    # values of the zero-free sparse sum, so SuperLU factors the same matrix
    g = Grid2D(nx=nx, ny=ny)
    p = ParameterPoint(4321.0, 17.5)
    ops = assemble(g, p)
    converged, trace = solve_monolithic(g, p)
    assert trace.converged
    random = np.random.default_rng(nx).normal(size=g.ndof)
    for s in (np.zeros(g.ndof), random, converged):
        J, J_ref = jacobian(ops, s), reference_jacobian(ops, s)
        assert isinstance(J, sp.csr_matrix) and J.shape == J_ref.shape
        for got, want in ((J.indptr, J_ref.indptr),
                          (J.indices, J_ref.indices),
                          (J.data, J_ref.data),
                          (residual(ops, s), reference_residual(ops, s))):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        # the caller owns the matrix: changing it changes no later one
        J.data[:] = 0.0
        J.eliminate_zeros()
        assert jacobian(ops, s).data.tobytes() == J_ref.data.tobytes()


def test_residual_rejects_wrong_length():
    g = Grid2D(nx=5, ny=3)
    ops = assemble(g, ParameterPoint(100.0, 7.0))
    for bad in (np.zeros(g.ndof - 1), np.zeros((g.ndof, 1))):
        with pytest.raises(ValueError):
            residual(ops, bad)
        with pytest.raises(ValueError):
            jacobian(ops, bad)


# ---------------------------------------------------------------- newton

def test_newton_from_exact_solution_converges_fast():
    g = Grid2D(nx=12, ny=6)
    p = ParameterPoint(5000.0, 15.0)
    s0 = exact_state(g, p)
    s, trace = solve_monolithic(g, p, init=s0, tol=1e-8)
    assert trace.converged
    assert trace.niter <= 3


def test_newton_zero_init_converges_across_corners():
    g = Grid2D(nx=12, ny=4)
    for a, lam in [(1, 5), (1, 25), (1e4, 5), (1e4, 25)]:
        s, trace = solve_monolithic(g, ParameterPoint(a, lam), tol=1e-8)
        assert trace.converged, (a, lam)
        assert trace.norms[-1] <= 1e-8


def test_newton_solution_accuracy_improves_second_order():
    p = ParameterPoint(1e4, 5.0)
    errs = []
    for nx, ny in [(21, 5), (43, 11)]:  # second grid halves both spacings
        g = Grid2D(nx=nx, ny=ny)
        s, _ = solve_monolithic(g, p, tol=1e-10)
        errs.append(np.abs(s - exact_state(g, p)).max())
    rate = np.log2(errs[0] / errs[1])
    assert 1.5 <= rate <= 2.5


def test_newton_trace_contents():
    g = Grid2D(nx=8, ny=4)
    p = ParameterPoint(50.0, 10.0)
    s, trace = solve_monolithic(g, p, tol=1e-9)
    assert len(trace.iterates) == len(trace.residuals) == len(trace.norms)
    assert trace.niter == len(trace.iterates) - 1
    ops = assemble(g, p)
    for it, rv in zip(trace.iterates, trace.residuals):
        np.testing.assert_array_equal(residual(ops, it), rv)
    assert trace.norms[-1] <= 1e-9


def test_newton_rejects_nan_init():
    g = Grid2D(nx=4, ny=3)
    bad = np.full(g.ndof, np.nan)
    with pytest.raises(ValueError):
        solve_monolithic(g, ParameterPoint(10.0, 10.0), init=bad)


def test_newton_nonconvergence_raises():
    g = Grid2D(nx=6, ny=3)
    with pytest.raises(ConvergenceError):
        solve_monolithic(g, ParameterPoint(5000.0, 15.0), tol=1e-14,
                         max_iter=1)


def test_newton_iterates_bitwise_with_sparse_formula_jacobian(monkeypatch):
    g = Grid2D(nx=24, ny=6)
    points = [ParameterPoint(4321.0, 17.5), ParameterPoint(1.0, 25.0),
              ParameterPoint(1e4, 5.0)]

    def solves():
        out = []
        for p in points:
            _, trace = solve_monolithic(g, p)
            out += [a.tobytes() for a in trace.iterates + trace.residuals]
            out.append(np.array(trace.alphas).tobytes())
        return out

    got = solves()
    monkeypatch.setattr(burgers, "jacobian", reference_jacobian)
    assert solves() == got
