"""Domain decomposition: index sets, ports, constraints, subdomain residuals."""

import itertools

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from ddrom.burgers import (
    Grid2D,
    ParameterPoint,
    assemble,
    jacobian,
    residual,
    solve_monolithic,
)
from ddrom.partition import (
    ConstraintMatrix,
    RestrictedResidual,
    assemble_fom_constraints,
    assemble_rom_constraints,
    build_partition,
    partition_from_pattern,
)

from fom_reference import reference_jacobian, reference_residual


def check_partition_laws(part):
    """Exact invariants every decomposition must satisfy."""
    n = part.grid.ndof
    all_rows = np.concatenate([s.res_rows for s in part.subdomains])
    assert all_rows.size == n
    assert np.array_equal(np.sort(all_rows), np.arange(n))

    interior_all = np.concatenate([s.interior_cols for s in part.subdomains])
    assert interior_all.size == np.unique(interior_all).size  # disjoint

    for s in part.subdomains:
        assert np.intersect1d(s.interior_cols, s.interface_cols).size == 0
        ports_sum = sum(part.ports.ports[j].size
                        for j in part.ports.ports_of(s.index))
        assert ports_sum == s.n_interface

    # every column: exactly one interior set, or >= 2 interface sets
    interface_count = np.zeros(n, dtype=int)
    for s in part.subdomains:
        interface_count[s.interface_cols] += 1
    in_interior = np.zeros(n, dtype=bool)
    in_interior[interior_all] = True
    assert np.all(in_interior ^ (interface_count >= 2))

    # ports disjoint, members sorted, port columns pair u with v
    seen = np.zeros(n, dtype=bool)
    for p in part.ports.ports:
        assert not seen[p.cols].any()
        seen[p.cols] = True
        assert list(p.members) == sorted(p.members)
        assert len(p.members) >= 2


def test_single_subdomain_has_no_ports():
    part = build_partition(Grid2D(nx=6, ny=4), 1, 1)
    assert part.ports.n_ports == 0
    (sub,) = part.subdomains
    assert sub.n_interface == 0
    assert np.array_equal(sub.interior_cols, np.arange(part.grid.ndof))
    check_partition_laws(part)


def test_two_by_one_matches_jacobian_brute_force():
    g = Grid2D(nx=14, ny=5)
    part = build_partition(g, 2, 1)
    check_partition_laws(part)

    # oracle: column c is interface for i iff the numeric Jacobian at a
    # random state has nonzeros in (rows of i, c) and in (rows of k!=i, c)
    ops = assemble(g, ParameterPoint(777.0, 13.0))
    s = np.random.default_rng(5).normal(size=g.ndof)
    J = (np.abs(jacobian(ops, s).toarray()) > 0)
    for sub in part.subdomains:
        mine = J[sub.res_rows, :].any(axis=0)
        other_rows = np.setdiff1d(np.arange(g.ndof), sub.res_rows)
        theirs = J[other_rows, :].any(axis=0)
        expect_interface = np.flatnonzero(mine & theirs)
        expect_interior = np.flatnonzero(mine & ~theirs)
        np.testing.assert_array_equal(sub.interface_cols, expect_interface)
        np.testing.assert_array_equal(sub.interior_cols, expect_interior)


def test_u_and_v_copies_share_ports():
    g = Grid2D(nx=10, ny=6)
    part = build_partition(g, 2, 2)
    n = g.nnode
    for p in part.ports.ports:
        nodes = p.cols[p.cols < n]
        assert np.array_equal(p.cols, np.concatenate([nodes, nodes + n]))


def test_two_by_two_has_eight_ports_with_corner_triples():
    part = build_partition(Grid2D(nx=12, ny=6), 2, 2)
    check_partition_laws(part)
    members = sorted(p.members for p in part.ports.ports)
    assert members == sorted([
        (0, 1), (2, 3), (0, 2), (1, 3),
        (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3),
    ])
    for p in part.ports.ports:
        if len(p.members) == 3:
            assert p.size == 2  # one grid node: its u and v copies


def test_box_stencil_reproduces_five_port_layout():
    # With a 9-point box stencil the 2x2 split has 4 edge ports plus one
    # 4-member cross port -- the classic schematic layout.
    H = W = 8
    n = H * W
    ij = [(i, j) for j in range(H) for i in range(W)]
    rows, cols = [], []
    for r, (i, j) in enumerate(ij):
        for dj in (-1, 0, 1):
            for di in (-1, 0, 1):
                ii, jj = i + di, j + dj
                if 0 <= ii < W and 0 <= jj < H:
                    rows.append(r)
                    cols.append(jj * W + ii)
    pattern = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    owner = np.array([(j // 4) * 2 + (i // 4) for j in range(H)
                      for i in range(W)])
    subs, table = partition_from_pattern(pattern, owner)
    assert table.n_ports == 5
    sizes = {p.members: p.size for p in table.ports}
    assert sizes[(0, 1, 2, 3)] == 4
    assert sorted(table.ports_of(0)) == sorted(
        [p.index for p in table.ports if 0 in p.members])


def test_large_scale_partition_counts():
    # 480x24 grid split 2x2: the canonical large configuration.
    part = build_partition(Grid2D(nx=480, ny=24), 2, 2)
    for sub in part.subdomains:
        assert sub.n_interior == 5258
        assert sub.n_interface == 1006
        assert sub.n_res == 2 * 240 * 12
    sizes = sorted(p.size for p in part.ports.ports)
    assert sizes == [2, 2, 2, 2, 44, 44, 956, 956]
    A = assemble_fom_constraints(part.ports)
    assert A.n_rows == 2016


def test_degenerate_subdomain_rejected():
    pattern = sp.identity(4, format="csr")
    owner = np.array([0, 0, 2, 2])  # id 1 missing -> zero rows
    with pytest.raises(ValueError):
        partition_from_pattern(pattern, owner)


def loop_partition(pattern, row_owner):
    """The per-column loop ``partition_from_pattern`` replaced: returns
    ``(interior, interface, ports)`` with ports as ``(cols, members)``."""
    csc = sp.csc_matrix(pattern)
    n = csc.shape[0]
    nsub = int(row_owner.max()) + 1
    sharing = [tuple(sorted(set(row_owner[
        csc.indices[csc.indptr[c]:csc.indptr[c + 1]]].tolist())))
        for c in range(n)]
    interior = [np.array([c for c in range(n) if sharing[c] == (i,)],
                         dtype=np.int64) for i in range(nsub)]
    interface = [np.array([c for c in range(n)
                           if len(sharing[c]) > 1 and i in sharing[c]],
                          dtype=np.int64) for i in range(nsub)]
    groups = {}
    for c in range(n):
        if len(sharing[c]) > 1:
            groups.setdefault(sharing[c], []).append(c)
    ordered = sorted(groups.items(), key=lambda kv: kv[1][0])
    ports = [(np.array(cols, dtype=np.int64), mem) for mem, cols in ordered]
    return interior, interface, ports


@pytest.mark.parametrize("nx, ny, nsx, nsy", [
    (60, 8, 2, 2), (120, 12, 2, 2), (24, 6, 3, 2), (240, 24, 4, 3),
    (16, 4, 2, 1), (8, 6, 2, 2)])
def test_partition_matches_per_column_loop(nx, ny, nsx, nsy):
    part = build_partition(Grid2D(nx=nx, ny=ny), nsx, nsy)
    interior, interface, ports = loop_partition(part.pattern, part.row_owner)
    for sub, ref_int, ref_gam in zip(part.subdomains, interior, interface):
        for got, ref in ((sub.interior_cols, ref_int),
                         (sub.interface_cols, ref_gam)):
            assert got.dtype == ref.dtype
            np.testing.assert_array_equal(got, ref)
        assert sub.res_rows.dtype == np.int64
        np.testing.assert_array_equal(
            sub.res_rows, np.flatnonzero(part.row_owner == sub.index))
    assert len(part.ports.ports) == len(ports)
    for j, (port, (cols, members)) in enumerate(zip(part.ports.ports, ports)):
        assert port.index == j and port.members == members
        assert all(type(m) is int for m in port.members)
        assert port.cols.dtype == cols.dtype
        np.testing.assert_array_equal(port.cols, cols)


def test_unreferenced_column_rejected():
    pattern = sp.csr_matrix(np.array([[1, 0, 0], [0, 0, 1], [1, 0, 1]]))
    with pytest.raises(ValueError, match="column 1 referenced by no"):
        partition_from_pattern(pattern, np.array([0, 1, 1]))


@settings(max_examples=25, deadline=None)
@given(nx=st.integers(4, 9), ny=st.integers(2, 5),
       nsx=st.integers(1, 3), nsy=st.integers(1, 2))
def test_partition_laws_property(nx, ny, nsx, nsy):
    if nsx > nx or nsy > ny:
        return
    part = build_partition(Grid2D(nx=nx, ny=ny), nsx, nsy)
    check_partition_laws(part)


# ---------------------------------------------------------------- constraints

def test_fom_constraints_shape_and_signs():
    part = build_partition(Grid2D(nx=12, ny=6), 2, 2)
    A = assemble_fom_constraints(part.ports)
    expect_rows = sum((len(p.members) - 1) * p.size for p in part.ports.ports)
    assert A.n_rows == expect_rows
    M = A.matrix.toarray()
    assert np.all(np.sum(M == 1, axis=1) == 1)
    assert np.all(np.sum(M == -1, axis=1) == 1)
    assert np.all(np.sum(M != 0, axis=1) == 2)
    # full row rank (dense SVD oracle)
    assert np.linalg.matrix_rank(M) == A.n_rows


def test_fom_constraints_annihilate_restricted_states():
    g = Grid2D(nx=12, ny=6)
    part = build_partition(g, 2, 2)
    A = assemble_fom_constraints(part.ports)
    rng = np.random.default_rng(11)
    for _ in range(5):
        x = rng.normal(size=g.ndof)
        stacked = np.concatenate(
            [x[s.interface_cols] for s in part.subdomains])
        np.testing.assert_allclose(A.matrix @ stacked, 0.0, atol=1e-14)


def test_rom_constraints_two_subdomain_identity_blocks():
    part = build_partition(Grid2D(nx=14, ny=5), 2, 1)
    assert part.ports.n_ports == 1
    Ahat = assemble_rom_constraints(part.ports, {0: 3})
    assert Ahat.n_rows == 3
    np.testing.assert_array_equal(Ahat.blocks[0].toarray(), np.eye(3))
    np.testing.assert_array_equal(Ahat.blocks[1].toarray(), -np.eye(3))


def test_rom_constraints_rank_and_nullspace_dimension():
    part = build_partition(Grid2D(nx=12, ny=6), 2, 2)
    dims = {p.index: max(1, p.size // 2) for p in part.ports.ports}
    Ahat = assemble_rom_constraints(part.ports, dims)
    n_a = sum((len(p.members) - 1) * dims[p.index]
              for p in part.ports.ports)
    assert Ahat.n_rows == n_a
    M = Ahat.matrix.toarray()
    assert np.linalg.matrix_rank(M) == n_a
    assert M.shape[1] - n_a >= 1


def test_rom_constraints_reject_bad_latent_dims():
    part = build_partition(Grid2D(nx=14, ny=5), 2, 1)
    with pytest.raises(ValueError):
        assemble_rom_constraints(part.ports, {0: 0})
    with pytest.raises(ValueError):
        assemble_rom_constraints(part.ports,
                                 {0: part.ports.ports[0].size + 1})


# ------------------------------------------------------- subdomain evaluation

def subdomain_residual(ops, sub):
    """Full-row residual of ``sub`` on its (interior, interface) columns."""
    return RestrictedResidual(ops, sub.res_rows, np.concatenate(
        [sub.interior_cols, sub.interface_cols]))


def test_subdomain_residual_reassembles_global():
    g = Grid2D(nx=10, ny=4)
    p = ParameterPoint(2500.0, 18.0)
    part = build_partition(g, 2, 2)
    ops = assemble(g, p)
    rng = np.random.default_rng(21)
    x = rng.normal(size=g.ndof)
    r_global = reference_residual(ops, x)
    rebuilt = np.zeros(g.ndof)
    for sub in part.subdomains:
        x_int, x_gam = part.restrict(sub.index, x)
        rebuilt[sub.res_rows] = subdomain_residual(ops, sub).residual(
            np.concatenate([x_int, x_gam]))
    np.testing.assert_allclose(rebuilt, r_global, rtol=1e-13, atol=1e-13)


def test_subdomain_residual_zero_at_monolithic_solution():
    g = Grid2D(nx=10, ny=4)
    p = ParameterPoint(100.0, 8.0)
    part = build_partition(g, 2, 2)
    ops = assemble(g, p)
    x, _ = solve_monolithic(g, p, tol=1e-11)
    for sub in part.subdomains:
        x_int, x_gam = part.restrict(sub.index, x)
        r = subdomain_residual(ops, sub).residual(
            np.concatenate([x_int, x_gam]))
        assert np.linalg.norm(r) <= 1e-10


def test_subdomain_jacobians_match_finite_differences():
    g = Grid2D(nx=8, ny=4)
    p = ParameterPoint(900.0, 11.0)
    part = build_partition(g, 2, 1)
    ops = assemble(g, p)
    rng = np.random.default_rng(2)
    sub = part.subdomains[0]
    rr = subdomain_residual(ops, sub)
    n_int = sub.n_interior

    def res(x_int, x_gam):
        return rr.residual(np.concatenate([x_int, x_gam]))

    x_int = rng.normal(size=n_int)
    x_gam = rng.normal(size=sub.n_interface)
    J = rr.jacobian(np.concatenate([x_int, x_gam]))
    J_int, J_gam = J[:, :n_int], J[:, n_int:]
    eps = 1e-7
    for _ in range(3):
        d = rng.normal(size=n_int)
        fd = (res(x_int + eps * d, x_gam)
              - res(x_int - eps * d, x_gam)) / (2 * eps)
        jv = J_int @ d
        assert np.linalg.norm(fd - jv) <= 1e-6 * max(1, np.linalg.norm(jv))
        dg = rng.normal(size=sub.n_interface)
        fdg = (res(x_int, x_gam + eps * dg)
               - res(x_int, x_gam - eps * dg)) / (2 * eps)
        jvg = J_gam @ dg
        assert np.linalg.norm(fdg - jvg) <= 1e-6 * max(1, np.linalg.norm(jvg))


def test_restricted_residual_selected_rows_match_global():
    g = Grid2D(nx=9, ny=5)
    p = ParameterPoint(333.0, 21.0)
    part = build_partition(g, 3, 1)
    ops = assemble(g, p)
    rng = np.random.default_rng(9)
    rows = np.sort(rng.choice(g.ndof, size=17, replace=False))
    cols = part.referenced_cols(rows)
    rr = RestrictedResidual(ops, rows, cols)
    x = rng.normal(size=g.ndof)
    got = rr.residual(x[cols])
    np.testing.assert_allclose(got, reference_residual(ops, x)[rows],
                               rtol=1e-13, atol=1e-13)
    assert rr.rows_evaluated == rows.size
    Jr = rr.jacobian(x[cols]).toarray()
    J_full = reference_jacobian(ops, x).toarray()
    np.testing.assert_allclose(Jr, J_full[np.ix_(rows, cols)],
                               rtol=1e-12, atol=1e-12)


def test_restricted_residual_requires_referenced_columns():
    g = Grid2D(nx=6, ny=3)
    ops = assemble(g, ParameterPoint(10.0, 9.0))
    with pytest.raises(ValueError):
        RestrictedResidual(ops, np.array([5]), np.array([5]))


# ------------------------------------------------- fixed-pattern Jacobian

def sparse_formula_jacobian(ops, rows, cols, x):
    """Reference: the Jacobian as a per-call sparse formula -- diagonal
    scalings of the row-restricted operators and one-hot couplings, summed
    per velocity block, stacked and permuted back to row order."""
    n = ops.grid.nnode
    lookup = np.full(2 * n, -1, dtype=np.int64)
    lookup[cols] = np.arange(cols.size)

    def block(node_rows, off, bx, by):
        def remap(mat):
            sub = mat[node_rows, :].tocoo()
            return sp.csr_matrix((sub.data, (sub.row, lookup[sub.col + off])),
                                 shape=(node_rows.size, cols.size))

        def one_hot(idx):
            return sp.csr_matrix(
                (np.ones(idx.size), (np.arange(idx.size), idx)),
                shape=(idx.size, cols.size))

        Bx, By, Cd = remap(ops.Bx), remap(ops.By), remap(ops.Cdiff)
        gu, gv = lookup[node_rows], lookup[node_rows + n]
        return (sp.diags(Bx @ x - bx[node_rows]) @ one_hot(gu)
                + sp.diags(x[gu]) @ Bx + sp.diags(x[gv]) @ By
                + sp.diags(By @ x - by[node_rows]) @ one_hot(gv) + Cd)

    u_pos, v_pos = np.flatnonzero(rows < n), np.flatnonzero(rows >= n)
    stacked = sp.vstack([block(rows[u_pos], 0, ops.bux, ops.buy),
                         block(rows[v_pos] - n, n, ops.bvx, ops.bvy)]).tocsr()
    order = np.empty(rows.size, dtype=np.int64)
    order[u_pos] = np.arange(u_pos.size)
    order[v_pos] = u_pos.size + np.arange(v_pos.size)
    return stacked[order, :]


@pytest.mark.parametrize("nx,ny", [(120, 12), (60, 8)])
@pytest.mark.parametrize("row_set", ["full", "hr", "u-only", "v-only"])
def test_fixed_pattern_jacobian_matches_references(nx, ny, row_set):
    g = Grid2D(nx=nx, ny=ny)
    part = build_partition(g, 2, 2)
    n = g.nnode
    rng = np.random.default_rng(nx + len(row_set))
    # the structure is built at one parameter and rebound to another
    ops_built = assemble(g, ParameterPoint(40.0, 6.0))
    ops = assemble(g, ParameterPoint(4321.0, 17.5))
    x_global = rng.normal(size=g.ndof)
    for sub in part.subdomains:
        rows = {"full": sub.res_rows,
                "hr": np.sort(rng.choice(sub.res_rows, 60, replace=False)),
                "u-only": sub.res_rows[sub.res_rows < n],
                "v-only": sub.res_rows[sub.res_rows >= n]}[row_set]
        cols = rng.permutation(part.referenced_cols(rows))
        rr = RestrictedResidual(ops_built, rows, cols).at(ops)
        x_zero_half = x_global.copy()
        x_zero_half[rng.random(g.ndof) < 0.5] = 0.0
        patterns = []
        for x in (x_global, np.zeros(g.ndof), x_zero_half):
            J = rr.jacobian(x[cols])
            assert isinstance(J, sp.csr_matrix) and J.has_sorted_indices
            patterns.append((J.indices, J.indptr))
            got = J.toarray()
            for ref in (sparse_formula_jacobian(ops, rows, cols, x[cols]),
                        reference_jacobian(ops, x)[rows][:, cols]):
                ref = ref.toarray()
                assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
        for indices, indptr in patterns[1:]:
            np.testing.assert_array_equal(indices, patterns[0][0])
            np.testing.assert_array_equal(indptr, patterns[0][1])
    with pytest.raises(ValueError, match="grid"):
        rr.at(assemble(Grid2D(nx=nx, ny=ny, nu=0.2), ops.param))


# ------------------------------------------------- Jacobian-product kernel

def product_matrix(kind, cols, n_global, rng, n_out):
    """An ``M`` over the local columns: dense, or CSR as a row selection
    (the global-to-local restriction, as under HR), the identity, or
    random."""
    if kind == "dense":
        return rng.normal(size=(cols.size, n_out))
    if kind == "rows":
        return sp.identity(n_global, format="csr")[cols]
    if kind == "identity":
        return sp.identity(cols.size, format="csr")
    return sp.random(cols.size, n_out, density=0.3, format="csr",
                     random_state=rng)


@pytest.mark.parametrize("row_set", ["full", "hr", "u-only", "v-only"])
def test_jacobian_product_kernel_matches_jacobian_times_M(row_set):
    g = Grid2D(nx=60, ny=8)
    part = build_partition(g, 2, 2)
    n = g.nnode
    rng = np.random.default_rng(len(row_set))
    ops_built = assemble(g, ParameterPoint(40.0, 6.0))
    ops = assemble(g, ParameterPoint(4321.0, 17.5))
    x_global = rng.normal(size=g.ndof)
    x_zero_half = x_global.copy()
    x_zero_half[rng.random(g.ndof) < 0.5] = 0.0
    for sub, M_kind in itertools.product(
            part.subdomains, ["dense", "rows", "identity", "random"]):
        rows = {"full": sub.res_rows,
                "hr": np.sort(rng.choice(sub.res_rows, 60, replace=False)),
                "u-only": sub.res_rows[sub.res_rows < n],
                "v-only": sub.res_rows[sub.res_rows >= n]}[row_set]
        cols = rng.permutation(part.referenced_cols(rows))
        rr = RestrictedResidual(ops_built, rows, cols)
        # a constant M's terms are computed once, before the boundary data
        # is rebound, and reused at every point
        M_const = product_matrix(M_kind, cols, g.ndof, rng, 12)
        const = rr.product_terms(M_const)
        rr = rr.at(ops)
        patterns = []
        for x in (x_global[cols], np.zeros(cols.size), x_zero_half[cols],
                  100.0 * rng.normal(size=cols.size)):
            M_call = product_matrix(M_kind, cols, g.ndof, rng, 7)
            for M, terms in ((M_const, const),
                             (M_call, rr.product_terms(M_call))):
                r, JM = rr.residual_and_product(x, terms)
                assert np.array_equal(r, rr.residual(x))
                assert JM.shape == (rows.size, M.shape[1])
                if M_kind == "dense":
                    assert isinstance(JM, np.ndarray)
                else:
                    assert isinstance(JM, sp.csr_matrix)
                    assert JM.has_sorted_indices
                    if M is M_const:
                        patterns.append((JM.indices, JM.indptr))
                    JM = JM.toarray()
                for J in (rr.jacobian(x),
                          sparse_formula_jacobian(ops, rows, cols, x)):
                    ref = J @ M
                    ref = ref.toarray() if sp.issparse(ref) else ref
                    assert (np.linalg.norm(JM - ref)
                            <= 1e-12 * np.linalg.norm(ref))
        # a sparse product keeps one pattern at every point, zeros included
        for indices, indptr in patterns[1:]:
            np.testing.assert_array_equal(indices, patterns[0][0])
            np.testing.assert_array_equal(indptr, patterns[0][1])
        # four points, two M, each through both residual paths
        assert rr.rows_evaluated == 16 * rows.size
    with pytest.raises(ValueError, match="one row per local column"):
        rr.product_terms(np.zeros((cols.size + 1, 2)))
    with pytest.raises(ValueError, match="one row per local column"):
        rr.product_terms(sp.identity(cols.size + 1, format="csr"))


def test_sparse_products_share_a_read_only_pattern():
    g = Grid2D(nx=24, ny=6)
    part = build_partition(g, 2, 2)
    ops = assemble(g, ParameterPoint(4321.0, 17.5))
    sub = part.subdomains[0]
    rr = subdomain_residual(ops, sub)
    terms = rr.product_terms(sp.identity(rr.n_cols, format="csr"))
    zero = np.zeros(rr.n_cols)
    x = np.random.default_rng(4).normal(size=rr.n_cols)
    J0 = rr.residual_and_product(zero, terms)[1]
    want = rr.residual_and_product(x, terms)[1].toarray()
    # the zero state's product holds explicit zeros; dropping them in place
    # would rewrite the index arrays every later product shares
    assert np.any(J0.data == 0)
    with pytest.raises(ValueError):
        J0.eliminate_zeros()
    J = rr.residual_and_product(x, terms)[1]
    np.testing.assert_array_equal(J.toarray(), want)
    assert not J.indices.flags.writeable
    # read-only conversions and products still work
    v = np.random.default_rng(5).normal(size=rr.n_cols)
    w = np.random.default_rng(6).normal(size=rr.n_rows)
    np.testing.assert_array_equal(J.tocoo().toarray(), want)
    np.testing.assert_array_equal(J.tocsc().toarray(), want)
    np.testing.assert_allclose(J @ v, want @ v, rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(J.T @ w, want.T @ w, rtol=1e-13, atol=1e-13)
    np.testing.assert_array_equal(J[5:40].toarray(), want[5:40])
    # a copy owns its index arrays
    J0 = J0.copy()
    J0.eliminate_zeros()
    np.testing.assert_array_equal(J0.toarray(),
                                  rr.residual_and_product(zero, terms)[1]
                                  .toarray())
