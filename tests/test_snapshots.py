"""Snapshot generation, normalization, and the binary matrix format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddrom import binio, burgers, snapshots
from ddrom.burgers import Grid2D, ParameterPoint, solve_monolithic
from ddrom.errors import FormatError
from ddrom.partition import build_partition
from ddrom.snapshots import (
    NormalizationStats,
    SnapshotSet,
    generate,
    load,
    sample_grid,
    save,
    split_columns,
)

from fom_reference import reference_jacobian_on_pattern, reference_newton


# ---------------------------------------------------------------- binary format

def test_binio_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    mats = {"alpha": rng.normal(size=(7, 3)),
            "beta": rng.normal(size=5),          # 1-D becomes a column
            "gamma_named_longer": rng.normal(size=(2, 9))}
    f1 = tmp_path / "a.bin"
    f2 = tmp_path / "b.bin"
    binio.write_matrices(f1, mats)
    back = binio.read_matrices(f1)
    assert list(back) == list(mats)
    np.testing.assert_array_equal(back["alpha"], mats["alpha"])
    np.testing.assert_array_equal(back["beta"], mats["beta"][:, None])
    binio.write_matrices(f2, back)
    assert f1.read_bytes() == f2.read_bytes()


def test_binio_is_little_endian_column_major(tmp_path):
    f = tmp_path / "m.bin"
    binio.write_matrices(f, {"m": np.array([[1.0, 3.0], [2.0, 4.0]])})
    raw = f.read_bytes()
    assert raw[:8] == b"DDNMROM1"
    # name record: u32 len, 'm', u64 2, u64 2, then column-major payload
    payload = raw[8 + 4 + 1 + 16:]
    vals = np.frombuffer(payload, dtype="<f8")
    np.testing.assert_array_equal(vals, [1.0, 2.0, 3.0, 4.0])


def test_binio_bad_magic_and_truncation(tmp_path):
    f = tmp_path / "bad.bin"
    f.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
    with pytest.raises(FormatError):
        binio.read_matrices(f)
    g = tmp_path / "trunc.bin"
    binio.write_matrices(g, {"x": np.ones((4, 4))})
    g.write_bytes(g.read_bytes()[:-9])
    with pytest.raises(FormatError):
        binio.read_matrices(g)


def test_meta_round_trip(tmp_path):
    f = tmp_path / "meta.txt"
    binio.write_meta(f, {"nx": 12, "note": "a = b = c"})
    back = binio.read_meta(f)
    assert back["nx"] == "12"
    assert back["note"] == "a = b = c"


# ---------------------------------------------------------------- param grid

def test_sample_grid_corners_and_counts():
    pts = sample_grid(2, 2)
    assert [(p.a, p.lam) for p in pts] == [
        (1.0, 5.0), (1.0, 25.0), (1e4, 5.0), (1e4, 25.0)]
    assert len(sample_grid(80, 80)) == 6400
    pts3 = sample_grid(80, 3)
    assert pts3[3].a - pts3[0].a == pytest.approx((1e4 - 1) / 79)


def test_sample_grid_sweeps_lambda_fastest():
    pts = sample_grid(3, 4)
    assert pts[0].a == pts[1].a == pts[2].a == pts[3].a
    assert pts[0].lam < pts[1].lam


# ---------------------------------------------------------------- normalization

def test_normalization_maps_to_unit_interval():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(20, 15)) * 7 + 3
    stats = NormalizationStats.from_snapshots(X)
    Xn = stats.normalize(X)
    assert Xn.min() >= -1 - 1e-12 and Xn.max() <= 1 + 1e-12
    assert np.allclose(Xn.max(axis=1), 1.0)
    np.testing.assert_allclose(
        Xn * stats.scale[:, None] + stats.shift[:, None], X, rtol=1e-14,
        atol=1e-12)


def test_normalization_constant_component():
    X = np.vstack([np.full(6, 2.5), np.linspace(0, 1, 6)])
    stats = NormalizationStats.from_snapshots(X)
    assert stats.scale[0] == 1.0
    assert stats.shift[0] == 2.5
    np.testing.assert_array_equal(stats.normalize(X)[0], np.zeros(6))


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 40), st.integers(0, 2**32 - 1))
def test_split_columns_partitions_everything(n, seed):
    tr, va = split_columns(n, seed)
    both = np.concatenate([tr, va])
    assert np.array_equal(np.sort(both), np.arange(n))
    assert va.size >= 1 and tr.size >= 1
    tr2, va2 = split_columns(n, seed)
    assert np.array_equal(tr, tr2) and np.array_equal(va, va2)


# ---------------------------------------------------------------- generation

@pytest.fixture(scope="module")
def small_sweep():
    grid = Grid2D(nx=10, ny=4)
    part = build_partition(grid, 2, 1)
    params = sample_grid(3, 3, a_range=(100.0, 5000.0),
                         lam_range=(6.0, 20.0))
    snap = generate(grid, params, part, tol=1e-9)
    return grid, part, snap


def test_generate_basic_shapes(small_sweep):
    grid, part, snap = small_sweep
    assert snap.n_mu == 9
    assert snap.states.shape == (grid.ndof, 9)
    for sub in part.subdomains:
        assert snap.interior[sub.index].shape == (sub.n_interior, 9)
        assert snap.interface[sub.index].shape == (sub.n_interface, 9)
    assert snap.grid == grid and snap.partition is part
    # every member's interface holds its ports' rows exactly
    for p in part.ports.ports:
        for i in p.members:
            pos = part.ports.member_positions(p.index, i)
            np.testing.assert_array_equal(snap.port[p.index],
                                          snap.interface[i][pos, :])


def test_generate_rejects_a_partition_of_another_grid():
    # both grids have 96 unknowns, so the other grid's index sets would
    # restrict these states without an error
    with pytest.raises(ValueError, match="partition's grid"):
        generate(Grid2D(8, 6), sample_grid(2, 2),
                 build_partition(Grid2D(12, 4), 2, 2))


def eager_restriction(part, states):
    """The restriction ``generate`` once stored: interior and interface
    rows of the states, and each port's rows read through every member's
    interface (all members must agree)."""
    interior = {s.index: states[s.interior_cols, :] for s in part.subdomains}
    interface = {s.index: states[s.interface_cols, :]
                 for s in part.subdomains}
    port = {}
    for pt in part.ports.ports:
        for i in pt.members:
            pos = part.ports.member_positions(pt.index, i)
            rows = interface[i][pos, :]
            ref = port.setdefault(pt.index, rows)
            assert ref.tobytes() == rows.tobytes()
    return {"interior": interior, "interface": interface, "port": port}


def assert_derived_bitwise(snap, reference):
    for name, ref in reference.items():
        got = getattr(snap, name)
        assert sorted(got) == sorted(ref), name
        for k, arr in ref.items():
            assert got[k].dtype == arr.dtype == np.float64
            assert got[k].shape == arr.shape
            assert got[k].tobytes() == arr.tobytes(), (name, k)


PARTITIONED_GRIDS = (
    [((nx, ny), sub) for nx in range(2, 7) for ny in range(2, 7)
     for sub in ((1, 2), (2, 1), (2, 2))]
    + [((60, 8), (2, 2)), ((120, 12), (2, 2))])


@pytest.mark.parametrize("shape, subs", PARTITIONED_GRIDS)
def test_derived_restrictions_equal_eager_restriction(shape, subs):
    part = build_partition(Grid2D(*shape), *subs)
    states = np.random.default_rng(shape[0] * 10 + shape[1]).normal(
        size=(part.grid.ndof, 5))
    snap = SnapshotSet(partition=part, params=[None] * 5, states=states,
                       residual={})
    assert_derived_bitwise(snap, eager_restriction(part, states))
    # built once, at first access
    assert snap.interior is snap.interior and snap.port is snap.port


def test_generate_residual_snapshot_counts(small_sweep):
    _, part, snap = small_sweep
    total = sum(snap.newton_iters)
    for sub in part.subdomains:
        assert snap.residual[sub.index].shape == (sub.n_res, total)


def test_generate_single_parameter_restriction():
    grid = Grid2D(nx=8, ny=4)
    part = build_partition(grid, 2, 1)
    p = ParameterPoint(2000.0, 12.0)
    snap = generate(grid, [p], part, tol=1e-10)
    x, _ = solve_monolithic(grid, p, tol=1e-10)
    np.testing.assert_array_equal(snap.states[:, 0], x)
    for sub in part.subdomains:
        np.testing.assert_array_equal(snap.interior[sub.index][:, 0],
                                      x[sub.interior_cols])


def test_generate_warm_vs_cold_agreement():
    grid = Grid2D(nx=8, ny=3)
    part = build_partition(grid, 2, 1)
    params = sample_grid(3, 3, a_range=(10.0, 1000.0), lam_range=(5.0, 15.0))
    tol = 1e-10
    warm = generate(grid, params, part, tol=tol)
    cold = np.column_stack([solve_monolithic(grid, p, tol=tol)[0]
                            for p in params])
    diff = np.abs(warm.states - cold).max()
    assert diff <= 10 * tol * max(1.0, np.abs(cold).max())


def test_generate_bitwise_with_sparse_formula_jacobian(monkeypatch):
    grid = Grid2D(nx=24, ny=6)
    part = build_partition(grid, 2, 2)
    params = sample_grid(3, 3)

    def arrays():
        snap = generate(grid, params, part)
        out = [snap.states, np.array(snap.newton_iters)]
        for group in (snap.interior, snap.interface, snap.port,
                      snap.residual):
            out += [group[k] for k in sorted(group)]
        return [a.tobytes() for a in out]

    got = arrays()
    monkeypatch.setattr(burgers, "jacobian", reference_jacobian_on_pattern)
    assert arrays() == got


@pytest.mark.parametrize("nx,ny,na", [(24, 6, 4), (60, 8, 3)])
def test_generate_bitwise_with_plain_colamd_newton(monkeypatch, nx, ny, na):
    # the warm-started sweep through the per-grid column orderings gives
    # byte for byte the snapshots of a Newton loop that runs COLAMD at
    # every factor
    burgers._fom_kernel.cache_clear()
    grid = Grid2D(nx, ny)
    part = build_partition(grid, 2, 2)
    params = sample_grid(na, na)

    def arrays():
        snap = generate(grid, params, part)
        out = [snap.states, np.array(snap.newton_iters)]
        out += [snap.residual[k] for k in sorted(snap.residual)]
        return [a.tobytes() for a in out]

    got = arrays()
    monkeypatch.setattr(snapshots, "solve_monolithic", reference_newton)
    assert arrays() == got


def test_save_load_round_trip(tmp_path, small_sweep):
    _, part, snap = small_sweep
    d1 = tmp_path / "one"
    save(snap, d1)
    back = load(d1)
    np.testing.assert_array_equal(back.states, snap.states)
    for i in snap.interior:
        np.testing.assert_array_equal(back.interior[i], snap.interior[i])
        np.testing.assert_array_equal(back.residual[i], snap.residual[i])
    assert back.newton_iters == snap.newton_iters
    assert [(p.a, p.lam) for p in back.params] == [
        (p.a, p.lam) for p in snap.params]
    # second save emits identical bytes
    d2 = tmp_path / "two"
    save(back, d2)
    assert (d1 / "snapshots.bin").read_bytes() == (d2 / "snapshots.bin").read_bytes()
    assert (d1 / "residuals.bin").read_bytes() == (d2 / "residuals.bin").read_bytes()


def test_save_writes_only_params_and_states(tmp_path, small_sweep):
    _, _, snap = small_sweep
    save(snap, tmp_path / "s")
    mats = binio.read_matrices(tmp_path / "s" / "snapshots.bin")
    assert list(mats) == ["params", "states"]
    assert mats["states"].tobytes() == snap.states.tobytes()
    assert list(binio.read_matrices(tmp_path / "s" / "residuals.bin")) == [
        f"residual_{i}" for i in sorted(snap.residual)]


def test_load_rejects_stored_restrictions(tmp_path, small_sweep):
    _, _, snap = small_sweep
    save(snap, tmp_path / "s")
    path = tmp_path / "s" / "snapshots.bin"
    mats = binio.read_matrices(path)
    mats["interior_0"] = snap.interior[0]
    binio.write_matrices(path, mats)
    with pytest.raises(FormatError, match="interior_0"):
        load(tmp_path / "s")


def test_loaded_set_derives_bitwise_the_same_matrices(tmp_path,
                                                      small_sweep):
    _, part, snap = small_sweep
    save(snap, tmp_path / "s")
    back = load(tmp_path / "s")
    assert back.grid == snap.grid
    assert (back.partition.nsub_x, back.partition.nsub_y) == (
        part.nsub_x, part.nsub_y)
    for mine, ref in zip(back.partition.subdomains, part.subdomains):
        for name in ("res_rows", "interior_cols", "interface_cols"):
            np.testing.assert_array_equal(getattr(mine, name),
                                          getattr(ref, name))
    assert len(back.partition.ports.ports) == len(part.ports.ports)
    for mine, ref in zip(back.partition.ports.ports, part.ports.ports):
        assert mine.members == ref.members
        np.testing.assert_array_equal(mine.cols, ref.cols)
    assert_derived_bitwise(back, {name: getattr(snap, name) for name in
                                  ("interior", "interface", "port",
                                   "residual")})
