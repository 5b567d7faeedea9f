"""Row sampling, weighting operators, and decoder subnet extraction."""

import itertools

import numpy as np
import pytest

from ddrom.autoencoder import Autoencoder, build_mask, _init_autoencoder
from ddrom.burgers import Grid2D, assemble, exact_state
from ddrom.hyper import (
    HrOperator,
    Subnet,
    extract_subnet,
    greedy_sample,
    hr_collocation,
    hr_gappy,
    hr_none,
    hr_rows_for_subdomain,
)
from ddrom.partition import RestrictedResidual, build_partition
from ddrom.snapshots import NormalizationStats


def loo_reconstruction_error(Phi, Z):
    """Sum over columns of the leave-one-out gappy reconstruction error."""
    Z = np.asarray(Z)
    total = 0.0
    for c in range(Phi.shape[1]):
        others = np.delete(np.arange(Phi.shape[1]), c)
        coef, *_ = np.linalg.lstsq(Phi[Z][:, others], Phi[Z, c], rcond=None)
        total += np.sum((Phi[:, c] - Phi[:, others] @ coef) ** 2)
    return total


# -- greedy sampling -----------------------------------------------------


def test_greedy_single_canonical_vector():
    e = np.zeros(9)
    e[4] = 1.0
    assert np.array_equal(greedy_sample(e[:, None], 1), [4])


def test_greedy_first_pick_is_largest_entry_of_first_column():
    rng = np.random.default_rng(0)
    Phi = rng.normal(size=(12, 3))
    rows = greedy_sample(Phi, 3)
    assert np.argmax(np.abs(Phi[:, 0])) in rows


def test_greedy_ties_break_to_lowest_row():
    Phi = np.array([[1.0], [1.0], [0.5]])
    assert np.array_equal(greedy_sample(Phi, 1), [0])


@pytest.mark.parametrize("seed", [1, 6, 7, 8, 9])
def test_greedy_matches_exhaustive_on_pinned_instances(seed):
    rng = np.random.default_rng(seed)
    Phi, _ = np.linalg.qr(rng.normal(size=(6, 2)))
    got = loo_reconstruction_error(Phi, greedy_sample(Phi, 2))
    best = min(loo_reconstruction_error(Phi, list(Z))
               for Z in itertools.combinations(range(6), 2))
    assert got <= best * (1 + 1e-10)


def test_greedy_near_optimal_across_instances():
    # greedy selection is not globally optimal, but should stay within a
    # modest factor of the exhaustive optimum on tiny instances
    for seed in range(25):
        rng = np.random.default_rng(seed)
        Phi, _ = np.linalg.qr(rng.normal(size=(6, 2)))
        got = loo_reconstruction_error(Phi, greedy_sample(Phi, 2))
        best = min(loo_reconstruction_error(Phi, list(Z))
                   for Z in itertools.combinations(range(6), 2))
        assert got <= 1.6 * best


def test_greedy_output_sorted_unique_and_deterministic():
    rng = np.random.default_rng(3)
    Phi = rng.normal(size=(40, 4))
    rows = greedy_sample(Phi, 17)
    assert rows.size == 17
    assert np.all(np.diff(rows) > 0)
    assert np.array_equal(rows, greedy_sample(Phi, 17))


def test_greedy_input_validation():
    Phi = np.random.default_rng(4).normal(size=(6, 3))
    with pytest.raises(ValueError):
        greedy_sample(Phi, 2)       # fewer samples than columns
    with pytest.raises(ValueError):
        greedy_sample(Phi, 7)       # more samples than rows


# -- weighting operators -------------------------------------------------


def test_mode_none_is_identity():
    hr = hr_none(8)
    v = np.arange(8.0)
    assert np.array_equal(hr.apply_B(v), v)
    assert np.array_equal(hr.rows, np.arange(8))
    assert np.array_equal(hr.matrix(), np.eye(8))
    assert hr.out_dim == 8


def test_collocation_selects_rows():
    hr = hr_collocation([1, 4, 6], 8)
    v = np.arange(8.0) ** 2
    assert np.array_equal(hr.apply_B(v), v[[1, 4, 6]])
    assert np.array_equal(hr.rows, [1, 4, 6])
    assert np.array_equal(hr.matrix() @ v, v[[1, 4, 6]])


def test_gappy_with_identity_sampling_is_transpose():
    rng = np.random.default_rng(5)
    Phi, _ = np.linalg.qr(rng.normal(size=(7, 3)))
    hr = hr_gappy(np.arange(7), Phi)
    v = rng.normal(size=7)
    assert np.allclose(hr.apply_B(v), Phi.T @ v, atol=1e-12)


def test_gappy_matches_dense_pseudoinverse_oracle():
    rng = np.random.default_rng(6)
    for trial in range(5):
        Phi, _ = np.linalg.qr(rng.normal(size=(12, 3)))
        rows = np.sort(rng.choice(12, size=6, replace=False))
        hr = hr_gappy(rows, Phi)
        Z = np.zeros((6, 12))
        Z[np.arange(6), rows] = 1.0
        B_dense = np.linalg.pinv(Z @ Phi) @ Z
        v = rng.normal(size=12)
        assert np.allclose(hr.apply_B(v), B_dense @ v, atol=1e-10)
        assert np.allclose(hr.matrix(), B_dense, atol=1e-10)


def test_gappy_exact_on_basis_span():
    rng = np.random.default_rng(7)
    Phi, _ = np.linalg.qr(rng.normal(size=(30, 4)))
    rows = greedy_sample(Phi, 10)
    hr = hr_gappy(rows, Phi)
    r = Phi @ rng.normal(size=4)
    rec = Phi @ hr.apply_B(r)
    assert np.linalg.norm(rec - r) <= 1e-8 * np.linalg.norm(r)


def test_gappy_rejects_rank_deficient_sampling():
    Phi = np.eye(6)[:, :2]
    with pytest.raises(ValueError, match="rank"):
        hr_gappy([2, 3], Phi)       # sampled block is all zero


def test_row_set_validation():
    with pytest.raises(ValueError):
        hr_collocation([], 5)
    with pytest.raises(ValueError):
        hr_collocation([0, 0, 1], 5)
    with pytest.raises(ValueError):
        hr_collocation([3, 1], 5)
    with pytest.raises(ValueError):
        hr_collocation([0, 5], 5)
    with pytest.raises(ValueError):
        hr_none(4).apply_B(np.zeros(3))


def test_apply_sampled_matrix_variants():
    rng = np.random.default_rng(8)
    M = rng.normal(size=(9, 4))
    Phi, _ = np.linalg.qr(rng.normal(size=(9, 2)))
    for hr in [hr_none(9), hr_collocation([0, 2, 5, 8], 9),
               hr_gappy(np.array([0, 2, 5, 8]), Phi)]:
        assert np.allclose(hr.apply_sampled(M[hr.rows]), hr.matrix() @ M,
                           atol=1e-12)


# -- subnets -------------------------------------------------------------


def make_net(seed, n_out=40, band=3, shift=2, n=4):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n_out, 8))
    ae = _init_autoencoder(build_mask(n_out, band, shift), n, "swish",
                           NormalizationStats.from_snapshots(X), rng)
    ae.b1g[:] = 0.1 * rng.normal(size=ae.b1g.size)
    return ae


def test_subnet_full_rows_equals_decoder():
    ae = make_net(10)
    sub = extract_subnet(ae, np.arange(40))
    assert np.array_equal(sub.hidden_idx, np.unique(ae.W2g.indices))
    xh = np.random.default_rng(11).normal(size=4)
    assert np.array_equal(sub.decode(xh), ae.decode(xh))


def test_subnet_bitwise_equality_on_random_points():
    ae = make_net(12)
    keep = np.array([0, 1, 7, 13, 22, 23, 24, 31, 38, 39])
    sub = extract_subnet(ae, keep)
    rng = np.random.default_rng(13)
    for _ in range(100):
        xh = rng.normal(size=4)
        assert np.array_equal(sub.decode(xh), ae.decode(xh)[keep])


def test_subnet_jacobian_rows_match():
    ae = make_net(14)
    keep = np.array([2, 9, 17, 33])
    sub = extract_subnet(ae, keep)
    xh = np.random.default_rng(15).normal(size=4)
    assert np.array_equal(sub.jacobian(xh), ae.jacobian(xh)[keep])


@pytest.mark.parametrize("n_out,band,shift,n", [
    (40, 3, 2, 4), (61, 2, 3, 3), (134, 5, 5, 4), (163, 5, 5, 8),
    (300, 5, 5, 8)])
def test_subnet_fused_rows_bitwise_equal_full_decoder(n_out, band, shift, n):
    # criterion 5 through the fused path: at every width and row subset,
    # subnet values and Jacobian rows are the full decoder's bits
    ae = make_net(n_out + n, n_out, band, shift, n)
    rng = np.random.default_rng(n_out)
    for size in (1, n_out // 7 + 1, n_out // 3, n_out - 1, n_out):
        keep = np.sort(rng.choice(n_out, size=size, replace=False))
        sub = extract_subnet(ae, keep)
        for _ in range(5):
            xh = 3.0 * rng.normal(size=n)
            g, J = ae.decode_and_jacobian(xh)
            g_sub, J_sub = sub.decode_and_jacobian(xh)
            assert np.array_equal(g_sub, g[keep])
            assert np.array_equal(J_sub, J[keep])
            assert np.array_equal(g_sub, sub.decode(xh))
            assert np.array_equal(J_sub, sub.jacobian(xh))


def test_subnet_is_a_row_restricted_autoencoder():
    # one decoder implementation: the subnet binds the autoencoder's own
    # evaluation functions, under the autoencoder's field names
    assert Subnet.decode is Autoencoder.decode
    assert Subnet.jacobian is Autoencoder.jacobian
    assert Subnet.decode_and_jacobian is Autoencoder.decode_and_jacobian
    ae = make_net(18)
    keep = np.array([5, 6, 21])
    sub = extract_subnet(ae, keep)
    assert isinstance(sub, Autoencoder)
    assert sub.W1h is None and sub.b1h is None and sub.W2h is None
    assert sub.ambient_dim == keep.size and sub.latent_dim == ae.latent_dim
    np.testing.assert_array_equal(sub.norm.scale, ae.norm.scale[keep])
    np.testing.assert_array_equal(sub.norm.shift, ae.norm.shift[keep])


def test_subnet_hidden_set_bound():
    ae = make_net(16)
    keep = np.array([4, 18, 30])
    sub = extract_subnet(ae, keep)
    assert sub.hidden_idx.size <= 3 * ae.mask.band * keep.size
    assert np.all(np.diff(sub.hidden_idx) > 0)


def test_subnet_validation():
    ae = make_net(17)
    with pytest.raises(ValueError):
        extract_subnet(ae, np.array([], dtype=int))
    with pytest.raises(ValueError):
        extract_subnet(ae, np.array([3, 1]))


# -- mapping sampled residual rows to decoder outputs --------------------


@pytest.fixture(scope="module")
def small_partition():
    grid = Grid2D(10, 6)
    return grid, build_partition(grid, 2, 2)


def test_hr_rows_full_sampling_gives_full_sets(small_partition):
    _, part = small_partition
    sub = part.subdomains[0]
    io, gio = hr_rows_for_subdomain(part, 0, np.arange(sub.n_res))
    assert np.array_equal(io, np.arange(sub.n_interior))
    assert np.array_equal(gio, np.arange(sub.n_interface))


def test_single_sampled_row_touches_few_entries(small_partition):
    _, part = small_partition
    sub = part.subdomains[1]
    for row in [0, 3, sub.n_res // 2, sub.n_res - 1]:
        io, gio = hr_rows_for_subdomain(part, 1, np.array([row]))
        assert 1 <= io.size + gio.size <= 10   # 5-point stencil, u and v


def test_union_of_needed_columns_covers_sampled_pattern(small_partition):
    grid, part = small_partition
    rng = np.random.default_rng(19)
    needed_global = []
    sampled_global = []
    for i, sub in enumerate(part.subdomains):
        z = np.sort(rng.choice(sub.n_res, size=10, replace=False))
        io, gio = hr_rows_for_subdomain(part, i, z)
        needed_global.append(sub.interior_cols[io])
        needed_global.append(sub.interface_cols[gio])
        sampled_global.append(sub.res_rows[z])
    needed = np.unique(np.concatenate(needed_global))
    pattern = part.pattern.tocsr()
    referenced = np.unique(pattern[np.concatenate(sampled_global)].indices)
    assert np.array_equal(needed, referenced)


def test_collocation_path_evaluates_only_sampled_rows(small_partition):
    grid, part = small_partition
    from ddrom.burgers import ParameterPoint
    p = ParameterPoint(100.0, 9.0)
    ops = assemble(grid, p)
    state = exact_state(grid, p)
    i = 2
    sub = part.subdomains[i]
    z = np.array([0, 5, 11, 17, 23])
    hr = hr_collocation(z, sub.n_res)

    all_cols = np.concatenate([sub.interior_cols, sub.interface_cols])
    full = RestrictedResidual(ops, sub.res_rows, all_cols).residual(
        state[all_cols])
    io, gio = hr_rows_for_subdomain(part, i, z)
    cols = np.concatenate([sub.interior_cols[io], sub.interface_cols[gio]])
    restricted = RestrictedResidual(ops, sub.res_rows[z], cols)
    local = np.concatenate([state[sub.interior_cols[io]],
                            state[sub.interface_cols[gio]]])
    assert np.allclose(restricted.residual(local), hr.apply_B(full),
                       atol=1e-13)
    assert restricted.rows_evaluated == z.size
