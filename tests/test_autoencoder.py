"""Mask construction, forward/Jacobian paths, training, SRPC assembly."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from ddrom import autoencoder
from ddrom.autoencoder import (
    LEARNING_RATE,
    PLATEAU_FACTOR,
    Autoencoder,
    BandedMask,
    TrainConfig,
    _act,
    _act_deriv,
    _init_autoencoder,
    assemble_srpc_interface,
    build_mask,
    train,
)
from ddrom.burgers import Grid2D
from ddrom.errors import ConvergenceError
from ddrom.partition import build_partition
from ddrom.snapshots import NormalizationStats


def random_net(n_out, band, shift, n, seed, activation="swish"):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n_out, 8))
    norm = NormalizationStats.from_snapshots(X)
    mask = build_mask(n_out, band, shift)
    ae = _init_autoencoder(mask, n, activation, norm, rng)
    ae.b1g[:] = 0.1 * rng.normal(size=ae.b1g.size)
    ae.b1h[:] = 0.1 * rng.normal(size=ae.b1h.size)
    return ae


# -- mask ----------------------------------------------------------------


def test_mask_reference_sizes():
    # reference (rows, width, nnz) triples for band = shift = 5
    for n_out, width, nnz in [(5258, 26290, 78820), (1006, 5030, 15040)]:
        m = build_mask(n_out, 5, 5)
        assert m.width == width
        assert m.nnz == nnz
    assert build_mask(5760, 5, 5).width == 28800
    assert build_mask(5760, 5, 5).nnz == 86350


def test_mask_small_hand_case():
    # rows x width = 4 x 8 with band=shift=2: row r covers 2r-4..2r+5 clipped
    m = build_mask(4, 2, 2)
    got = {(r, c) for r, c in zip(m.rows, m.cols)}
    expected = set()
    for r in range(4):
        for k in (-1, 0, 1):
            for c in range(2 * r + 4 * k, 2 * r + 4 * k + 2):
                if 0 <= c < 8:
                    expected.add((r, c))
    assert got == expected


def test_mask_degenerate_and_invalid():
    m = build_mask(1, 1, 1)
    assert m.width == 1 and m.nnz == 1
    for bad in [(0, 1, 1), (1, 0, 1), (1, 1, 0)]:
        with pytest.raises(ValueError):
            build_mask(*bad)


@given(n_out=st.integers(3, 60), band=st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_mask_equal_band_shift_count(n_out, band):
    # with shift == band the clipped bands lose exactly 2*band^2 entries
    if n_out <= 2 * band:
        return
    m = build_mask(n_out, band, band)
    assert m.nnz == 3 * band * n_out - 2 * band * band
    assert np.all(np.bincount(m.rows, minlength=n_out) >= 1)
    assert m.cols.min() >= 0 and m.cols.max() < m.width
    assert len({(r, c) for r, c in zip(m.rows, m.cols)}) == m.nnz


def test_mask_rows_sorted_row_major():
    m = build_mask(9, 2, 3)
    order = np.lexsort((m.cols, m.rows))
    assert np.array_equal(order, np.arange(m.nnz))


def loop_mask(n_out, band, shift):
    """Reference: each row's three bands column by column, clipped to the
    width and de-duplicated, every row non-empty, sorted row-major."""
    width = n_out * shift
    rows, cols = [], []
    for r in range(n_out):
        taken = set()
        for k in (-1, 0, 1):
            start = r * shift + k * band * shift
            for c in range(start, start + band):
                if 0 <= c < width and c not in taken:
                    taken.add(c)
                    rows.append(r)
                    cols.append(c)
        if not taken:
            raise ValueError(f"mask row {r} would be empty")
    order = np.lexsort((cols, rows))
    return (np.asarray(rows, dtype=np.int64)[order],
            np.asarray(cols, dtype=np.int64)[order])


def test_mask_matches_per_column_loop():
    for n_out in range(1, 41):
        for band in range(1, 7):
            for shift in range(1, 7):
                m = build_mask(n_out, band, shift)
                rows, cols = loop_mask(n_out, band, shift)
                assert m.width == n_out * shift
                for got, ref in ((m.rows, rows), (m.cols, cols)):
                    assert got.dtype == ref.dtype
                    assert np.array_equal(got, ref)


# -- activations ---------------------------------------------------------


def test_activation_values():
    assert _act("swish", np.array(0.0)) == 0.0
    assert np.isclose(_act("swish", np.array(1.0)), 0.7310585786300049,
                      rtol=1e-15)
    assert _act("sigmoid", np.array(0.0)) == 0.5
    with pytest.raises(ValueError):
        _act("relu", np.array(1.0))


@pytest.mark.parametrize("tag", ["swish", "sigmoid"])
def test_activation_derivative_matches_fd(tag):
    z = np.linspace(-4, 4, 41)
    h = 1e-6
    fd = (_act(tag, z + h) - _act(tag, z - h)) / (2 * h)
    assert np.allclose(_act_deriv(tag, z), fd, atol=1e-8)


@pytest.mark.parametrize("tag", ["swish", "sigmoid"])
def test_activation_derivative_reuses_expit_bitwise(tag):
    # train's backward pass hands in the forward pass's expit(z)
    z = np.random.default_rng(0).standard_normal((7, 5)) * 6
    np.testing.assert_array_equal(_act_deriv(tag, z, expit(z)),
                                  _act_deriv(tag, z))
    np.testing.assert_array_equal(_act(tag, z, expit(z)), _act(tag, z))


# -- forward evaluation --------------------------------------------------


def test_zero_weights_decode_to_shift():
    ae = random_net(12, 2, 2, 3, seed=0)
    ae.W2g.data[:] = 0.0
    ae.b1g[:] = 0.0
    out = ae.decode(np.ones(3))
    assert np.array_equal(out, ae.norm.shift)


def test_encoder_decoder_shapes_and_validation():
    ae = random_net(15, 2, 3, 4, seed=1)
    x = np.random.default_rng(2).normal(size=15)
    xh = ae.encode(x)
    assert xh.shape == (4,)
    assert ae.decode(xh).shape == (15,)
    with pytest.raises(ValueError):
        ae.decode(np.zeros(5))
    with pytest.raises(ValueError):
        ae.encode(np.zeros(14))


@pytest.mark.parametrize("tag", ["swish", "sigmoid"])
def test_decoder_jacobian_matches_fd(tag):
    ae = random_net(30, 2, 2, 3, seed=3, activation=tag)
    xh = np.random.default_rng(4).normal(size=3)
    J = ae.jacobian(xh)
    fd = np.empty_like(J)
    h = 1e-6
    for d in range(3):
        e = np.zeros(3)
        e[d] = h
        fd[:, d] = (ae.decode(xh + e) - ae.decode(xh - e)) / (2 * h)
    assert np.linalg.norm(fd - J) <= 1e-6 * max(1.0, np.linalg.norm(J))


def test_decoder_rows_bitwise_invariant_under_subsetting():
    # keeping a subset of output rows must not change any kept value:
    # this is the property hyper-reduction subnets rely on
    ae = random_net(40, 3, 2, 4, seed=7)
    xh = np.random.default_rng(8).normal(size=4)
    full = ae.decode(xh)
    keep = np.array([0, 3, 11, 12, 29, 39])
    sub = Autoencoder(
        W1h=ae.W1h, b1h=ae.b1h, W2h=ae.W2h, W1g=ae.W1g, b1g=ae.b1g,
        W2g=ae.W2g[keep, :].tocsr(), activation=ae.activation,
        norm=NormalizationStats(shift=ae.norm.shift[keep],
                                scale=ae.norm.scale[keep]))
    assert np.array_equal(sub.decode(xh), full[keep])


@pytest.mark.parametrize("tag", ["swish", "sigmoid"])
def test_decode_and_jacobian_bitwise_equal_separate_calls(tag):
    # one hidden layer and one CSR product over [a | zp * W1g] give the
    # bits of the two separate calls, at every width and latent size
    rng = np.random.default_rng(21)
    shapes = [(7, 1, 1, 1), (40, 3, 2, 4), (97, 2, 3, 6), (134, 5, 5, 4),
              (163, 5, 5, 8)]
    for k, (n_out, band, shift, n) in enumerate(shapes):
        ae = random_net(n_out, band, shift, n, seed=30 + k, activation=tag)
        for _ in range(10):
            xh = 3.0 * rng.normal(size=n)
            g, J = ae.decode_and_jacobian(xh)
            assert g.shape == (n_out,) and J.shape == (n_out, n)
            assert np.array_equal(g, ae.decode(xh))
            assert np.array_equal(J, ae.jacobian(xh))
    with pytest.raises(ValueError, match="latent"):
        ae.decode_and_jacobian(np.zeros(n + 1))


# -- parameter counts ----------------------------------------------------


def test_parameter_count_formula():
    ae = random_net(18, 2, 2, 3, seed=9)
    m = ae.mask
    assert ae.parameter_count() == 2 * m.nnz + 2 * 3 * m.width + 2 * m.width


def test_interior_parameter_counts_across_partitions():
    # largest-subdomain interior nets, band = shift = 5, reference totals
    cases = [
        (23040, 9, 2_995_100),   # 1 x 1
        (11472, 6, 1_147_100),   # 2 x 1
        (5258, 6, 525_700),      # 2 x 2
        (2618, 6, 261_700),      # 4 x 2
        (1298, 6, 129_700),      # 8 x 2
    ]
    for n_out, n_lat, expected in cases:
        m = build_mask(n_out, 5, 5)
        assert 2 * m.nnz + 2 * n_lat * m.width + 2 * m.width == expected


def test_encoder_only_sparse_vs_dense_counts():
    # one subdomain of 5760 outputs, 4 latent dims: a dense hidden layer of
    # width 3*5760 stores ~100M parameters, the sparse layout ~230k
    n_out, n_lat = 5760, 4
    dense_width = 3 * n_out
    dense = n_out * dense_width + dense_width + n_lat * dense_width
    assert dense == 99_619_200
    m = build_mask(n_out, 5, 5)
    sparse = m.nnz + m.width + n_lat * m.width
    assert sparse == 230_350
    assert sparse < dense // 400


# -- training ------------------------------------------------------------


def bump_snapshots(n_out=24, n_mu=64):
    x = np.linspace(-1.0, 1.0, n_out)
    centers = np.linspace(-0.5, 0.5, n_mu)
    return np.exp(-((x[:, None] - centers[None, :]) ** 2) / 0.1)


def test_training_fits_smooth_one_parameter_family():
    X = bump_snapshots()
    mask = build_mask(24, 2, 2)
    cfg = TrainConfig(epochs=4000, seed=11)
    ae, history = train(X, mask, n=3, cfg=cfg)
    assert history["train_loss"][-1] < history["train_loss"][0]
    assert min(history["val_loss"]) < 1e-3
    # round-trip accuracy on a training column in ambient units
    col = X[:, 20]
    rec = ae.decode(ae.encode(col))
    assert np.linalg.norm(rec - col) <= 0.05 * np.linalg.norm(col)


def test_training_is_deterministic():
    X = bump_snapshots(n_out=16, n_mu=24)
    mask = build_mask(16, 2, 2)
    cfg = TrainConfig(epochs=120, seed=3)
    ae1, h1 = train(X, mask, n=2, cfg=cfg)
    ae2, h2 = train(X, mask, n=2, cfg=cfg)
    assert h1["train_loss"] == h2["train_loss"]
    assert h1["val_loss"] == h2["val_loss"]
    assert np.array_equal(ae1.W2g.data, ae2.W2g.data)
    assert np.array_equal(ae1.W1h.data, ae2.W1h.data)
    assert np.array_equal(ae1.W2h, ae2.W2h)
    assert np.array_equal(ae1.W1g, ae2.W1g)


def test_training_preserves_mask_pattern():
    X = bump_snapshots(n_out=16, n_mu=24)
    mask = build_mask(16, 2, 2)
    ae, _ = train(X, mask, n=2, cfg=TrainConfig(epochs=40, seed=5))
    assert np.array_equal(
        np.repeat(np.arange(16), np.diff(ae.W2g.indptr)), mask.rows)
    assert np.array_equal(ae.W2g.indices, mask.cols)
    W1h_ref = sp.csr_matrix(
        (np.ones(mask.nnz), (mask.cols, mask.rows)), shape=(mask.width, 16))
    assert np.array_equal(ae.W1h.indices, W1h_ref.indices)
    assert np.array_equal(ae.W1h.indptr, W1h_ref.indptr)


def test_training_restores_best_validation_weights():
    X = bump_snapshots(n_out=16, n_mu=24)
    mask = build_mask(16, 2, 2)
    cfg = TrainConfig(epochs=200, seed=7)
    ae, history = train(X, mask, n=2, cfg=cfg)
    best = history["best_epoch"]
    assert history["val_loss"][best] == min(history["val_loss"])
    # recompute the validation loss with the restored weights
    from ddrom.snapshots import split_columns
    _, val_idx = split_columns(X.shape[1], cfg.seed, 0.9)
    Xn = ae.norm.normalize(X)
    Z1 = ae.W1h @ Xn[:, val_idx] + ae.b1h[:, None]
    A1 = _act(ae.activation, Z1)
    Z2 = ae.W1g @ (ae.W2h @ A1) + ae.b1g[:, None]
    R = ae.W2g @ _act(ae.activation, Z2) - Xn[:, val_idx]
    loss = float(np.sum(R * R) / val_idx.size)
    assert np.isclose(loss, history["val_loss"][best], rtol=1e-12)


def test_training_lr_drops_on_plateau(monkeypatch):
    X = bump_snapshots(n_out=16, n_mu=24)
    mask = build_mask(16, 2, 2)
    monkeypatch.setattr(autoencoder, "PLATEAU_PATIENCE", 20)
    monkeypatch.setattr(autoencoder, "EARLY_STOP_PATIENCE", 400)
    cfg = TrainConfig(epochs=400, seed=9)
    _, history = train(X, mask, n=2, cfg=cfg)
    lrs = sorted(set(history["lr"]), reverse=True)
    assert lrs[0] == LEARNING_RATE
    if len(lrs) > 1:
        assert np.isclose(lrs[1], LEARNING_RATE * PLATEAU_FACTOR)


def test_training_raises_on_nonfinite_loss():
    X = bump_snapshots(n_out=16, n_mu=24)
    X[3, 5] = np.nan
    with pytest.raises(ConvergenceError, match="epoch"):
        train(X, build_mask(16, 2, 2), n=2, cfg=TrainConfig(epochs=5))


def test_training_input_validation():
    X = bump_snapshots(n_out=16, n_mu=24)
    mask = build_mask(16, 2, 2)
    with pytest.raises(ValueError):
        train(X, build_mask(15, 2, 2), n=2)
    with pytest.raises(ValueError):
        train(X, mask, n=0)
    with pytest.raises(ValueError):
        train(X, mask, n=16)
    with pytest.raises(ValueError):
        train(X[:, :1], mask, n=2)
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)


# -- SRPC interface assembly ---------------------------------------------


@pytest.fixture(scope="module")
def srpc_setup():
    part = build_partition(Grid2D(8, 6), 2, 2)
    pt = part.ports
    rng = np.random.default_rng(31)
    nets = {}
    for port in pt.ports:
        n_lat = max(1, min(port.size - 1, 2))
        X = rng.normal(size=(port.size, 6))
        norm = NormalizationStats.from_snapshots(X)
        net = _init_autoencoder(build_mask(port.size, 2, 3), n_lat,
                                "sigmoid", norm, rng)
        net.b1g[:] = 0.1 * rng.normal(size=net.b1g.size)
        net.b1h[:] = 0.1 * rng.normal(size=net.b1h.size)
        nets[port.index] = net
    return part, nets


def latent_blocks(pt, nets, i):
    offs, total = [], 0
    for j in pt.ports_of(i):
        offs.append((j, total, nets[j].latent_dim))
        total += nets[j].latent_dim
    return offs, total


def test_srpc_assembly_matches_portwise_sum(srpc_setup):
    part, nets = srpc_setup
    pt = part.ports
    for i in range(4):
        ae = assemble_srpc_interface(pt, nets, i)
        offs, total = latent_blocks(pt, nets, i)
        assert ae.latent_dim == total
        assert ae.ambient_dim == pt.interface_size(i)
        xh = np.random.default_rng(100 + i).normal(size=total)
        direct = np.zeros(pt.interface_size(i))
        for j, off, nl in offs:
            direct[pt.member_positions(j, i)] = nets[j].decode(
                xh[off:off + nl])
        assert np.allclose(ae.decode(xh), direct, atol=1e-12)


def test_srpc_shared_port_slices_agree_bitwise(srpc_setup):
    part, nets = srpc_setup
    pt = part.ports
    rng = np.random.default_rng(41)
    port_latents = {j: rng.normal(size=nets[j].latent_dim)
                    for j in nets}
    decoded = {}
    for i in range(4):
        ae = assemble_srpc_interface(pt, nets, i)
        offs, total = latent_blocks(pt, nets, i)
        xh = np.zeros(total)
        for j, off, nl in offs:
            xh[off:off + nl] = port_latents[j]
        decoded[i] = ae.decode(xh)
    for port in pt.ports:
        ref = None
        for i in port.members:
            vals = decoded[i][pt.member_positions(port.index, i)]
            if ref is None:
                ref = vals
            else:
                assert np.array_equal(vals, ref)


def test_srpc_encoder_matches_portwise(srpc_setup):
    part, nets = srpc_setup
    pt = part.ports
    i = 2
    ae = assemble_srpc_interface(pt, nets, i)
    x = np.random.default_rng(51).normal(size=pt.interface_size(i))
    xh = ae.encode(x)
    offs, _ = latent_blocks(pt, nets, i)
    for j, off, nl in offs:
        expected = nets[j].encode(x[pt.member_positions(j, i)])
        assert np.allclose(xh[off:off + nl], expected, atol=1e-12)


def test_srpc_jacobian_is_scattered_blockdiagonal(srpc_setup):
    part, nets = srpc_setup
    pt = part.ports
    i = 1
    ae = assemble_srpc_interface(pt, nets, i)
    offs, total = latent_blocks(pt, nets, i)
    xh = np.random.default_rng(61).normal(size=total)
    J = ae.jacobian(xh)
    expected = np.zeros_like(J)
    for j, off, nl in offs:
        pos = pt.member_positions(j, i)
        expected[np.ix_(pos, np.arange(off, off + nl))] = nets[j].jacobian(
            xh[off:off + nl])
    assert np.allclose(J, expected, atol=1e-12)


def test_srpc_interface_decode_and_jacobian_bitwise(srpc_setup):
    part, nets = srpc_setup
    rng = np.random.default_rng(33)
    for i in range(4):
        ae = assemble_srpc_interface(part.ports, nets, i)
        xh = rng.normal(size=ae.latent_dim)
        g, J = ae.decode_and_jacobian(xh)
        assert np.array_equal(g, ae.decode(xh))
        assert np.array_equal(J, ae.jacobian(xh))


def test_srpc_assembly_validation(srpc_setup):
    part, nets = srpc_setup
    pt = part.ports
    broken = dict(nets)
    some_port = pt.ports_of(0)[0]
    broken[some_port] = None
    with pytest.raises(ValueError, match="missing"):
        assemble_srpc_interface(pt, broken, 0)
