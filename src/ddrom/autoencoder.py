"""Shallow, wide, sparse autoencoders with analytic decoder Jacobians.

Architecture (single hidden layer each way):

    encoder  h(x)  = W2h @ act(W1h @ normalize(x) + b1h)
    decoder  g(xh) = denormalize(W2g @ act(W1g @ xh + b1g))

``W2g`` (outputs x hidden) and ``W1h`` (hidden x inputs) are sparse with a
three-banded mask pattern; ``W1g`` and ``W2h`` are small dense matrices.
Training is plain mini-batch Adam on the reconstruction MSE of normalized
snapshots, with gradients computed only on the mask support.

The decoder's evaluation path fixes its floating-point summation order to
one that survives row subsetting (hidden layer as a per-unit ``einsum``
contraction over the latent axis, output layer as a CSR row sweep), which
is what makes hyper-reduction subnets bitwise-identical to the rows they
replace.  :meth:`Autoencoder.decode_and_jacobian` evaluates the hidden
layer once and both outputs in one CSR product; ``decode`` and
``jacobian`` share its hidden-layer routine and return the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from .errors import ConvergenceError
from .snapshots import NormalizationStats, split_columns

BATCH_SIZE = 32         # snapshot columns per Adam mini-batch
LEARNING_RATE = 1e-3    # initial Adam step size
PLATEAU_FACTOR = 0.1    # learning-rate factor per validation plateau
PLATEAU_PATIENCE = 50   # epochs without improvement before an lr drop
EARLY_STOP_PATIENCE = 300  # epochs without improvement before stopping
VAL_FRACTION = 0.1      # share of snapshot columns held out for validation


def _act(tag, z, s=None):
    """Activation at ``z``; ``s`` is ``expit(z)`` if already computed.
    ``expit(z)`` stays an unnamed temporary, which numpy reuses for the
    product: on training batches a named one costs a fresh allocation."""
    if tag == "swish":
        return z * (expit(z) if s is None else s)
    if tag == "sigmoid":
        return expit(z) if s is None else s
    raise ValueError(f"unknown activation {tag!r}")


def _act_deriv(tag, z, s=None):
    s = expit(z) if s is None else s
    if tag == "swish":
        return s * (1.0 + z * (1.0 - s))
    if tag == "sigmoid":
        return s * (1.0 - s)
    raise ValueError(f"unknown activation {tag!r}")


@dataclass(frozen=True, eq=False)
class BandedMask:
    """Three-banded sparsity pattern for the wide decoder layer.

    Row ``r`` of the ``n_out x width`` pattern carries bands of ``band``
    consecutive nonzeros starting at columns ``r*shift + k*band*shift`` for
    ``k in (-1, 0, 1)``; entries falling outside ``[0, width)`` are clipped.
    The width is ``n_out * shift``, which reproduces the reference
    (rows, width, nnz) triples this layout is validated against.
    """

    n_out: int
    band: int
    shift: int
    width: int
    rows: np.ndarray = field(repr=False)
    cols: np.ndarray = field(repr=False)

    @property
    def nnz(self) -> int:
        return self.rows.size

    def to_csr(self) -> sp.csr_matrix:
        return sp.csr_matrix(
            (np.ones(self.nnz), (self.rows, self.cols)),
            shape=(self.n_out, self.width))


def build_mask(n_out: int, band: int, shift: int) -> BandedMask:
    """Deterministic three-banded mask; see :class:`BandedMask`."""
    if n_out < 1 or band < 1 or shift < 1:
        raise ValueError("n_out, band, shift must all be >= 1")
    width = n_out * shift
    # the bands of one row never overlap (shift >= 1) and the middle one
    # holds column r*shift < width, so every row keeps 1..3*band ascending
    # columns
    offsets = np.add.outer(np.array([-1, 0, 1]) * band * shift,
                           np.arange(band)).ravel()
    cols = np.arange(n_out, dtype=np.int64)[:, None] * shift + offsets
    keep = (cols >= 0) & (cols < width)
    return BandedMask(n_out=n_out, band=band, shift=shift, width=width,
                      rows=np.nonzero(keep)[0].astype(np.int64),
                      cols=cols[keep])


@dataclass(eq=False)
class Autoencoder:
    """A trained (or assembled) sparse autoencoder; weights are mutable
    during training and should be treated as frozen afterwards."""

    W1h: sp.csr_matrix = field(repr=False)    # hidden x inputs, sparse
    b1h: np.ndarray = field(repr=False)
    W2h: np.ndarray = field(repr=False)       # latent x hidden, dense
    W1g: np.ndarray = field(repr=False)       # hidden x latent, dense
    b1g: np.ndarray = field(repr=False)
    W2g: sp.csr_matrix = field(repr=False)    # outputs x hidden, sparse
    activation: str = "swish"
    norm: NormalizationStats | None = None
    mask: BandedMask | None = None

    @property
    def ambient_dim(self) -> int:
        return self.W2g.shape[0]

    @property
    def latent_dim(self) -> int:
        return self.W1g.shape[1]

    @property
    def width(self) -> int:
        return self.W2g.shape[1]

    def parameter_count(self) -> int:
        """Stored parameters: both sparse layers, both dense, both biases."""
        return (self.W1h.nnz + self.W2g.nnz
                + self.W2h.size + self.W1g.size
                + self.b1h.size + self.b1g.size)

    # -- evaluation ------------------------------------------------------

    def _hidden_decoder(self, xhat: np.ndarray):
        """``(z, s)``: the hidden pre-activation and ``expit(z)``.

        ``einsum`` contracts each hidden unit's row on its own (BLAS
        ``W1g @ xhat`` may block rows together), so a unit's value does
        not depend on which other units are kept.
        """
        xhat = np.asarray(xhat, dtype=float)
        if xhat.shape != (self.latent_dim,):
            raise ValueError("latent vector has wrong length")
        z = np.einsum("hk,k->h", self.W1g, xhat)
        z += self.b1g
        return z, expit(z)

    def decode(self, xhat: np.ndarray) -> np.ndarray:
        a = _act(self.activation, *self._hidden_decoder(xhat))
        raw = self.W2g @ a          # CSR row sweep, storage order
        return raw * self.norm.scale + self.norm.shift

    def encode(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.ambient_dim,):
            raise ValueError("ambient vector has wrong length")
        xn = (x - self.norm.shift) / self.norm.scale
        a = _act(self.activation, self.W1h @ xn + self.b1h)
        return self.W2h @ a

    def jacobian(self, xhat: np.ndarray) -> np.ndarray:
        """Analytic decoder Jacobian, shape (ambient_dim, latent_dim)."""
        zp = _act_deriv(self.activation, *self._hidden_decoder(xhat))
        inner = self.W2g @ (zp[:, None] * self.W1g)
        return inner * self.norm.scale[:, None]

    def decode_and_jacobian(self, xhat: np.ndarray):
        """``(decode(xhat), jacobian(xhat))``, bitwise, from one hidden
        layer and one CSR product over ``[a | zp * W1g]``."""
        z, s = self._hidden_decoder(xhat)
        a, zp = _act(self.activation, z, s), _act_deriv(self.activation, z, s)
        H = np.empty((a.size, 1 + self.latent_dim))
        H[:, 0] = a
        np.multiply(zp[:, None], self.W1g, out=H[:, 1:])
        out = self.W2g @ H          # per column the same sweep as above
        scale = self.norm.scale
        return out[:, 0] * scale + self.norm.shift, out[:, 1:] * scale[:, None]


@dataclass(frozen=True)
class TrainConfig:
    """Training length and seed (Adam and its schedule: see above)."""

    epochs: int = 2000
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be positive")


def _init_autoencoder(mask: BandedMask, n: int, activation: str,
                      norm: NormalizationStats, rng) -> Autoencoder:
    N, w = mask.n_out, mask.width

    W2g = mask.to_csr()
    row_nnz = np.diff(W2g.indptr)
    bound = 1.0 / np.sqrt(np.maximum(row_nnz, 1))
    W2g.data = rng.uniform(-1, 1, size=W2g.nnz) * np.repeat(bound, row_nnz)

    W1h = sp.csr_matrix(
        (np.ones(mask.nnz), (mask.cols, mask.rows)), shape=(w, N))
    hrow_nnz = np.diff(W1h.indptr)
    hbound = 1.0 / np.sqrt(np.maximum(hrow_nnz, 1))
    W1h.data = rng.uniform(-1, 1, size=W1h.nnz) * np.repeat(hbound, hrow_nnz)

    W2h = rng.uniform(-1, 1, size=(n, w)) / np.sqrt(w)
    W1g = rng.uniform(-1, 1, size=(w, n)) / np.sqrt(n)
    return Autoencoder(W1h=W1h, b1h=np.zeros(w), W2h=W2h, W1g=W1g,
                       b1g=np.zeros(w), W2g=W2g, activation=activation,
                       norm=norm, mask=mask)


def _banded_gradient(W: sp.csr_matrix, mask: BandedMask, wide_rows: bool):
    """``grad(P, Q)``: ``sum_b P[i, b] Q[k, b]`` for every stored entry
    ``(i, k)`` of the layer ``W`` masked by ``mask``, in CSR order, bitwise
    ``np.einsum("kb,kb->k", P[i], Q[k])`` over the gathered rows.

    The wide index (``i`` if ``wide_rows``, else ``k``) is ``shift`` times
    the narrow one ``r`` plus one of the mask's ``3 band`` offsets, so one
    einsum pairs the narrow operand with a strided view of the zero-padded
    wide one whose ``[k, j, r]`` is wide row ``r shift + (k - 1) band shift
    + j``.  Two index arrays, built here once, pick the sums into CSR
    order.
    """
    band, shift = mask.band, mask.shift
    bs = band * shift
    offsets = (np.array([-1, 0, 1])[:, None] * bs + np.arange(band)).ravel()
    coo = W.tocoo()
    wide, narrow = (coo.row, coo.col) if wide_rows else (coo.col, coo.row)
    pick = np.searchsorted(offsets, wide - shift * narrow)

    def grad(P, Q):
        wide_op, narrow_op = (P, Q) if wide_rows else (Q, P)
        # an F-ordered batch would take einsum's other inner loop
        narrow_op = np.ascontiguousarray(narrow_op)
        n, B = narrow_op.shape
        padded = np.zeros((2 * bs + n * shift + band - 1, B))
        padded[bs:bs + wide_op.shape[0]] = wide_op
        row = padded.strides[0]
        view = np.lib.stride_tricks.as_strided(
            padded, shape=(3, band, n, B),
            strides=(bs * row, row, shift * row, padded.strides[1]))
        sums = (np.einsum("kjrb,rb->kjr", view, narrow_op) if wide_rows
                else np.einsum("rb,kjrb->kjr", narrow_op, view))
        return sums.reshape(3 * band, n)[pick, narrow]

    return grad


class _Adam:
    def __init__(self, shapes, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.b1, self.b2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = [np.zeros(s) for s in shapes]
        self.v = [np.zeros(s) for s in shapes]

    def step(self, params, grads):
        self.t += 1
        c1 = 1.0 - self.b1**self.t
        c2 = 1.0 - self.b2**self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= self.b1
            m += (1 - self.b1) * g
            v *= self.b2
            v += (1 - self.b2) * g * g
            p -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


def train(X: np.ndarray, mask: BandedMask, n: int,
          cfg: TrainConfig = TrainConfig(), activation: str = "swish"):
    """Train an autoencoder on raw snapshot columns.

    Returns ``(autoencoder, history)`` where history holds per-epoch train
    and validation losses, the LR trajectory, and the restored best epoch.
    Deterministic for a fixed config seed.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    N, n_mu = X.shape
    if N != mask.n_out:
        raise ValueError("mask rows must match snapshot dimension")
    if n_mu < 2:
        raise ValueError("need at least two snapshot columns")
    if not 1 <= n < N:
        raise ValueError("latent dimension must satisfy 1 <= n < N")

    train_idx, val_idx = split_columns(n_mu, cfg.seed,
                                       1.0 - VAL_FRACTION)
    norm = NormalizationStats.from_snapshots(X[:, train_idx])
    Xn = norm.normalize(X)
    Xtr = Xn[:, train_idx]
    Xva = Xn[:, val_idx]

    rng = np.random.default_rng(cfg.seed)
    ae = _init_autoencoder(mask, n, activation, norm, rng)

    grad_W2g = _banded_gradient(ae.W2g, mask, wide_rows=False)
    grad_W1h = _banded_gradient(ae.W1h, mask, wide_rows=True)

    params = [ae.W2g.data, ae.W1h.data, ae.W2h, ae.W1g, ae.b1g, ae.b1h]
    opt = _Adam([p.shape for p in params], LEARNING_RATE)

    # the forward pass keeps expit(Z) for the backward pass's derivative
    def forward_loss(Xb):
        Z1 = ae.W1h @ Xb + ae.b1h[:, None]
        S1 = expit(Z1)
        A1 = _act(activation, Z1, S1)
        XH = ae.W2h @ A1
        Z2 = ae.W1g @ XH + ae.b1g[:, None]
        S2 = expit(Z2)
        A2 = _act(activation, Z2, S2)
        Y = ae.W2g @ A2
        R = Y - Xb
        loss = float(np.sum(R * R) / Xb.shape[1])
        return loss, (Xb, Z1, S1, A1, XH, Z2, S2, A2, R)

    def backward(cache):
        Xb, Z1, S1, A1, XH, Z2, S2, A2, R = cache
        B = Xb.shape[1]
        dY = (2.0 / B) * R
        gW2g = grad_W2g(dY, A2)
        dA2 = ae.W2g.T @ dY
        dZ2 = dA2 * _act_deriv(activation, Z2, S2)
        gW1g = dZ2 @ XH.T
        gb1g = dZ2.sum(axis=1)
        dXH = ae.W1g.T @ dZ2
        gW2h = dXH @ A1.T
        dA1 = ae.W2h.T @ dXH
        dZ1 = dA1 * _act_deriv(activation, Z1, S1)
        gW1h = grad_W1h(dZ1, Xb)
        gb1h = dZ1.sum(axis=1)
        return [gW2g, gW1h, gW2h, gW1g, gb1g, gb1h]

    history = {"train_loss": [], "val_loss": [], "lr": [], "best_epoch": 0}
    best_val = np.inf
    best_weights = None
    since_improve = 0
    since_plateau = 0

    for epoch in range(cfg.epochs):
        order = rng.permutation(Xtr.shape[1])
        epoch_loss = 0.0
        for start in range(0, order.size, BATCH_SIZE):
            batch = Xtr[:, order[start:start + BATCH_SIZE]]
            loss, cache = forward_loss(batch)
            if not np.isfinite(loss):
                raise ConvergenceError(
                    f"training diverged (non-finite loss) at epoch {epoch}")
            grads = backward(cache)
            opt.step(params, grads)
            epoch_loss += loss * batch.shape[1]
        epoch_loss /= Xtr.shape[1]
        val_loss, _ = forward_loss(Xva)

        history["train_loss"].append(epoch_loss)
        history["val_loss"].append(val_loss)
        history["lr"].append(opt.lr)

        if val_loss < best_val:
            best_val = val_loss
            best_weights = [np.array(p, copy=True) for p in params]
            history["best_epoch"] = epoch
            since_improve = 0
            since_plateau = 0
        else:
            since_improve += 1
            since_plateau += 1
        if since_plateau >= PLATEAU_PATIENCE:
            opt.lr *= PLATEAU_FACTOR
            since_plateau = 0
        if since_improve >= EARLY_STOP_PATIENCE:
            break

    if best_weights is not None:
        ae.W2g.data[:] = best_weights[0]
        ae.W1h.data[:] = best_weights[1]
        ae.W2h[:] = best_weights[2]
        ae.W1g[:] = best_weights[3]
        ae.b1g[:] = best_weights[4]
        ae.b1h[:] = best_weights[5]
    return ae, history


def assemble_srpc_interface(port_table, port_aes: dict, i: int) -> Autoencoder:
    """Block-assemble subdomain ``i``'s interface autoencoder from port nets.

    Latent layout: the ports' latent blocks in ascending port order (shared
    with the ROM constraint assembly).  Outputs are scattered to the
    subdomain's interface positions, so two subdomains sharing a port decode
    identical port values from identical port latents.
    """
    ports = port_table.ports_of(i)
    if not ports:
        raise ValueError(f"subdomain {i} is not a member of any port")
    nets = [port_aes[j] for j in ports]
    missing = [j for j, net in zip(ports, nets) if net is None]
    if missing:
        raise ValueError(f"missing port nets: {missing}")
    tags = {net.activation for net in nets}
    if len(tags) != 1:
        raise ValueError("port nets must share one activation")

    N = port_table.interface_size(i)
    width = sum(net.width for net in nets)
    n_lat = sum(net.latent_dim for net in nets)

    W1g = np.zeros((width, n_lat))
    b1g = np.zeros(width)
    b1h = np.zeros(width)
    W2h = np.zeros((n_lat, width))
    shift = np.zeros(N)
    scale = np.ones(N)

    w_off = 0
    l_off = 0
    w2g_blocks = []
    w1h_blocks = []
    for j, net in zip(ports, nets):
        w, nl = net.width, net.latent_dim
        pos = port_table.member_positions(j, i)
        W1g[w_off:w_off + w, l_off:l_off + nl] = net.W1g
        b1g[w_off:w_off + w] = net.b1g
        b1h[w_off:w_off + w] = net.b1h
        W2h[l_off:l_off + nl, w_off:w_off + w] = net.W2h

        scatter = sp.csr_matrix(
            (np.ones(pos.size), (pos, np.arange(pos.size))),
            shape=(N, pos.size))
        w2g_blocks.append(scatter @ net.W2g)
        w1h_blocks.append(net.W1h @ scatter.T)
        shift[pos] = net.norm.shift
        scale[pos] = net.norm.scale
        w_off += w
        l_off += nl

    W2g = sp.hstack(w2g_blocks, format="csr")
    W1h = sp.vstack(w1h_blocks, format="csr")
    return Autoencoder(W1h=W1h, b1h=b1h, W2h=W2h, W1g=W1g, b1g=b1g,
                       W2g=W2g, activation=nets[0].activation,
                       norm=NormalizationStats(shift=shift, scale=scale),
                       mask=None)


def save_net(path, net: Autoencoder) -> None:
    """Serialize one net: matrices in the binary format at ``path`` plus a
    key-value header next to it (dims, activation, mask, normalization)."""
    from . import binio
    from pathlib import Path
    if net.mask is None:
        raise ValueError("only masked nets are serialized; assembled "
                         "interface nets are rebuilt from their port nets")
    path = Path(path)
    h = net.W1h.tocsr()
    g = net.W2g.tocsr()
    binio.write_matrices(path, {
        "W1h_data": h.data, "W1h_indices": h.indices.astype(float),
        "W1h_indptr": h.indptr.astype(float),
        "b1h": net.b1h, "W2h": net.W2h,
        "W1g": net.W1g, "b1g": net.b1g,
        "W2g_data": g.data, "W2g_indices": g.indices.astype(float),
        "W2g_indptr": g.indptr.astype(float),
        "norm_shift": net.norm.shift, "norm_scale": net.norm.scale,
    })
    binio.write_meta(path.with_suffix(".txt"), {
        "ambient_dim": net.ambient_dim, "latent_dim": net.latent_dim,
        "width": net.width, "activation": net.activation,
        "mask_band": net.mask.band, "mask_shift": net.mask.shift,
        "normalization": "per-component shift/scale stored in matrices",
    })


def load_net(path) -> Autoencoder:
    """Inverse of :func:`save_net`; the rebuilt mask is bit-identical
    because the mask construction is deterministic in (N, band, shift)."""
    from . import binio
    from pathlib import Path
    path = Path(path)
    m = binio.read_matrices(path)
    hdr = binio.read_meta(path.with_suffix(".txt"))
    N = int(hdr["ambient_dim"])
    w = int(hdr["width"])
    mask = build_mask(N, int(hdr["mask_band"]), int(hdr["mask_shift"]))

    def csr(prefix, shape):
        return sp.csr_matrix(
            (m[f"{prefix}_data"].ravel(),
             m[f"{prefix}_indices"].ravel().astype(np.int64),
             m[f"{prefix}_indptr"].ravel().astype(np.int64)),
            shape=shape)

    return Autoencoder(
        W1h=csr("W1h", (w, N)), b1h=m["b1h"].ravel(),
        W2h=np.ascontiguousarray(m["W2h"]),
        W1g=np.ascontiguousarray(m["W1g"]), b1g=m["b1g"].ravel(),
        W2g=csr("W2g", (N, w)),
        activation=str(hdr["activation"]),
        norm=NormalizationStats(shift=m["norm_shift"].ravel(),
                                scale=m["norm_scale"].ravel()),
        mask=mask)
