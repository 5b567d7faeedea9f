"""Hyper-reduction: residual row sampling, weighting operators, subnets.

Three weighting modes for a subdomain residual of length ``n_ambient``:

* ``none``         -- B = I: collocation over every row;
* ``collocation``  -- B = Z, only sampled rows evaluated;
* ``gappy``        -- B = pinv(Z @ Phi_r) @ Z, sampled rows recombined
                      through a residual POD basis.

Row sets come from a deterministic greedy sampler.  Decoder subnets
restrict a sparse autoencoder to the output rows hyper-reduction actually
needs; by construction they reproduce those rows bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from .autoencoder import Autoencoder


def greedy_sample(basis: np.ndarray, n_samples: int) -> np.ndarray:
    """Greedy residual-row selection.

    Columns of ``basis`` are processed cyclically; each step reconstructs
    the current column from the *other* columns using only the rows chosen
    so far (gappy least squares) and selects the unchosen row where the
    reconstruction error is largest in magnitude, lowest index on ties.
    Returns ``n_samples`` sorted unique row indices.
    """
    basis = np.atleast_2d(np.asarray(basis, dtype=float))
    n_rows, n_cols = basis.shape
    if n_cols < 1:
        raise ValueError("basis must have at least one column")
    if n_samples < n_cols:
        raise ValueError("need at least one sample per basis column")
    if n_samples > n_rows:
        raise ValueError("cannot sample more rows than the basis has")

    chosen: list[int] = []
    taken = np.zeros(n_rows, dtype=bool)
    for step in range(n_samples):
        c = step % n_cols
        others = np.delete(np.arange(n_cols), c)
        if chosen and others.size:
            sel = np.asarray(chosen)
            coef, *_ = np.linalg.lstsq(basis[sel][:, others],
                                       basis[sel, c], rcond=None)
            err = basis[:, c] - basis[:, others] @ coef
        else:
            err = basis[:, c]
        score = np.abs(err)
        score[taken] = -1.0
        pick = int(np.argmax(score))    # argmax takes the first max: lowest
        chosen.append(pick)             # index wins ties
        taken[pick] = True
    return np.sort(np.asarray(chosen, dtype=np.int64))


@dataclass(frozen=True, eq=False)
class HrOperator:
    """Residual weighting operator B for one subdomain."""

    mode: str
    n_ambient: int
    rows: np.ndarray = field(repr=False)          # sorted sample indices
    basis: np.ndarray | None = field(default=None, repr=False)
    weights: np.ndarray | None = field(default=None, repr=False)

    @property
    def out_dim(self) -> int:
        if self.mode == "gappy":
            return self.basis.shape[1]
        return self.rows.size

    def apply_B(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape[0] != self.n_ambient:
            raise ValueError("residual vector has wrong length")
        return self.apply_sampled(v[self.rows])

    def apply_sampled(self, v_sampled: np.ndarray) -> np.ndarray:
        """Weight a vector, or the rows of a dense matrix, that holds only
        the ``rows`` entries."""
        if self.mode == "gappy":
            return self.weights @ v_sampled
        return v_sampled

    def matrix(self) -> np.ndarray:
        """Dense B, for small instances and tests."""
        B = np.zeros((self.out_dim, self.n_ambient))
        if self.mode == "gappy":
            B[:, self.rows] = self.weights
        else:
            B[np.arange(self.rows.size), self.rows] = 1.0
        return B


def _check_rows(rows, n_ambient):
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        raise ValueError("sample row set is empty")
    if np.any(np.diff(rows) <= 0):
        raise ValueError("sample rows must be strictly increasing")
    if rows[0] < 0 or rows[-1] >= n_ambient:
        raise ValueError("sample rows out of range")
    return rows


def hr_none(n_ambient: int) -> HrOperator:
    return HrOperator(mode="none", n_ambient=n_ambient,
                      rows=np.arange(n_ambient, dtype=np.int64))


def hr_collocation(rows, n_ambient: int) -> HrOperator:
    return HrOperator(mode="collocation", n_ambient=n_ambient,
                      rows=_check_rows(rows, n_ambient))


def hr_gappy(rows, basis: np.ndarray) -> HrOperator:
    basis = np.atleast_2d(np.asarray(basis, dtype=float))
    rows = _check_rows(rows, basis.shape[0])
    sampled = basis[rows]
    if np.linalg.matrix_rank(sampled) < basis.shape[1]:
        raise ValueError("sampled residual basis is rank deficient")
    return HrOperator(mode="gappy", n_ambient=basis.shape[0], rows=rows,
                      basis=basis, weights=np.linalg.pinv(sampled))


@dataclass(eq=False)
class Subnet(Autoencoder):
    """Decoder restricted to output rows ``out_idx`` (and the hidden units
    ``hidden_idx`` they use); exact on those rows.  Encoder fields: None."""

    out_idx: np.ndarray = field(default=None, repr=False)
    hidden_idx: np.ndarray = field(default=None, repr=False)

    # own bindings of the inherited functions, wrappable on this class
    decode = Autoencoder.decode
    jacobian = Autoencoder.jacobian


def extract_subnet(ae: Autoencoder, out_idx) -> Subnet:
    """Restrict ``ae``'s decoder to output rows ``out_idx``.

    The kept hidden units are exactly those with a mask entry in some kept
    row, and both layers keep their per-element summation order, so the
    subnet output equals the corresponding full-decoder rows bitwise.
    """
    out_idx = np.asarray(out_idx, dtype=np.int64)
    if out_idx.size == 0:
        raise ValueError("output index set is empty")
    if np.any(np.diff(out_idx) <= 0):
        raise ValueError("output indices must be strictly increasing")
    rows = ae.W2g[out_idx, :].tocsr()
    hidden_idx = np.unique(rows.indices)
    # remap column indices in place: storage order (and therefore the
    # floating-point accumulation order of each row) is unchanged
    W2g = sp.csr_matrix(
        (rows.data, np.searchsorted(hidden_idx, rows.indices), rows.indptr),
        shape=(out_idx.size, hidden_idx.size))
    return Subnet(W1h=None, b1h=None, W2h=None, W1g=ae.W1g[hidden_idx, :],
                  b1g=ae.b1g[hidden_idx], W2g=W2g, activation=ae.activation,
                  norm=replace(ae.norm, shift=ae.norm.shift[out_idx],
                               scale=ae.norm.scale[out_idx]),
                  out_idx=out_idx, hidden_idx=hidden_idx)


def hr_rows_for_subdomain(partition, i: int, sample_rows):
    """Decoder outputs feeding the sampled residual rows of subdomain ``i``.

    ``sample_rows`` indexes the subdomain's local residual rows.  Returns
    ``(interior_out, interface_out)``: sorted local positions into the
    subdomain's interior and interface column orderings, read off the
    structural Jacobian pattern.
    """
    sub = partition.subdomains[i]
    sample_rows = np.asarray(sample_rows, dtype=np.int64)
    if sample_rows.size and (sample_rows.min() < 0
                             or sample_rows.max() >= sub.n_res):
        raise ValueError("sample rows out of range for subdomain")
    needed = np.zeros(partition.pattern.shape[1], dtype=bool)
    needed[partition.referenced_cols(sub.res_rows[sample_rows])] = True
    return (np.flatnonzero(needed[sub.interior_cols]),
            np.flatnonzero(needed[sub.interface_cols]))
