"""POD bases via thin SVD and the linear decoder/encoder maps they induce."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp

#: singular values at or below this multiple of sigma_1 are treated as zero
RANK_TOL = 1e-12


@dataclass(eq=False)
class PodBasis:
    """Orthonormal basis with the singular values that selected it."""

    Phi: np.ndarray = field(repr=False)
    sigma: np.ndarray                  # retained singular values
    discarded_energy: float            # sum of discarded sigma^2
    total_energy: float

    @property
    def n(self) -> int:
        return self.Phi.shape[1]


def pod(X: np.ndarray, tol: float | None = None,
        fixed_n: int | None = None) -> PodBasis:
    """Left singular basis of ``X`` truncated by energy or fixed size.

    Exactly one of ``tol`` (energy criterion: smallest ``n`` with
    ``sum_{j<=n} sigma_j^2 >= (1 - tol) * sum_j sigma_j^2``) and ``fixed_n``
    must be given.  Numerically zero singular values
    (``sigma <= 1e-12 * sigma_1``) are never retained.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.size == 0:
        raise ValueError("empty snapshot matrix")
    if not np.any(X):
        raise ValueError("all-zero snapshot matrix")
    if (tol is None) == (fixed_n is None):
        raise ValueError("give exactly one of tol= and fixed_n=")

    U, s, _ = scipy.linalg.svd(X, full_matrices=False)
    energies = s**2
    total = float(energies.sum())
    n_numeric = int(np.sum(s > RANK_TOL * s[0]))

    if fixed_n is not None:
        if not 1 <= fixed_n <= min(X.shape):
            raise ValueError(f"fixed_n={fixed_n} outside [1, {min(X.shape)}]")
        n = min(fixed_n, n_numeric)
    else:
        if not 0.0 < tol < 1.0:
            raise ValueError("energy tolerance must lie in (0, 1)")
        cum = np.cumsum(energies)
        n = int(np.searchsorted(cum, (1.0 - tol) * total) + 1)
        n = min(n, n_numeric)

    return PodBasis(Phi=U[:, :n].copy(), sigma=s[:n].copy(),
                    discarded_energy=float(energies[n:].sum()),
                    total_energy=total)


class LinearMap:
    """Linear decoder ``g(xh) = Phi @ xh`` with encoder ``Phi.T`` .

    The Jacobian is the constant matrix ``Phi``: dense for POD bases, CSR
    when ``Phi`` is given sparse (the decomposed FOM's identities), also
    after ``restrict_outputs``.  Shares its call surface with the
    autoencoder maps so solvers can treat both uniformly.
    """

    def __init__(self, Phi):
        if sp.issparse(Phi):
            self.Phi = sp.csr_matrix(Phi, dtype=float)
        else:
            self.Phi = np.atleast_2d(np.asarray(Phi, dtype=float))

    @property
    def ambient_dim(self) -> int:
        return self.Phi.shape[0]

    @property
    def latent_dim(self) -> int:
        return self.Phi.shape[1]

    def decode(self, xhat):
        return self.Phi @ xhat

    def encode(self, x):
        return self.Phi.T @ x

    def jacobian(self, xhat=None):
        return self.Phi

    def decode_and_jacobian(self, xhat):
        return self.Phi @ xhat, self.Phi

    def restrict_outputs(self, rows) -> "LinearMap":
        """The map keeping only the selected output rows."""
        return LinearMap(self.Phi[np.asarray(rows), :])


def port_interface_basis(port_table, port_bases: dict, i: int) -> np.ndarray:
    """Interface basis of subdomain ``i`` assembled from its port bases
    (anything with a ``Phi``: a ``PodBasis`` or a ``LinearMap``).

    Rows follow the subdomain's sorted interface columns; latent columns are
    the ports' latent blocks in ascending port order (the same layout the
    ROM constraint matrices use).  Because ports partition the interface,
    the result has exactly orthonormal columns.
    """
    ports = port_table.ports_of(i)
    if not ports:
        raise ValueError(f"subdomain {i} has no ports")
    n_rows = port_table.interface_size(i)
    n_cols = sum(port_bases[j].Phi.shape[1] for j in ports)
    Phi = np.zeros((n_rows, n_cols))
    off = 0
    for j in ports:
        block = port_bases[j].Phi
        pos = port_table.member_positions(j, i)
        Phi[pos, off:off + block.shape[1]] = block
        off += block.shape[1]
    return Phi
