"""Algebraic domain decomposition: index sets, ports, constraints.

A partition assigns every residual row to exactly one subdomain (geometric
node ownership) and classifies every state column per subdomain as
*interior* (referenced only by that subdomain's rows) or *interface*
(referenced by at least one other subdomain as well).  Ports are the
equivalence classes of interface columns under "referenced by exactly the
same set of subdomains"; compatibility constraints chain the duplicated
port copies pairwise.

Everything is derived from the structural Jacobian sparsity pattern, so the
same machinery works for any square system -- the Burgers wrapper just
feeds it the 5-point-stencil pattern and the grid-block row ownership.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .burgers import Grid2D, structural_pattern
from .burgers import RestrictedResidual  # noqa: F401 (imported from here too)


@dataclass(frozen=True, eq=False)
class Subdomain:
    """Index sets of one subdomain (all global, sorted ascending)."""

    index: int
    res_rows: np.ndarray
    interior_cols: np.ndarray
    interface_cols: np.ndarray

    @property
    def n_res(self) -> int:
        return self.res_rows.size

    @property
    def n_interior(self) -> int:
        return self.interior_cols.size

    @property
    def n_interface(self) -> int:
        return self.interface_cols.size


@dataclass(frozen=True, eq=False)
class Port:
    """A maximal set of interface columns shared by one subdomain set."""

    index: int
    cols: np.ndarray          # sorted global column indices
    members: tuple            # sorted subdomain indices, len >= 2

    @property
    def size(self) -> int:
        return self.cols.size


class PortTable:
    """All ports plus the member-local position maps realizing P_i^j."""

    def __init__(self, ports, subdomains):
        self.ports = list(ports)
        self._n_interface = {s.index: s.n_interface for s in subdomains}
        # positions[(j, i)][t] = position of port j's t-th column inside
        # subdomain i's sorted interface column list
        self.positions = {}
        by_index = {s.index: s for s in subdomains}
        for port in self.ports:
            for i in port.members:
                gam = by_index[i].interface_cols
                pos = np.searchsorted(gam, port.cols)
                if np.any(pos >= gam.size) or np.any(gam[pos] != port.cols):
                    raise ValueError(
                        f"port {port.index} columns missing from subdomain "
                        f"{i} interface")
                self.positions[(port.index, i)] = pos
        self._q = {}
        for port in self.ports:
            for i in port.members:
                self._q.setdefault(i, []).append(port.index)
        for i in self._q:
            self._q[i].sort()

    @property
    def n_ports(self) -> int:
        return len(self.ports)

    def ports_of(self, i):
        """Q(i): indices of the ports subdomain ``i`` participates in."""
        return list(self._q.get(i, []))

    def interface_size(self, i) -> int:
        return self._n_interface[i]

    def member_positions(self, j, i) -> np.ndarray:
        """Local positions of port ``j`` inside subdomain ``i``'s interface."""
        return self.positions[(j, i)]

    def validate(self):
        """Exact partition laws: disjointness and per-subdomain coverage."""
        seen = set()
        for port in self.ports:
            cols = set(port.cols.tolist())
            if cols & seen:
                raise AssertionError("ports overlap")
            seen |= cols
        for i, n_gam in self._n_interface.items():
            total = sum(self.ports[j].size for j in self.ports_of(i))
            if total != n_gam:
                raise AssertionError(
                    f"subdomain {i}: port sizes sum to {total}, interface "
                    f"has {n_gam}")


def partition_from_pattern(pattern: sp.spmatrix, row_owner: np.ndarray):
    """Decompose an arbitrary square structural pattern.

    Parameters
    ----------
    pattern : sparse boolean matrix, square
        Structural Jacobian support (row r references column c iff nonzero).
    row_owner : integer array, one entry per row
        Owning subdomain of each residual row; ids must be 0..nsub-1 with
        every id present.

    Returns
    -------
    (subdomains, port_table)
    """
    pattern = sp.csr_matrix(pattern)
    n = pattern.shape[0]
    if pattern.shape[1] != n:
        raise ValueError("pattern must be square")
    row_owner = np.asarray(row_owner)
    if row_owner.shape != (n,):
        raise ValueError("row_owner must have one entry per row")
    nsub = int(row_owner.max()) + 1
    counts = np.bincount(row_owner, minlength=nsub)
    if np.any(counts == 0):
        raise ValueError("degenerate subdomain with zero residual rows")

    # share[c, i]: some row of subdomain i references column c (structural
    # entries, explicit zeros included)
    refs = sp.csr_matrix((np.ones(pattern.nnz), pattern.indices,
                          pattern.indptr), shape=(n, n))
    owner = sp.csr_matrix((np.ones(n), (np.arange(n), row_owner)),
                          shape=(n, nsub))
    share = (refs.T @ owner).toarray() > 0
    n_sharing = share.sum(axis=1)
    if np.any(n_sharing == 0):
        raise ValueError(f"column {int(np.argmax(n_sharing == 0))} "
                         "referenced by no residual row")
    shared = n_sharing > 1

    subdomains = [Subdomain(
        index=i,
        res_rows=np.flatnonzero(row_owner == i).astype(np.int64),
        interior_cols=np.flatnonzero(share[:, i] & ~shared),
        interface_cols=np.flatnonzero(share[:, i] & shared),
    ) for i in range(nsub)]

    # ports: group shared columns by their exact sharing set; ids ordered by
    # each group's smallest column so the numbering is deterministic
    shared_cols = np.flatnonzero(shared)
    sets, first, group = np.unique(share[shared], axis=0, return_index=True,
                                   return_inverse=True)
    group = group.ravel()
    ports = [Port(index=j, cols=shared_cols[group == g],
                  members=tuple(np.flatnonzero(sets[g]).tolist()))
             for j, g in enumerate(np.argsort(first))]

    table = PortTable(ports, subdomains)
    table.validate()
    return subdomains, table


class Partition:
    """A built decomposition of the Burgers FOM on a given grid."""

    def __init__(self, grid: Grid2D, nsub_x: int, nsub_y: int):
        if nsub_x < 1 or nsub_y < 1:
            raise ValueError("need at least one subdomain per direction")
        if nsub_x > grid.nx or nsub_y > grid.ny:
            raise ValueError("more subdomains than grid nodes per direction")
        self.grid = grid
        self.nsub_x = nsub_x
        self.nsub_y = nsub_y
        self.pattern = structural_pattern(grid).tocsr()
        self.row_owner = self._node_ownership()
        self.subdomains, self.ports = partition_from_pattern(
            self.pattern, self.row_owner)

    def _node_ownership(self) -> np.ndarray:
        nx, ny = self.grid.nx, self.grid.ny
        wx = nx // self.nsub_x
        wy = ny // self.nsub_y
        ii = np.arange(nx)
        jj = np.arange(ny)
        si = np.minimum(ii // wx, self.nsub_x - 1)
        sj = np.minimum(jj // wy, self.nsub_y - 1)
        node_owner = (sj[:, None] * self.nsub_x + si[None, :]).ravel()
        return np.concatenate([node_owner, node_owner])

    @property
    def n_sub(self) -> int:
        return self.nsub_x * self.nsub_y

    def referenced_cols(self, rows) -> np.ndarray:
        """Sorted global columns structurally referenced by these rows."""
        cols = self.pattern[np.asarray(rows)].indices
        return np.unique(cols).astype(np.int64)

    def restrict(self, i: int, x: np.ndarray):
        """Restrict a global state to ``(x_i_interior, x_i_interface)``."""
        sub = self.subdomains[i]
        return x[sub.interior_cols], x[sub.interface_cols]

    def report(self) -> str:
        lines = [f"partition {self.nsub_x}x{self.nsub_y} on grid "
                 f"{self.grid.nx}x{self.grid.ny} (N = {self.grid.ndof})"]
        for s in self.subdomains:
            lines.append(f"  subdomain {s.index}: rows {s.n_res}, "
                         f"interior {s.n_interior}, interface {s.n_interface}")
        for p in self.ports.ports:
            lines.append(f"  port {p.index}: {p.size} columns, "
                         f"members {p.members}")
        return "\n".join(lines)


@dataclass(eq=False)
class ConstraintMatrix:
    """Signed-incidence compatibility constraints (one +1, one -1 per row)."""

    matrix: sp.csr_matrix
    blocks: list                      # per-subdomain column slices A_i

    @property
    def n_rows(self) -> int:
        return self.matrix.shape[0]


def _chain_rows(pt: PortTable, nsub, block_sizes, position_of):
    """Shared chained-row construction used by both constraint variants."""
    offsets = np.concatenate([[0], np.cumsum(block_sizes)])
    rows, cols, vals = [], [], []
    r = 0
    for port in pt.ports:
        for i_a, i_b in zip(port.members[:-1], port.members[1:]):
            pos_a = position_of(port, i_a)
            pos_b = position_of(port, i_b)
            for t in range(pos_a.size):
                rows += [r, r]
                cols += [offsets[i_a] + pos_a[t], offsets[i_b] + pos_b[t]]
                vals += [1.0, -1.0]
                r += 1
    mat = sp.csr_matrix((vals, (rows, cols)),
                        shape=(r, int(offsets[-1])))
    blocks = [mat[:, offsets[i]:offsets[i + 1]].tocsr() for i in range(nsub)]
    return mat, blocks


def assemble_fom_constraints(pt: PortTable) -> ConstraintMatrix:
    """FOM-level constraint matrix ``A`` on stacked interface states.

    For each port with members ``i_1 < ... < i_m`` the port columns are
    chained pairwise, giving ``(m - 1) * N_j^p`` rows of exactly one +1 and
    one -1; the full matrix has row count ``N_A = sum_j (|P(j)|-1) N_j^p``
    and full row rank.
    """
    nsub = len(pt._n_interface)
    sizes = [pt.interface_size(i) for i in range(nsub)]
    mat, blocks = _chain_rows(
        pt, nsub, sizes, lambda port, i: pt.member_positions(port.index, i))
    return ConstraintMatrix(matrix=mat, blocks=blocks)


def assemble_rom_constraints(pt: PortTable, latent_port_dims) -> ConstraintMatrix:
    """ROM-level constraints on stacked port-latent coordinates.

    ``latent_port_dims`` maps port index -> n_j^p (list or dict).  Each
    subdomain's reduced interface vector is the concatenation of its ports'
    latent blocks in ascending port order.
    """
    dims = {j: int(latent_port_dims[j]) for j in range(pt.n_ports)}
    for j, port in enumerate(pt.ports):
        if not 1 <= dims[j] <= port.size:
            raise ValueError(
                f"port {j}: latent dim {dims[j]} outside [1, {port.size}]")

    nsub = len(pt._n_interface)
    layout = {}
    sizes = []
    for i in range(nsub):
        off = 0
        entries = []
        for j in pt.ports_of(i):
            entries.append((j, off, dims[j]))
            off += dims[j]
        layout[i] = entries
        sizes.append(off)

    def position_of(port, i):
        for j, off, d in layout[i]:
            if j == port.index:
                return np.arange(off, off + d)
        raise KeyError((port.index, i))

    mat, blocks = _chain_rows(pt, nsub, sizes, position_of)
    return ConstraintMatrix(matrix=mat, blocks=blocks)


def build_partition(grid: Grid2D, nsub_x: int, nsub_y: int) -> Partition:
    """Decompose the Burgers FOM grid into ``nsub_x x nsub_y`` subdomains."""
    return Partition(grid, nsub_x, nsub_y)
