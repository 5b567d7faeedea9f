"""Split the monolithic problem into coupled subdomains.

An algebraic decomposition of the discrete residual: every equation
(row) is assigned to exactly one subdomain, and the unknowns each
subdomain reads are split into interior ones (read by that subdomain
only) and interface ones (shared with a neighbor).  Shared unknowns
are duplicated per subdomain and glued back together with linear
compatibility constraints built from ports -- maximal groups of
interface unknowns shared by the same set of subdomains.

Run:  python demos/02_partition_and_constraints.py
"""

import numpy as np

from ddrom import (
    Grid2D,
    ParameterPoint,
    assemble,
    assemble_fom_constraints,
    build_partition,
    residual,
    solve_monolithic,
)
from ddrom.partition import RestrictedResidual

grid = Grid2D(nx=40, ny=8)
part = build_partition(grid, 2, 2)

print(f"{part.n_sub} subdomains")
for sub in part.subdomains:
    print(f"  subdomain {sub.index}: {sub.n_interior} interior dofs, "
          f"{sub.n_interface} interface dofs, {sub.n_res} residual rows")

# Ports: each is a set of interface columns shared by the same subdomain
# set.  A port with m members contributes (m - 1) * size constraint rows.
for port in part.ports.ports:
    print(f"  port {port.index}: {port.size} columns shared by "
          f"subdomains {list(port.members)}")

# The compatibility constraints hold exactly for any restriction of a
# monolithic state: sum_i A_i x_i^Gamma = 0.
p = ParameterPoint(2000.0, 12.0)
x, _ = solve_monolithic(grid, p)
A = assemble_fom_constraints(part.ports)
mismatch = sum(A.blocks[i] @ part.restrict(i, x)[1]
               for i in range(part.n_sub))
print(f"constraint rows: {A.n_rows}")
print(f"constraint residual on a monolithic solve: "
      f"{np.linalg.norm(mismatch):.3e}")

# Each subdomain evaluates its own residual rows from only the unknowns
# it references; stacking the blocks reproduces the monolithic residual.
ops = assemble(grid, p)
full = np.zeros(grid.ndof)
for sub in part.subdomains:
    cols = np.concatenate([sub.interior_cols, sub.interface_cols])
    block = RestrictedResidual(ops, sub.res_rows, cols)
    full[sub.res_rows] = block.residual(x[cols])
ref = residual(ops, x)
print(f"stacked block residual matches monolithic: "
      f"{np.linalg.norm(full - ref):.3e}")
