"""Build and solve the linear (POD-based) DD ROM.

Each subdomain keeps a POD basis for its interior and interface states,
and the coupled problem becomes an equality-constrained least-squares
minimization of the stacked subdomain residuals.  Two ways to impose
compatibility between subdomains:

  * wfpc -- the full-order port constraints are compressed through a
    random Gaussian test matrix (weak constraints, generally nonlinear
    if the decoders are);
  * srpc -- each port gets its own shared basis, so constraints act
    directly on port latents and stay linear and exactly satisfiable.

Run:  python demos/04_linear_rom.py
"""

import time

import numpy as np

from ddrom import Grid2D, ParameterPoint, build_partition, solve_monolithic
from ddrom import snapshots
from ddrom.driver import build_lsrom, fit_initializer, solve_rom
from ddrom.sqp import SqpConfig

grid = Grid2D(nx=40, ny=8)
part = build_partition(grid, 2, 2)
params = snapshots.sample_grid(8, 6, a_range=(100.0, 8000.0),
                               lam_range=(8.0, 22.0))
snap = snapshots.generate(grid, params, part)

# Held-out test point: not on the 8 x 6 sampling grid.
p = ParameterPoint(3777.0, 14.3)

# One FOM and one ROM timing are each a few milliseconds and swing with
# the host's load, so the speedup printed is the median over repeated
# FOM/ROM solve pairs.
REPEATS = 11

for mode in ("wfpc", "srpc"):
    inst = build_lsrom(part, snap, n_int=8, n_gam=4, constraint=mode,
                       n_c=8 if mode == "wfpc" else None)
    inst = fit_initializer(inst, snap)
    speedups = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fom_state, _ = solve_monolithic(grid, p)
        fom_seconds = time.perf_counter() - t0
        sol, rec = solve_rom(inst, p, SqpConfig(tol=1e-6, max_iter=20),
                             fom_state=fom_state, fom_seconds=fom_seconds,
                             label=f"ls-{mode}")
        speedups.append(rec.speedup)
    print(f"{mode}: error = {sol.error:.3e}  iters = {rec.n_iter}  "
          f"median speedup(parallel model) over {REPEATS} solves = "
          f"{np.median(speedups):.1f}")

# The latent vector is tiny compared with the full state.  On a grid
# this small the FOM solve is already trivial, so speedups below 1 are
# normal; the ROM pays off at scale and with hyper-reduction (demo 06).
n_lat = sum(m.latent_dim for m in inst.interior_maps) + \
    sum(m.latent_dim for m in inst.interface_maps)
print(f"latent dofs: {n_lat}  vs full-order dofs: {grid.ndof}")
