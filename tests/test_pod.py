"""POD truncation rules, orthonormality, and port-assembled interface bases."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from ddrom.burgers import Grid2D
from ddrom.partition import assemble_fom_constraints, assemble_rom_constraints, build_partition
from ddrom.pod import LinearMap, pod, port_interface_basis


def matrix_with_singular_values(m, n, svals, seed=0):
    rng = np.random.default_rng(seed)
    U = scipy.linalg.qr(rng.normal(size=(m, m)))[0][:, :len(svals)]
    V = scipy.linalg.qr(rng.normal(size=(n, n)))[0][:, :len(svals)]
    return U @ np.diag(svals) @ V.T


def test_energy_criterion_arithmetic():
    # sigma = (2, 1, 0.1), nu = 0.01: cumulative 4, 5, 5.01 against
    # threshold 4.9599 -> smallest satisfying n is 2.
    X = matrix_with_singular_values(8, 6, [2.0, 1.0, 0.1])
    basis = pod(X, tol=0.01)
    assert basis.n == 2
    np.testing.assert_allclose(basis.sigma, [2.0, 1.0], rtol=1e-10)


def test_rank_one_snapshots():
    x = np.arange(1.0, 9.0)
    X = np.outer(x, [1.0, 2.0, -1.0])
    basis = pod(X, tol=1e-8)
    assert basis.n == 1
    recon = basis.Phi @ (basis.Phi.T @ X)
    np.testing.assert_allclose(recon, X, rtol=1e-12, atol=1e-12)


def test_projection_error_equals_tail_energy():
    rng = np.random.default_rng(42)
    X = rng.normal(size=(30, 10))
    s = scipy.linalg.svd(X, compute_uv=False)
    for n in (1, 3, 7):
        basis = pod(X, fixed_n=n)
        err = np.linalg.norm(X - basis.Phi @ (basis.Phi.T @ X), "fro") ** 2
        tail = np.sum(s[n:] ** 2)
        assert abs(err - tail) <= 1e-8 * tail
        assert abs(basis.discarded_energy - tail) <= 1e-8 * tail


def test_orthonormality_invariant():
    rng = np.random.default_rng(1)
    for seed in range(5):
        X = np.random.default_rng(seed).normal(size=(25, 12))
        basis = pod(X, fixed_n=6)
        G = basis.Phi.T @ basis.Phi
        assert np.abs(G - np.eye(6)).max() <= 1e-12


def test_pod_beats_random_orthonormal_bases():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(20, 8)) @ np.diag([10, 5, 2, 1, .5, .2, .1, .05])
    n = 3
    basis = pod(X, fixed_n=n)
    best = np.linalg.norm(X - basis.Phi @ (basis.Phi.T @ X), "fro")
    for trial in range(20):
        Q = scipy.linalg.qr(np.random.default_rng(100 + trial)
                            .normal(size=(20, n)), mode="economic")[0]
        other = np.linalg.norm(X - Q @ (Q.T @ X), "fro")
        assert best <= other + 1e-12


def test_pod_input_validation():
    with pytest.raises(ValueError):
        pod(np.zeros((4, 3)), tol=0.1)
    with pytest.raises(ValueError):
        pod(np.empty((0, 0)), tol=0.1)
    X = np.random.default_rng(0).normal(size=(5, 4))
    with pytest.raises(ValueError):
        pod(X, tol=0.1, fixed_n=2)
    with pytest.raises(ValueError):
        pod(X)
    with pytest.raises(ValueError):
        pod(X, fixed_n=0)
    with pytest.raises(ValueError):
        pod(X, fixed_n=5)


def test_linear_map_round_trips():
    X = np.random.default_rng(3).normal(size=(15, 9))
    basis = pod(X, fixed_n=4)
    g = LinearMap(basis.Phi)
    xhat = np.random.default_rng(4).normal(size=4)
    np.testing.assert_allclose(g.encode(g.decode(xhat)), xhat,
                               rtol=1e-13, atol=1e-13)
    err = sum(np.linalg.norm(X[:, k] - g.decode(g.encode(X[:, k]))) ** 2
              for k in range(X.shape[1]))
    assert abs(err - basis.discarded_energy) <= 1e-8 * basis.total_energy
    assert g.jacobian() is basis.Phi or np.array_equal(g.jacobian(), basis.Phi)
    sub = g.restrict_outputs([2, 5, 7])
    np.testing.assert_array_equal(sub.decode(xhat), g.decode(xhat)[[2, 5, 7]])


@pytest.fixture(scope="module")
def port_setup():
    grid = Grid2D(nx=12, ny=6)
    part = build_partition(grid, 2, 2)
    rng = np.random.default_rng(8)
    port_bases = {}
    dims = {}
    for p in part.ports.ports:
        n = max(1, min(p.size - 1, 3))
        Xp = rng.normal(size=(p.size, 12))
        port_bases[p.index] = pod(Xp, fixed_n=n)
        dims[p.index] = n
    return part, port_bases, dims


def test_port_interface_basis_single_port_is_permutation():
    grid = Grid2D(nx=14, ny=5)
    part = build_partition(grid, 2, 1)
    p = part.ports.ports[0]
    Xp = np.random.default_rng(0).normal(size=(p.size, 10))
    pb = pod(Xp, fixed_n=3)
    Phi = port_interface_basis(part.ports, {0: pb}, 0)
    pos = part.ports.member_positions(0, 0)
    np.testing.assert_array_equal(Phi[pos, :], pb.Phi)


def test_port_interface_basis_orthonormal(port_setup):
    part, port_bases, _ = port_setup
    for sub in part.subdomains:
        Phi = port_interface_basis(part.ports, port_bases, sub.index)
        G = Phi.T @ Phi
        assert np.abs(G - np.eye(G.shape[0])).max() <= 1e-12


def test_srpc_latents_give_fom_port_compatibility(port_setup):
    # Shared port latents must produce decoded interfaces that agree on the
    # FOM ports: sum_i A_i Phi_i^Gamma xhat_i^Gamma = 0.
    part, port_bases, dims = port_setup
    A = assemble_fom_constraints(part.ports)
    Ahat = assemble_rom_constraints(part.ports, dims)
    rng = np.random.default_rng(5)
    port_latent = {j: rng.normal(size=dims[j]) for j in dims}
    total = np.zeros(A.n_rows)
    stacked_latents = []
    for sub in part.subdomains:
        Phi = port_interface_basis(part.ports, port_bases, sub.index)
        xhat = np.concatenate([port_latent[j]
                               for j in part.ports.ports_of(sub.index)])
        stacked_latents.append(xhat)
        total += A.blocks[sub.index] @ (Phi @ xhat)
    # the shared latents satisfy the ROM constraints by construction
    np.testing.assert_allclose(
        Ahat.matrix @ np.concatenate(stacked_latents), 0.0, atol=1e-14)
    assert np.abs(total).max() <= 1e-12


def test_linear_map_decode_and_jacobian_matches_separate_calls():
    # dense (POD), CSR (the decomposed FOM's identities), a row
    # restriction of each, and the zero-output map of a block whose
    # sampled rows read no interior output
    rng = np.random.default_rng(4)
    Phi = rng.normal(size=(30, 5))
    Phi_sparse = sp.random(30, 5, density=0.3, format="csr", random_state=5)
    maps = [LinearMap(Phi), LinearMap(Phi_sparse),
            LinearMap(Phi).restrict_outputs([1, 4, 7]),
            LinearMap(Phi_sparse).restrict_outputs([0, 2, 29]),
            LinearMap(sp.identity(6, format="csr")),
            LinearMap(np.zeros((0, 5)))]
    for m in maps:
        x = rng.normal(size=m.latent_dim)
        g, J = m.decode_and_jacobian(x)
        assert g.shape == (m.ambient_dim,)
        assert np.array_equal(g, m.decode(x))
        ref = m.jacobian(x)
        assert sp.issparse(J) == sp.issparse(ref) == sp.issparse(m.Phi)
        assert J.shape == ref.shape
        if sp.issparse(J):
            assert (J != ref).nnz == 0
        else:
            assert np.array_equal(J, ref)
