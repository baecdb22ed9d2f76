import numpy as np
import pytest

from cosetkernel import dataset, kernel, noise

import oracle
from oracle import X, Z, haar_random_su2, rx, rz


def test_from_euler_identity():
    g = noise.from_euler(np.zeros((3, 3)))
    for f in g:
        np.testing.assert_allclose(f, np.eye(2), atol=1e-14)


def test_from_euler_pi_is_x():
    g = noise.from_euler([(np.pi, 0, 0)])
    np.testing.assert_allclose(g[0], -1j * X, atol=1e-14)


def test_from_euler_matches_matrix_product():
    # the closed form agrees with the product of the three rotations to
    # rounding; a (P, N, 3) stack gives the (P, N, 2, 2) stack of per-qubit
    # factors, each with the bits of its own one-triple call
    g = noise.from_euler([(0.3, 0.7, 0.1)])
    np.testing.assert_allclose(
        g[0], rx(0.3) @ rz(0.7) @ rx(0.1), rtol=0, atol=1e-15
    )
    angles = np.random.default_rng(5).uniform(-np.pi, np.pi, (4, 3, 3))
    stack = noise.from_euler(angles)
    assert stack.shape == (4, 3, 2, 2)
    for p in range(4):
        for j in range(3):
            t1, t2, t3 = angles[p, j]
            np.testing.assert_allclose(stack[p, j], rx(t1) @ rz(t2) @ rx(t3),
                                       rtol=0, atol=1e-15)
            assert np.array_equal(stack[p, j],
                                  noise.from_euler(angles[p, j][None])[0])


def test_from_euler_is_special_unitary():
    angles = np.random.default_rng(6).uniform(-np.pi, np.pi, (200, 8, 3))
    g = noise.from_euler(angles)
    identity = np.broadcast_to(np.eye(2), g.shape)
    np.testing.assert_allclose(g @ np.conj(np.swapaxes(g, -1, -2)), identity,
                               rtol=0, atol=1e-15)
    np.testing.assert_allclose(np.linalg.det(g), 1, rtol=0, atol=1e-15)


def test_from_euler_rejects_nonfinite():
    with pytest.raises(ValueError):
        noise.from_euler([(np.inf, 0, 0)])
    with pytest.raises(ValueError):
        noise.from_euler([0.1, 0.2, 0.3])


def test_from_pauli():
    g = oracle.from_pauli("II")
    np.testing.assert_allclose(g[0], np.eye(2))
    g = oracle.from_pauli("XZ")
    np.testing.assert_allclose(g[0], X)
    np.testing.assert_allclose(g[1], Z)
    with pytest.raises(ValueError):
        oracle.from_pauli("XQ")


def test_z_action_on_basis():
    z = oracle.from_pauli("Z")
    zero = oracle.zero_state(1)
    np.testing.assert_allclose(oracle.dense(z) @ zero, zero)
    one = np.array([0, 1], dtype=complex)
    np.testing.assert_allclose(oracle.dense(z) @ one, -one)


def test_compose_identity_and_inverse():
    rng = np.random.default_rng(0)
    g = haar_random_su2(rng, (3,))
    identity = np.broadcast_to(np.eye(2), (3, 2, 2))
    np.testing.assert_allclose(g @ identity, g, atol=1e-14)
    inverse = np.conj(np.swapaxes(g, -1, -2))
    np.testing.assert_allclose(g @ inverse, identity, atol=1e-12)
    psi = oracle.haar_random_state(8, rng)
    np.testing.assert_allclose(
        oracle.dense(inverse) @ (oracle.dense(g) @ psi), psi, atol=1e-12
    )


def test_homomorphism():
    rng = np.random.default_rng(1)
    g = haar_random_su2(rng, (3,))
    h = haar_random_su2(rng, (3,))
    psi = oracle.haar_random_state(8, rng)
    lhs = oracle.dense(g @ h) @ psi
    rhs = oracle.dense(g) @ (oracle.dense(h) @ psi)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_apply_matches_kronecker_oracle():
    # the Kronecker product acts with factor q on qubit q, qubit 0 being the
    # most significant bit of the basis index
    rng = np.random.default_rng(2)
    g = haar_random_su2(rng, (4,))
    psi = oracle.haar_random_state(16, rng)
    expected = psi.reshape(2, 2, 2, 2)
    for q, factor in enumerate(g):
        expected = np.moveaxis(
            np.tensordot(factor, expected, axes=(1, q)), 0, q
        )
    np.testing.assert_allclose(
        oracle.dense(g) @ psi, expected.reshape(-1), atol=1e-12
    )


def test_chain_generators_small():
    assert oracle.chain_generators(2) == ["XZ", "ZX"]
    assert oracle.chain_generators(3) == ["XZI", "ZXZ", "IZX"]
    with pytest.raises(ValueError):
        oracle.chain_generators(1)


@pytest.mark.parametrize("n", range(2, 11))
def test_generators_fix_fiducial_state(n):
    psi = oracle.fiducial_operator(np.zeros(n)) @ oracle.zero_state(n)
    for p in oracle.chain_generators(n):
        fixed = oracle.dense(oracle.from_pauli(p)) @ psi
        assert abs(abs(np.vdot(psi, fixed)) - 1) < 1e-10


def test_fiducial_two_qubits():
    psi = oracle.fiducial_operator(np.zeros(2)) @ oracle.zero_state(2)
    np.testing.assert_allclose(psi, [0.5, 0.5, 0.5, -0.5], atol=1e-12)


def test_fiducial_zero_offsets_is_ideal():
    # a kernel without offsets is the one with zero offsets on both sides
    points = dataset.points(oracle.generate(3, 2, np.random.default_rng(5)))
    ideal = kernel.kernel_matrix(points)
    offs = kernel.kernel_matrix(points, offsets=np.zeros((2, 3)))
    assert np.array_equal(ideal, offs)


def test_fiducial_offset_budget():
    # all offsets at the budget 2 eps / N keep the operators within eps
    eps = 0.05
    n = 3
    v = oracle.fiducial_operator(np.zeros(n))
    w = oracle.fiducial_operator(np.full(n, 2 * eps / n))
    assert oracle.operator_norm(v - w) <= eps + 1e-6


def test_fiducial_operator_unitary_and_consistent():
    # the dense preparation and the transfer chain agree on the overlap of
    # two differently offset fiducial states
    rng = np.random.default_rng(3)
    for n in (2, 4):
        prep = rng.uniform(-0.2, 0.2, n)
        other = rng.uniform(-0.2, 0.2, n)
        op = oracle.fiducial_operator(prep)
        np.testing.assert_allclose(op.conj().T @ op, np.eye(2**n), atol=1e-10)
        identity = np.broadcast_to(np.eye(2), (1, n, 2, 2))
        chain = kernel.transfer_amplitudes(identity, identity, prep, other)
        dense = np.vdot(
            op @ oracle.zero_state(n),
            oracle.fiducial_operator(other) @ oracle.zero_state(n),
        )
        assert abs(chain[0, 0] - dense) < 1e-12


def test_composed_factors_stay_unitary():
    rng = np.random.default_rng(4)
    g = noise.from_euler(rng.uniform(-np.pi, np.pi, (3, 3)))
    h = noise.from_euler(rng.uniform(-np.pi, np.pi, (3, 3)))
    for f in g @ h:
        np.testing.assert_allclose(f.conj().T @ f, np.eye(2), atol=1e-12)
