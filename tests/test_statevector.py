import numpy as np
import pytest
from scipy import stats

from cosetkernel import kernel, noise

import oracle
from oracle import I2, haar_random_su2, rx, ry, rz


def random_state(n, rng):
    return oracle.haar_random_state(2**n, rng)


def single_qubit_op(gate, qubit, n):
    """(N, 2, 2) element with `gate` on one qubit and identity elsewhere."""
    g = np.broadcast_to(I2, (n, 2, 2)).copy()
    g[qubit] = gate
    return g


def cz_layer(n):
    """Dense CZ on every chain edge: the preparation circuit with its Ry
    layer switched off (offsets pi/2 make every Ry the identity)."""
    return oracle.fiducial_operator(np.full(n, np.pi / 2))


def test_apply_identity():
    rng = np.random.default_rng(0)
    psi = random_state(3, rng)
    out = oracle.dense(single_qubit_op(I2, 1, 3)) @ psi
    np.testing.assert_allclose(out, psi, atol=1e-14)


def test_apply_ry_half_pi_on_zero():
    out = ry(np.pi / 2) @ oracle.zero_state(1)
    np.testing.assert_allclose(out, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-12)


def test_apply_matches_dense_oracle():
    rng = np.random.default_rng(1)
    psi = random_state(3, rng)
    gate = rx(0.3) @ rz(0.7) @ rx(0.1)
    out = oracle.dense(single_qubit_op(gate, 1, 3)) @ psi
    dense = np.kron(np.kron(I2, gate), I2)
    np.testing.assert_allclose(out, dense @ psi, atol=1e-12)


def test_apply_preserves_norm():
    rng = np.random.default_rng(2)
    psi = random_state(4, rng)
    for q in range(4):
        psi = oracle.dense(single_qubit_op(haar_random_su2(rng), q, 4)) @ psi
        assert abs(np.linalg.norm(psi) - 1) < 1e-12


def test_cz_on_00_and_11():
    np.testing.assert_allclose(cz_layer(2), np.diag([1, 1, 1, -1]), atol=1e-15)


def test_cz_involution():
    rng = np.random.default_rng(3)
    psi = random_state(3, rng)
    np.testing.assert_allclose(cz_layer(3) @ (cz_layer(3) @ psi), psi, atol=1e-12)


def test_inner_product_basics():
    rng = np.random.default_rng(4)
    psi = random_state(2, rng)
    assert abs(oracle.inner_product(psi, psi) - 1) < 1e-12
    zero = oracle.zero_state(1)
    one = np.array([0, 1], dtype=complex)
    assert oracle.inner_product(zero, one) == 0
    # conjugate-linearity in the first argument
    assert abs(oracle.inner_product(1j * psi, psi) - (-1j)) < 1e-12
    with pytest.raises(ValueError):
        oracle.inner_product(oracle.zero_state(1), oracle.zero_state(2))


def test_inner_product_haar_mean():
    # squared overlap of Haar pairs on 2^4 dimensions has mean 1/16
    rng = np.random.default_rng(5)
    samples = 10_000
    a = rng.standard_normal((samples, 16)) + 1j * rng.standard_normal((samples, 16))
    b = rng.standard_normal((samples, 16)) + 1j * rng.standard_normal((samples, 16))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    b /= np.linalg.norm(b, axis=1, keepdims=True)
    overlaps = np.abs(np.einsum("ij,ij->i", a.conj(), b)) ** 2
    se = overlaps.std() / np.sqrt(samples)
    assert abs(overlaps.mean() - 1 / 16) < 3 * se


def test_operator_norm():
    assert oracle.operator_norm(np.zeros((4, 4))) == 0
    rng = np.random.default_rng(6)
    u = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))[0]
    assert abs(oracle.operator_norm(u) - 1) < 1e-10
    assert abs(oracle.operator_norm(np.eye(2) - (-np.eye(2))) - 2) < 1e-12
    with pytest.raises(ValueError):
        oracle.operator_norm(np.array([[np.nan, 0], [0, 1]]))


def test_haar_su2_is_special_unitary():
    rng = np.random.default_rng(7)
    for _ in range(50):
        u = haar_random_su2(rng)
        np.testing.assert_allclose(u.conj().T @ u, I2, atol=1e-12)
        assert abs(abs(np.linalg.det(u)) - 1) < 1e-12


def test_haar_su2_entry_mean():
    rng = np.random.default_rng(8)
    vals = np.abs(haar_random_su2(rng, (100_000,))[:, 0, 0]) ** 2
    se = vals.std() / np.sqrt(len(vals))
    assert abs(vals.mean() - 0.5) < 3 * se


def test_haar_su2_overlap_distribution():
    # |<0|u^dag v|0>|^2 is uniform on [0, 1] for d = 2
    rng = np.random.default_rng(9)
    u, v = np.moveaxis(haar_random_su2(rng, (10_000, 2)), 1, 0)
    vals = np.abs(np.einsum("pi,pi->p", u[:, :, 0].conj(), v[:, :, 0])) ** 2
    assert stats.kstest(vals, "uniform").pvalue > 0.01


def test_haar_invariance_two_sample():
    # |<0|U^dag V|0>|^2 with U, V Haar matches |<0|W|0>|^2 with W Haar
    rng = np.random.default_rng(10)
    u, v, w = np.moveaxis(haar_random_su2(rng, (10_000, 3)), 1, 0)
    pair_vals = np.abs(np.einsum("pi,pi->p", u[:, :, 0].conj(), v[:, :, 0])) ** 2
    direct_vals = np.abs(w[:, 0, 0]) ** 2
    assert stats.ks_2samp(pair_vals, direct_vals).pvalue > 0.01


def test_quaternion_build_matches_qr_reference():
    # two-sample KS against the QR construction on independent draws: the
    # entry law |U00|^2 and the pair overlap law |<0|U^dag V|0>|^2
    rng = np.random.default_rng(13)
    samples = 20_000
    built = haar_random_su2(rng, (samples, 2))
    reference = oracle.su2_from_ginibre(rng.standard_normal((samples, 2, 2, 2, 2)))
    for u in (built, reference):
        np.testing.assert_allclose(
            u @ np.conj(np.swapaxes(u, -1, -2)), np.broadcast_to(I2, u.shape),
            atol=1e-12,
        )
        np.testing.assert_allclose(np.linalg.det(u), 1, atol=1e-12)

    def laws(u):
        entry = np.abs(u[:, 0, 0, 0]) ** 2
        overlap = np.abs(np.einsum("pi,pi->p", u[:, 0, :, 0].conj(),
                                   u[:, 1, :, 0])) ** 2
        return entry, overlap

    for got, want in zip(laws(built), laws(reference)):
        assert stats.ks_2samp(got, want).pvalue > 1e-3


def test_gate_level_matches_dense_circuit():
    # full kernel-circuit shape: fiducial prep, then per-qubit XZX rotations;
    # the transfer chain's <psi|D|psi> against the dense circuit's
    rng = np.random.default_rng(12)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        prep = rng.uniform(-0.3, 0.3, n)
        elem = noise.from_euler(rng.uniform(-np.pi, np.pi, size=(n, 3)))
        identity = np.broadcast_to(np.eye(2), (1, n, 2, 2))
        chain = kernel.transfer_amplitudes(identity, elem[None], prep, prep)
        psi = oracle.fiducial_operator(prep) @ oracle.zero_state(n)
        assert abs(chain[0, 0] - np.vdot(psi, oracle.dense(elem) @ psi)) < 1e-10
