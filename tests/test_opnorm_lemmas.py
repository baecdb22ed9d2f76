"""Property tests for the operator-norm inequalities used by the coherent
noise bounds, on random dense matrices of dimension up to 64, and the exact
distance of a product unitary to the identity."""

import itertools

import numpy as np

import oracle
from oracle import haar_random_su2, ry

TOL = 1e-9
INSTANCES = 200


def random_matrix(dim, rng, scale=1.0):
    return scale * (
        rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    )


def random_unitary(dim, rng):
    q, r = np.linalg.qr(random_matrix(dim, rng))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_unit_vector(dim, rng):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def dims(rng):
    return int(2 ** rng.integers(1, 7))


def test_two_approximations_are_close():
    rng = np.random.default_rng(100)
    for _ in range(INSTANCES):
        d = dims(rng)
        a = random_matrix(d, rng)
        b1 = a + random_matrix(d, rng, 0.1)
        b2 = a + random_matrix(d, rng, 0.1)
        eps = max(oracle.operator_norm(a - b1), oracle.operator_norm(a - b2))
        assert oracle.operator_norm(b2 - b1) <= 2 * eps + TOL


def test_product_perturbation():
    rng = np.random.default_rng(101)
    for _ in range(INSTANCES):
        d = dims(rng)
        a1, a2 = random_matrix(d, rng), random_matrix(d, rng)
        b1 = a1 + random_matrix(d, rng, 0.1)
        b2 = a2 + random_matrix(d, rng, 0.1)
        eps = max(oracle.operator_norm(a1 - b1), oracle.operator_norm(a2 - b2))
        bound = eps * min(
            oracle.operator_norm(a1) + oracle.operator_norm(b2),
            oracle.operator_norm(a2) + oracle.operator_norm(b1),
        )
        assert oracle.operator_norm(a1 @ a2 - b1 @ b2) <= bound + TOL


def test_norm_stability():
    rng = np.random.default_rng(102)
    for _ in range(INSTANCES):
        d = dims(rng)
        a = random_matrix(d, rng)
        b = a + random_matrix(d, rng, 0.1)
        eps = oracle.operator_norm(a - b)
        assert oracle.operator_norm(a) - eps - TOL <= oracle.operator_norm(b)
        assert oracle.operator_norm(b) <= oracle.operator_norm(a) + eps + TOL


def test_norm_dominates_matrix_element():
    rng = np.random.default_rng(103)
    for _ in range(INSTANCES):
        d = dims(rng)
        a = random_matrix(d, rng)
        phi = random_unit_vector(d, rng)
        psi = random_unit_vector(d, rng)
        assert oracle.operator_norm(a) + TOL >= abs(phi.conj() @ a @ psi)


def test_matrix_element_perturbation():
    rng = np.random.default_rng(104)
    for _ in range(INSTANCES):
        d = dims(rng)
        a = random_matrix(d, rng)
        b = a + random_matrix(d, rng, 0.1)
        phi = random_unit_vector(d, rng)
        psi = random_unit_vector(d, rng)
        gap = abs(abs(phi.conj() @ a @ psi) - abs(phi.conj() @ b @ psi))
        assert gap <= oracle.operator_norm(a - b) + TOL


def test_close_unitaries_large_overlap():
    rng = np.random.default_rng(105)
    for _ in range(INSTANCES):
        d = dims(rng)
        u1 = random_unitary(d, rng)
        u2 = random_unitary(d, rng)
        delta = oracle.operator_norm(u1 - u2)
        psi = random_unit_vector(d, rng)
        overlap = abs(psi.conj() @ u1.conj().T @ u2 @ psi)
        assert overlap >= 1 - delta**2 / 2 - TOL


def product_distance_to_identity(factors):
    """||I - tensor_j U_j|| for SU(2) factors U_j, shape (N, 2, 2), without
    the 2^N matrix.

    U_j has eigenvalues exp(+-i theta_j), so the product has eigenvalues
    exp(i sum_j s_j theta_j) over sign vectors s. I - U is normal, so its norm
    is the largest |1 - lambda|.
    """
    a, b = factors[:, 0, 0], factors[:, 1, 0]
    # U_j = [[a, -b*], [b, a*]]: cos theta_j = Re a, sin theta_j = |(Im a, b)|
    theta = np.arctan2(np.hypot(a.imag, np.abs(b)), a.real)
    signs = np.array(list(itertools.product((1, -1), repeat=len(theta))))
    return float(np.max(np.abs(1 - np.exp(1j * (signs @ theta)))))


def test_product_distance_matches_dense_norm():
    rng = np.random.default_rng(106)
    checked = 0
    for n in range(2, 9):
        for _ in range(10):
            eps = rng.uniform(0.01, 0.9)
            offsets = oracle.attached("fiducial", eps, n, rng)[0]
            errors = oracle.attached("selection", eps, n, rng)[0]
            for factors in (
                ry(-offsets),
                errors,
                haar_random_su2(rng, (n,)),
            ):
                deviation = np.eye(2**n) - oracle.dense(factors)
                dense = oracle.operator_norm(deviation)
                assert abs(product_distance_to_identity(factors) - dense) < 1e-10
                checked += 1
    assert checked >= 200
