"""Covariant kernel evaluation by statevector simulation.

Every entry is the exact squared amplitude
|<0| V_left^dag D_x^dag D_x' V_right |0>|^2; no measurement sampling. The
gate-level path prepares each fiducial state V|0> once and applies all P
product unitaries to it together, one einsum pass per qubit
(`group.apply_batch`). A selection perturbation E_x is folded into the point's
factors first, as E_x,j D_x,j on every qubit j; this is exact because both
operators are tensor products. The dense path multiplies full 2^N x 2^N
matrices and serves as the oracle in tests.
"""

from dataclasses import dataclass

import numpy as np

from . import group
from .statevector import zero_state


@dataclass(frozen=True)
class KernelMatrix:
    entries: np.ndarray  # (P, P) real, symmetric
    coset_labels: np.ndarray  # (P,) int
    subgroup_indices: np.ndarray  # (P,) int

    @property
    def size(self):
        return self.entries.shape[0]

    def point_labels(self):
        return [
            f"c{i}s{a}" for i, a in zip(self.coset_labels, self.subgroup_indices)
        ]


def feature_states(factors, prep, perturbations=None, method="gate"):
    """(P, 2^N) rows |phi(x)> = (E_x) D_x V |0> for a (P, N, 2, 2) factor
    stack, optionally with one selection perturbation E_x per point as a
    second (P, N, 2, 2) stack."""
    if perturbations is not None and perturbations.shape != factors.shape:
        raise ValueError("need one perturbation per point")
    if method == "gate":
        if perturbations is not None:
            factors = perturbations @ factors
        return group.apply_batch(factors, group.prepare_fiducial(prep))
    if method == "dense":
        fiducial = group.fiducial_operator(prep) @ zero_state(prep.num_qubits)
        ops = [group.dense(f) for f in factors]
        if perturbations is not None:
            ops = [group.dense(e) @ op for e, op in zip(perturbations, ops)]
        return np.stack([op @ fiducial for op in ops])
    raise ValueError(f"unknown method {method!r}")


def kernel_matrix(ds, n_qubits, indices=None, *, offsets_left=None,
                  offsets_right=None, perturbations=None, method="gate"):
    """All pairwise kernel values over the dataset's points, or over the
    points `indices` selects (e.g. a train split).

    offsets_left/offsets_right attach the fiducial-error model (two
    independently sampled noisy preparations on the two sides of every
    entry); perturbations attaches one selection-error element per dataset
    point, as a (P, N, 2, 2) stack that `indices` selects from too.
    The upper triangle is computed and mirrored, so the result is exactly
    symmetric.
    """
    if (offsets_left is None) != (offsets_right is None):
        raise ValueError("fiducial offsets must be given for both sides")
    if offsets_left is not None and perturbations is not None:
        raise ValueError("choose one noise attachment per job")
    idx = slice(None) if indices is None else np.asarray(indices, dtype=int)
    factors = ds.factors[idx]
    if perturbations is not None:
        perturbations = perturbations[idx]
    prep_l = group.fiducial_preparation(n_qubits, offsets_left)
    if offsets_right is None:
        left = right = feature_states(factors, prep_l, perturbations, method)
    else:
        prep_r = group.fiducial_preparation(n_qubits, offsets_right)
        left = feature_states(factors, prep_l, method=method)
        right = feature_states(factors, prep_r, method=method)
    gram = np.abs(left.conj() @ right.T) ** 2
    entries = np.triu(gram) + np.triu(gram, 1).T
    return KernelMatrix(entries, ds.coset_labels[idx], ds.subgroup_indices[idx])


def alpha_matrix(ds):
    """alpha_{i,j} = |<psi| D_ci^dag D_cj |psi>|^2 with unit diagonal."""
    psi = group.prepare_fiducial(group.fiducial_preparation(ds.num_qubits))
    states = group.apply_batch(ds.representatives, psi)
    gram = np.abs(states.conj() @ states.T) ** 2
    alphas = np.triu(gram, 1)
    alphas = alphas + alphas.T
    np.fill_diagonal(alphas, 1.0)
    return alphas


def offdiag_stats(kmat):
    """Mean and population variance over all off-diagonal entries."""
    k = kmat.entries
    mask = ~np.eye(k.shape[0], dtype=bool)
    vals = k[mask]
    return float(vals.mean()), float(vals.var())


def cross_coset_values(kmat):
    """Off-diagonal entries between points of different cosets."""
    labels = kmat.coset_labels
    mask = labels[:, None] != labels[None, :]
    return kmat.entries[mask]


def export_heatmap(kmat, path):
    """CSV heat map: label header row/column, full-precision entries."""
    labels = kmat.point_labels()
    lines = ["," + ",".join(labels)]
    for lab, row in zip(labels, kmat.entries):
        lines.append(lab + "," + ",".join(repr(float(v)) for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
