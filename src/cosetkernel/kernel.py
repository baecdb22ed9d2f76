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
from .statevector import inner_product, zero_state


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


def _dense_feature_state(point, prep, perturbation):
    op = group.dense(point.element) @ group.fiducial_operator(prep)
    if perturbation is not None:
        op = group.dense(perturbation) @ op
    return op @ zero_state(prep.num_qubits)


def feature_states(points, prep, perturbations=None, method="gate"):
    """(P, 2^N) rows |phi(x)> = (E_x) D_x V |0>, optionally with one
    selection perturbation E_x per point."""
    if perturbations is not None and len(perturbations) != len(points):
        raise ValueError("need one perturbation per point")
    if method == "gate":
        factors = np.stack([p.element.factors for p in points])
        if perturbations is not None:
            factors = np.stack([e.factors for e in perturbations]) @ factors
        return group.apply_batch(factors, group.prepare_fiducial(prep))
    if method == "dense":
        if perturbations is None:
            perturbations = [None] * len(points)
        return np.stack([
            _dense_feature_state(p, prep, e) for p, e in zip(points, perturbations)
        ])
    raise ValueError(f"unknown method {method!r}")


def kernel_entry(x, xp, prep_left=None, prep_right=None, *, n_qubits=None,
                 pert_left=None, pert_right=None, method="gate"):
    """Single kernel value for the pair (x, x').

    prep_left / prep_right are the fiducial preparations on the two sides of
    the overlap; they differ only in the fiducial-error model.
    """
    n = n_qubits if n_qubits is not None else x.element.num_qubits
    if prep_left is None:
        prep_left = group.fiducial_preparation(n)
    if prep_right is None:
        prep_right = prep_left
    left = feature_states([x], prep_left, _as_list(pert_left), method)[0]
    right = feature_states([xp], prep_right, _as_list(pert_right), method)[0]
    return abs(inner_product(left, right)) ** 2


def _as_list(perturbation):
    return None if perturbation is None else [perturbation]


def kernel_matrix(points, n_qubits, *, offsets_left=None, offsets_right=None,
                  perturbations=None, method="gate"):
    """All pairwise kernel values.

    offsets_left/offsets_right attach the fiducial-error model (two
    independently sampled noisy preparations on the two sides of every
    entry); perturbations attaches one selection-error element per point.
    The upper triangle is computed and mirrored, so the result is exactly
    symmetric.
    """
    if (offsets_left is None) != (offsets_right is None):
        raise ValueError("fiducial offsets must be given for both sides")
    if offsets_left is not None and perturbations is not None:
        raise ValueError("choose one noise attachment per job")
    prep_l = group.fiducial_preparation(n_qubits, offsets_left)
    if offsets_right is None:
        left = right = feature_states(points, prep_l, perturbations, method)
    else:
        prep_r = group.fiducial_preparation(n_qubits, offsets_right)
        left = feature_states(points, prep_l, method=method)
        right = feature_states(points, prep_r, method=method)
    gram = np.abs(left.conj() @ right.T) ** 2
    entries = np.triu(gram) + np.triu(gram, 1).T
    return KernelMatrix(
        entries,
        np.array([p.coset_label for p in points]),
        np.array([p.subgroup_index for p in points]),
    )


def restrict(kmat, indices):
    """Kernel matrix restricted to a subset of points (e.g. a train split)."""
    idx = np.asarray(indices)
    return KernelMatrix(
        kmat.entries[np.ix_(idx, idx)],
        kmat.coset_labels[idx],
        kmat.subgroup_indices[idx],
    )


def alpha_matrix(ds):
    """alpha_{i,j} = |<psi| D_ci^dag D_cj |psi>|^2 with unit diagonal."""
    psi = group.prepare_fiducial(group.fiducial_preparation(ds.num_qubits))
    factors = np.stack([c.factors for c in ds.representatives])
    states = group.apply_batch(factors, psi)
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
