"""Dense ladder-product operators on a truncated Fock basis.

This is the construction fock's index tables replace: ladder matrices
filled state by state, and H, S and G summed from their dense products.
The tests compare the table-built operators against it, bit for bit.
"""

import numpy as np

from bwflow import fock
from bwflow.opcore import as_matrix


def ladder(fk, k, kind="annihilate"):
    """Ladder matrix for mode k (0-based).

    "annihilate" is exact on the truncated space; "create" is its adjoint,
    which silently drops amplitudes raised past the cutoff.
    """
    if not 0 <= k < fk.n_modes:
        raise ValueError(f"mode index {k} out of range")
    if kind not in ("annihilate", "create"):
        raise ValueError("kind must be 'annihilate' or 'create'")
    index = {tuple(occ): i for i, occ in enumerate(fk.occs.tolist())}
    a = np.zeros((fk.dim, fk.dim))
    for j, occ in enumerate(map(tuple, fk.occs.tolist())):
        if occ[k] >= 1:
            lower = occ[:k] + (occ[k] - 1,) + occ[k + 1:]
            a[index[lower], j] = np.sqrt(occ[k])
    return a.T if kind == "create" else a


def pair(fk, k, l):
    """adag_k adag_l on the truncated space."""
    return ladder(fk, k, "create") @ ladder(fk, l, "create")


def pair_sum(fk, b):
    """S = sum_kl B_kl adag_k adag_l, in the dtype of B."""
    s = np.zeros((fk.dim, fk.dim), dtype=b.dtype)
    for k in range(fk.n_modes):
        for l in range(fk.n_modes):
            if b[k, l] != 0:
                s = s + b[k, l] * pair(fk, k, l)
    return s


def hamiltonian_op(fk, spec):
    """Dense H(spec) from ladder products, real for a real spec."""
    if spec.dim != fk.n_modes:
        raise ValueError("spec dimension does not match mode count")
    omega, b = (spec.omega.real, spec.b.real) if spec.is_real else (spec.omega, spec.b)
    h = np.zeros((fk.dim, fk.dim), dtype=omega.dtype)
    for k in range(fk.n_modes):
        adag_k = ladder(fk, k, "create")
        for l in range(fk.n_modes):
            if omega[k, l] != 0:
                h = h + omega[k, l] * (adag_k @ ladder(fk, l))
    s = pair_sum(fk, b)
    h = h + s + s.conj().T
    return h + spec.c0 * np.eye(fk.dim)


def hamiltonian_blocks(fk, spec):
    """The even and odd parity blocks of the ladder-product H(spec)."""
    h = hamiltonian_op(fk, spec)
    idx = [np.flatnonzero(fk.ntot % 2 == p) for p in (0, 1)]
    return [h[np.ix_(i, i)] for i in idx]


def generator_op(fk, b):
    """G = 2i (S - S*) with S = sum_kl B_kl adag_k adag_l.

    On sectors with total number <= cutoff - 2 this equals i [N, H] entry
    for entry.
    """
    s = pair_sum(fk, as_matrix(b))
    return 2j * (s - s.conj().T)


_table_pair_blocks = fock._pair_blocks


def pair_blocks(fk, parity, support):
    """fock._pair_blocks, the same layout and blocks, with the weights
    sliced out of the dense pair products, each restricted to the pairs of
    states of one component and placed at their slots."""
    comp, slot, shape, blocks, _ = _table_pair_blocks(fk, parity, support)
    idx = np.flatnonzero(fk.ntot % 2 == parity)
    i, j = np.nonzero((comp[:, None] == comp) & (comp[:, None] >= 0))
    parts = [np.zeros((fk.n_modes ** 2, 0))]
    stacks = np.zeros((fk.n_modes ** 2,) + shape)
    for kl, (k, l) in enumerate((k, l) for k in range(fk.n_modes) for l in range(fk.n_modes)):
        stacks[kl][comp[i], slot[i], slot[j]] = pair(fk, k, l)[idx[i], idx[j]]
    for rows, cols, _, _, _ in blocks:
        parts.append(stacks[:, :, rows, cols].reshape(len(stacks), -1))
    return comp, slot, shape, blocks, 2.0 * np.concatenate(parts, axis=1)
