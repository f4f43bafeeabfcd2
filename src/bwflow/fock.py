"""Truncated Fock-space oracle.

Everything the flow claims about (Omega, B, C) can be checked against dense
matrices on the boson Fock space over C^n truncated at a total occupation
cutoff.  The basis is the occupation basis ordered by total number and then
lexicographically.  Annihilation operators act exactly on the truncated
space (they only move down in total number) and creation operators are
their adjoints, so identities that push states above the cutoff only hold
on interior sectors; residuals here are therefore evaluated against
projections P onto low total number.  Algebraic identities (CCR, G = i[N,H])
are exact up to total number cutoff - 2; propagated quantities keep a wider
guard band, cutoff - 4, because the pair terms couple sectors n -> n + 2.

Operator dictionary, for coefficients (Omega, B, C):

    H = sum_kl Omega_kl adag_k a_l + B_kl adag_k adag_l + B~_kl a_k a_l + C
    G = 2i sum_kl (B_kl adag_k adag_l - B~_kl a_k a_l)

and the propagator solves dU/dt = -i G_t U.

Because the basis is graded, the pair term S = sum_kl B_kl adag_k adag_l only
maps sector N (total number N) to sector N + 2, and S* maps N + 2 back to N.
propagate therefore never forms G: it applies -i G U = 2 (S U - S* U) as one
small dense block S_{N+2,N} per sector acting on contiguous row slices of U.
The dense generator_op stays as the reference for that product.  Since G
changes the total number by +-2, U also keeps the parity of the total
number: only its even-even and odd-odd blocks, about half of its entries,
are ever nonzero, and propagate steps just those two blocks, with the
tolerance rescaled so that the error criterion is that of the full U.

For real B the generator's -i G = 2 (S - S^t) is real, so U is real
orthogonal, and a path whose B samples are real (a trajectory of a real
spec; see QuadraticSpec.is_real) is propagated in float64 rather than
complex128, at sqrt(2) times the block tolerance: the M imaginary parts of
the complex blocks would be exactly zero and only dilute the stepper's RMS
error norm over 2M real components by sqrt(2), so this is the same error
criterion.  hamiltonian_op likewise builds a real H0 for a real spec, and
the truncated ground energy is then a real symmetric eigenvalue problem.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import comb
from typing import Optional

import numpy as np

from .errors import SizeLimit
from .flow import check_span
from .opcore import QuadraticSpec, as_matrix, hs_norm
from .stepping import DormandPrince, drive

# Largest basis dimension build_basis builds.
SIZE_LIMIT = 20000
# Bound on the peak bytes propagate holds per squared basis dimension: 18
# arrays of dim**2 complex values, the working set of stepping all of U.
# Stepping only the two parity blocks (about dim**2 / 2 entries) with the
# stepper's sixteen stage rows and its scratch reused, tracemalloc measures,
# per dim**2 with two modes and the basis's cached _pair tables already
# built, 217 and 208 bytes at cutoffs 12 and 20 for complex128 blocks and
# 114 and 104 for the float64 blocks of a real path, so the bound holds for
# both (test_propagate_working_set checks this at cutoff 12).
# check_propagate_size refuses a basis whose working set would exceed
# PROPAGATE_MEMORY_LIMIT bytes, which for two modes allows cutoffs up to 60;
# it sizes every path as complex, so the same cutoffs are refused either way.
PROPAGATE_BYTES_PER_DIM2 = 18 * 16
PROPAGATE_MEMORY_LIMIT = 2 ** 30
# Consecutive sectors are merged into one block until it acts on at least
# this many states, so that a one-mode basis (one state per sector) does not
# pay two matmul calls per sector on every right-hand-side evaluation.
MIN_BLOCK_STATES = 16
OFFDIAG_CONST = 4.0 + np.sqrt(2.0)


@dataclass
class TruncatedFock:
    """Occupation basis of n_modes bosons with total number <= cutoff."""

    n_modes: int
    cutoff: int
    occs: np.ndarray            # (dim, n_modes) int occupation rows
    index: dict                 # occupation tuple -> row
    ntot: np.ndarray            # (dim,) total occupation per row
    _ladders: dict = field(default_factory=dict, repr=False)
    _pairs: dict = field(default_factory=dict, repr=False)

    @property
    def dim(self) -> int:
        return self.occs.shape[0]

    def sector_mask(self, max_total: int) -> np.ndarray:
        return self.ntot <= max_total


def basis_dim(n_modes: int, cutoff: int) -> int:
    """Number of occupation states of n_modes bosons with total <= cutoff."""
    return comb(n_modes + cutoff, n_modes)


def build_basis(n_modes: int, cutoff: int) -> TruncatedFock:
    """Build the truncated occupation basis, graded by total number; a
    dimension above SIZE_LIMIT raises SizeLimit."""
    if n_modes < 1 or cutoff < 0:
        raise ValueError("need n_modes >= 1 and cutoff >= 0")
    dim = basis_dim(n_modes, cutoff)
    if dim > SIZE_LIMIT:
        raise SizeLimit(f"basis dimension {dim} exceeds limit {SIZE_LIMIT}")
    occs = sorted(
        (occ for occ in itertools.product(range(cutoff + 1), repeat=n_modes)
         if sum(occ) <= cutoff),
        key=lambda occ: (sum(occ), occ))
    occ_arr = np.array(occs, dtype=int).reshape(len(occs), n_modes)
    index = {occ: i for i, occ in enumerate(occs)}
    return TruncatedFock(n_modes=n_modes, cutoff=cutoff, occs=occ_arr,
                         index=index, ntot=occ_arr.sum(axis=1))


def ladder(fock: TruncatedFock, k: int, kind: str = "annihilate") -> np.ndarray:
    """Ladder matrix for mode k (0-based).

    "annihilate" is exact on the truncated space; "create" is its adjoint,
    which silently drops amplitudes raised past the cutoff.
    """
    if not 0 <= k < fock.n_modes:
        raise ValueError(f"mode index {k} out of range")
    if kind not in ("annihilate", "create"):
        raise ValueError("kind must be 'annihilate' or 'create'")
    if k not in fock._ladders:
        a = np.zeros((fock.dim, fock.dim))
        for j, occ in enumerate(map(tuple, fock.occs)):
            if occ[k] >= 1:
                lower = occ[:k] + (occ[k] - 1,) + occ[k + 1:]
                a[fock.index[lower], j] = np.sqrt(occ[k])
        a.setflags(write=False)
        fock._ladders[k] = a
    a = fock._ladders[k]
    return a.T if kind == "create" else a


def number_op(fock: TruncatedFock) -> np.ndarray:
    """Total number operator, diagonal in the occupation basis."""
    return np.diag(fock.ntot.astype(float))


def _pair(fock: TruncatedFock, k: int, l: int) -> np.ndarray:
    """adag_k adag_l on the truncated space."""
    if (k, l) not in fock._pairs:
        fock._pairs[(k, l)] = ladder(fock, k, "create") @ ladder(fock, l, "create")
    return fock._pairs[(k, l)]


def _pair_sum(fock: TruncatedFock, b: np.ndarray) -> np.ndarray:
    """S = sum_kl B_kl adag_k adag_l, in the dtype of B."""
    s = np.zeros((fock.dim, fock.dim), dtype=b.dtype)
    for k in range(fock.n_modes):
        for l in range(fock.n_modes):
            if b[k, l] != 0:
                s = s + b[k, l] * _pair(fock, k, l)
    return s


def hamiltonian_op(fock: TruncatedFock, spec: QuadraticSpec) -> np.ndarray:
    """Dense matrix of H(spec) on the truncated space.

    Built from ladder products, so the pair term and its adjoint match
    exactly and the result is hermitian to roundoff; hermiticity_residual
    reports the defect rather than assuming it.  A real spec
    (spec.is_real) gives a real symmetric float64 matrix, any other a
    complex128 one.
    """
    if spec.dim != fock.n_modes:
        raise ValueError("spec dimension does not match mode count")
    omega, b = (spec.omega.real, spec.b.real) if spec.is_real else (spec.omega, spec.b)
    h = np.zeros((fock.dim, fock.dim), dtype=omega.dtype)
    for k in range(fock.n_modes):
        adag_k = ladder(fock, k, "create")
        for l in range(fock.n_modes):
            if omega[k, l] != 0:
                h = h + omega[k, l] * (adag_k @ ladder(fock, l))
    s = _pair_sum(fock, b)
    h = h + s + s.conj().T
    h = h + spec.c0 * np.eye(fock.dim)
    return h


def hermiticity_residual(m: np.ndarray) -> float:
    """||M - M*||_2."""
    return hs_norm(m - m.conj().T)


def generator_op(fock: TruncatedFock, b) -> np.ndarray:
    """G = 2i (S - S*) with S = sum_kl B_kl adag_k adag_l.

    On sectors with total number <= cutoff - 2 this equals i [N, H] entry
    for entry.
    """
    s = _pair_sum(fock, as_matrix(b))
    return 2j * (s - s.conj().T)


def check_propagate_size(dim: int) -> None:
    """Raise SizeLimit when propagate's working set on a basis of this
    dimension would exceed PROPAGATE_MEMORY_LIMIT bytes."""
    need = PROPAGATE_BYTES_PER_DIM2 * dim * dim
    if need > PROPAGATE_MEMORY_LIMIT:
        raise SizeLimit(
            f"propagating on basis dimension {dim} needs about {need / 2**30:.1f} GiB, "
            f"over the {PROPAGATE_MEMORY_LIMIT / 2**30:.1f} GiB limit")


def _pair_blocks(fock: TruncatedFock, parity: int):
    """The nonzero blocks of the pair term S on one parity sub-basis.

    idx lists the basis states whose total number has the given parity, in
    graded order, so the sectors N, N + 2, N + 4, ... of that parity are
    contiguous in idx and S maps sector N into sector N + 2 inside it.
    Runs of consecutive sectors with fewer than MIN_BLOCK_STATES states are
    merged into one block.  Returns (idx, blocks, weights): each block is
    (rows, cols, shape, lo, hi), slices of the sub-basis where S[rows, cols]
    (indexed through idx) holds every nonzero entry of S in the columns
    cols, and weights[kl, lo:hi] is 2 adag_k adag_l restricted to that block
    and flattened, so that sum_kl B_kl weights[kl, lo:hi] is 2 S[rows, cols].
    """
    idx = np.flatnonzero(fock.ntot % 2 == parity)
    off = np.searchsorted(fock.ntot[idx], np.arange(fock.cutoff + 3))
    top = fock.cutoff - 2                    # highest sector S maps inside the cutoff
    pairs = [_pair(fock, k, l)[np.ix_(idx, idx)] for k in range(fock.n_modes)
             for l in range(fock.n_modes)]
    blocks, parts, lo, first = [], [np.zeros((len(pairs), 0))], 0, parity
    while first <= top:
        last = first
        while last + 2 <= top and off[last + 2] - off[first] < MIN_BLOCK_STATES:
            last += 2
        cols = slice(off[first], off[last + 2])
        rows = slice(off[first + 2], off[last + 4])
        shape = (rows.stop - rows.start, cols.stop - cols.start)
        blocks.append((rows, cols, shape, lo, lo + shape[0] * shape[1]))
        parts.append(np.stack([p[rows, cols].ravel() for p in pairs]))
        lo += shape[0] * shape[1]
        first = last + 2
    return idx, blocks, 2.0 * np.concatenate(parts, axis=1)


def propagate(fock: TruncatedFock, bpath, s: float, t: float,
              tol: float = 1e-10) -> np.ndarray:
    """Solve dU/dtau = -i G_tau U over [s, t], U_{s,s} = 1.

    bpath is any B-path, such as a flow trajectory, whose interpolated B_tau
    is then used; the span and the path's window follow flow.check_span.

    G changes the total number by +-2, so U keeps its parity: only the
    blocks U_p = U[idx_p, idx_p] of the even and odd sub-bases (see
    _pair_blocks) are nonzero, and the stepper advances the one vector
    [U_0.ravel(), U_1.ravel()].  The right-hand side
    -i G U = 2 (S U - S* U) is applied block by block on each U_p: each
    block S_{N+2,N} multiplies the rows of sector N into the rows of sector
    N + 2, and its adjoint the rows of N + 2 back into N.  Both blocks are
    returned scattered into a dim x dim matrix whose other entries are
    exactly zero.

    The stepper's RMS error norm over the full U would count those zero
    entries, so it is the norm over the blocks times
    sqrt((d_0**2 + d_1**2) / dim**2); rtol = atol = tol scaled by the
    inverse of that factor is therefore the same error criterion as
    stepping all of U with tol.

    The arithmetic follows the dtype of the path's first sample, at s,
    which is also the sample the first right-hand-side evaluation uses, so
    choosing it costs no path call.  A float64 B (a trajectory of a real
    spec) gives a real G, and U is stepped and returned as float64 with the
    block tolerance times sqrt(2): the imaginary half of a complex U would
    be exactly zero and only dilute the RMS norm over its real components
    by sqrt(2), so this is again the same error criterion.  Any other B,
    such as that of a FunctionBPath, which returns complex128, keeps U
    complex128.  A path that returns a complex B with a nonzero imaginary
    part after a real first sample raises ValueError.
    """
    check_span(bpath, s, t)
    dim = fock.dim
    if t == s:
        return np.eye(dim, dtype=complex)
    check_propagate_size(dim)
    parities = [_pair_blocks(fock, p) for p in (0, 1)]
    sizes = [len(idx) for idx, _, _ in parities]
    ends = np.cumsum([0] + [d * d for d in sizes])

    pending = [np.asarray(bpath(s))]  # the first evaluation's sample, which sets the dtype
    real = not np.iscomplexobj(pending[0])
    dtype = float if real else complex

    def fun(tau, y, dy):
        b = pending.pop() if pending else np.asarray(bpath(tau))
        if real and np.iscomplexobj(b):
            if b.imag.any():
                raise ValueError(f"complex B at tau = {tau:.6g} on a path whose "
                                 f"first sample was real")
            b = b.real
        b = b.astype(dtype, copy=False).ravel()
        dy.fill(0)
        for (_, blocks, weights), d, start, stop in zip(parities, sizes, ends, ends[1:]):
            s_flat = b @ weights                         # the 2 S blocks, flattened
            u = y[start:stop].reshape(d, d)
            du = dy[start:stop].reshape(d, d)
            for rows, cols, shape, lo, hi in blocks:
                s_blk = s_flat[lo:hi].reshape(shape)
                du[rows] += s_blk @ u[cols]
                du[cols] -= s_blk.conj().T @ u[rows]

    y0 = np.concatenate([np.eye(d, dtype=dtype).ravel() for d in sizes])
    tol_blocks = tol * np.sqrt(dim * dim / ends[-1]) * (np.sqrt(2.0) if real else 1.0)
    y = drive(DormandPrince(fun, s, y0, t, tol_blocks, tol_blocks)).state
    u_mat = np.zeros((dim, dim), dtype=dtype)
    for (idx, _, _), d, start, stop in zip(parities, sizes, ends, ends[1:]):
        u_mat[np.ix_(idx, idx)] = y[start:stop].reshape(d, d)
    return u_mat


def unitarity_residual(fock: TruncatedFock, u_mat: np.ndarray) -> float:
    """||P (U* U - 1) P||_2 on the interior sectors, total number up to
    cutoff - 4."""
    mask = fock.sector_mask(fock.cutoff - 4)
    defect = u_mat.conj().T @ u_mat - np.eye(fock.dim)
    return hs_norm(defect[np.ix_(mask, mask)])


def conjugation_residual(fock: TruncatedFock, u_mat: np.ndarray,
                         spec_s: QuadraticSpec, spec_t: QuadraticSpec,
                         sector_cut: int) -> float:
    """Relative residual of U H(spec_s) U* = H(spec_t) on low sectors.

    The projection keeps total occupation <= sector_cut, which must leave a
    guard band below the cutoff (sector_cut <= cutoff - 4) so truncation
    leakage does not contaminate the comparison.  A negative sector_cut
    would project onto nothing and report a perfect match, so it is
    rejected too.
    """
    conjugated = u_mat @ hamiltonian_op(fock, spec_s) @ u_mat.conj().T
    return conjugated_residual(fock, conjugated, spec_t, sector_cut)


def conjugated_residual(fock: TruncatedFock, conjugated: np.ndarray,
                        spec_t: QuadraticSpec, sector_cut: int) -> float:
    """conjugation_residual from a precomputed conjugated = U H(spec_s) U*,
    so that several spec_t can be compared against one product."""
    if not 0 <= sector_cut <= fock.cutoff - 4:
        raise ValueError("sector_cut must lie in [0, cutoff - 4]")
    mask = fock.sector_mask(sector_cut)
    h_t = hamiltonian_op(fock, spec_t)
    diff = conjugated - h_t
    num = hs_norm(diff[np.ix_(mask, mask)])
    den = hs_norm(h_t[np.ix_(mask, mask)])
    if den == 0:
        return np.inf if num > 0 else 0.0
    return float(num / den)


def n_diag_residual(fock: TruncatedFock, spec: QuadraticSpec) -> float:
    """||P [H, N] P||_2 for H = H(spec) on the sectors up to total number
    cutoff - 2; exactly zero when B = 0.

    N is diagonal, so [H, N]_ij = H_ij N_j - N_i H_ij is formed entry by
    entry, with the same roundings as the products with number_op.
    """
    h = hamiltonian_op(fock, spec)
    mask = fock.sector_mask(fock.cutoff - 2)
    h, n = h[np.ix_(mask, mask)], fock.ntot[mask].astype(float)
    return hs_norm(h * n - n[:, np.newaxis] * h)


def ground_energy(fock: TruncatedFock, h) -> float:
    """Lowest eigenvalue of the truncated H.

    h may be a dense operator or a QuadraticSpec to build one from.
    """
    if isinstance(h, QuadraticSpec):
        h = hamiltonian_op(fock, h)
    h = (h + h.conj().T) / 2
    return float(np.linalg.eigvalsh(h)[0])


def ground_truncation_shift(fock: TruncatedFock, h, e0: Optional[float] = None) -> float:
    """Truncation-convergence estimate |E0(cutoff) - E0(cutoff - 4)|.

    h may be a dense operator or a QuadraticSpec to build one from, and e0,
    when given, is ground_energy(fock, h), already computed.  The basis of
    cutoff - 4 is the leading basis_dim(n_modes, cutoff - 4) states of the
    graded basis, and H there is the leading block of H: every ladder
    product between two of those states passes only through states of
    those sectors.
    """
    if fock.cutoff < 4:
        raise ValueError("need cutoff >= 4 for the comparison basis")
    if isinstance(h, QuadraticSpec):
        h = hamiltonian_op(fock, h)
    if e0 is None:
        e0 = ground_energy(fock, h)
    dim = basis_dim(fock.n_modes, fock.cutoff - 4)
    return abs(e0 - ground_energy(fock, h[:dim, :dim]))


def offdiag_relative_norm(fock: TruncatedFock, b) -> tuple:
    """Check ||(S + S*)(N+1)^{-1}||_op <= (4 + sqrt 2) ||B||_2, as
    (lhs, rhs, holds).

    The left side restricts inputs to total occupation <= cutoff - 2, where
    the truncated pair operators agree with the untruncated ones.
    """
    bm = as_matrix(b)
    s = _pair_sum(fock, bm)
    w = s + s.conj().T
    weights = 1.0 / (fock.ntot.astype(float) + 1.0)
    m = w * weights[np.newaxis, :]
    mask = fock.sector_mask(fock.cutoff - 2)
    sing = np.linalg.svd(m[:, mask], compute_uv=False)
    lhs = float(sing[0]) if sing.size else 0.0
    rhs = float(OFFDIAG_CONST * hs_norm(bm))
    return lhs, rhs, bool(lhs <= rhs * (1 + 1e-9))
