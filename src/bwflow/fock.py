"""Truncated Fock-space oracle.

Everything the flow claims about (Omega, B, C) can be checked against
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

Every term keeps the parity of the total number (adag_k a_l keeps the
number, the pair terms change it by 2), so H, G and U only have an
even-even and an odd-odd block, and the oracle works on those two parity
blocks.  They are built from one index table per basis and parity (_table),
made by integer arithmetic on the occupation rows: for each state m and mode
pair (k, l) it holds the row and weight of adag_k a_l|m> and of
adag_k adag_l|m>.  Each weight is the product sqrt(n) sqrt(n') of the two
ladder factors, and hamiltonian_blocks sums the terms in the order of the
sum of dense ladder products, so its blocks hold the entries of that dense
matrix bit for bit (the tests keep the ladder-product construction as their
reference).  hamiltonian_op scatters them into the dense matrix.  The
unitarity and conjugation residuals and the ground energies take either
the parity blocks or a dense operator, which is split into them.

Because the basis is graded, the pair term S = sum_kl B_kl adag_k adag_l only
maps sector N (total number N) to sector N + 2, and S* maps N + 2 back to N.
S only joins states that the pair operators of B's nonzero entries connect,
so U is zero between the connected components of that graph: with B =
antidiag(b) on two modes, for instance, every component keeps n_1 - n_2.
propagate therefore never forms G: it lays the components of each parity
out on one common sector profile and applies -i G U = 2 (S U - S* U) as one
small dense block S_{N+2,N} per sector to the whole stack of components,
which is all it steps, with the tolerance rescaled so that the error
criterion is that of the full U.  A B with every entry nonzero gives one
component per parity.

For real B the generator's -i G = 2 (S - S^t) is real, so U is real
orthogonal, and a path whose B samples are real (a trajectory of a real
spec; see QuadraticSpec.is_real) is propagated in float64 rather than
complex128, at sqrt(2) times the block tolerance: the M imaginary parts of
the complex blocks would be exactly zero and only dilute the stepper's RMS
error norm over 2M real components by sqrt(2), so this is the same error
criterion.  hamiltonian_blocks likewise builds a real H for a real spec,
and the truncated ground energy is then a real symmetric eigenvalue problem.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from math import comb
from typing import Optional

import numpy as np

from .errors import SizeLimit
from .flow import check_span
from .opcore import QuadraticSpec, hs_norm
from .stepping import DormandPrince, drive

# Largest basis dimension build_basis builds.
SIZE_LIMIT = 20000
# Bound on the peak bytes propagate holds per squared basis dimension: 18
# arrays of dim**2 complex values, the working set of stepping all of U.
# Stepping only the components of the pair term, with the stepper's sixteen
# stage rows and its scratch reused, tracemalloc measures, per dim**2 with
# two modes, the basis's index tables already built and the path warmed, 217
# and 208 bytes at cutoffs 12 and 20 for complex128 U and 110 and 104 for
# the float64 U of a real path when every entry of B is nonzero (one
# component per parity, about dim**2 / 2 entries), and 51 and 36, or 27 and
# 19, for the README block's B, whose components keep n_1 - n_2, so the
# bound holds for all of them (test_propagate_working_set checks this at
# cutoff 12).
# check_propagate_size refuses a basis whose working set would exceed
# PROPAGATE_MEMORY_LIMIT bytes, which for two modes allows cutoffs up to 60;
# it sizes every path as complex, so the same cutoffs are refused either way.
PROPAGATE_BYTES_PER_DIM2 = 18 * 16
PROPAGATE_MEMORY_LIMIT = 2 ** 30
# Consecutive sectors are merged into one block until it acts on at least
# this many states, so that a one-mode basis (one state per sector) does not
# pay two matmul calls per sector on every right-hand-side evaluation.
MIN_BLOCK_STATES = 16
# The two operators of an index table: adag_k a_l and adag_k adag_l.
HOP, PAIR = 0, 1


@dataclass
class TruncatedFock:
    """Occupation basis of n_modes bosons with total number <= cutoff."""

    n_modes: int
    cutoff: int
    occs: np.ndarray            # (dim, n_modes) int occupation rows
    ntot: np.ndarray            # (dim,) total occupation per row
    _tables: dict = field(default_factory=dict, repr=False)

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
    return TruncatedFock(n_modes=n_modes, cutoff=cutoff, occs=occ_arr,
                         ntot=occ_arr.sum(axis=1))


def _locate(occ: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Row of occ equal to each target row; occ holds distinct rows and
    contains every target.  Sorted together by a stable sort, each run of
    equal rows starts with its row of occ."""
    both = np.concatenate([occ, targets])
    order = np.lexsort(both.T[::-1])
    starts = np.where(order < len(occ), np.arange(len(order)), 0)
    rows = np.empty(len(both), dtype=int)
    rows[order] = order[np.maximum.accumulate(starts)]
    return rows[len(occ):]


def _table(fock: TruncatedFock, parity: int):
    """Index table of the parity sub-basis, built once per basis.

    Returns (idx, rows, weights).  idx lists the basis rows of the states
    whose total number has the given parity, in graded order.  rows and
    weights are (2, n_modes**2, len(idx)) arrays: for the j-th state |m> of
    the sub-basis and kl = k * n_modes + l,

        adag_k a_l |m>     = weights[HOP, kl, j]  |rows[HOP, kl, j]>,
        adag_k adag_l |m>  = weights[PAIR, kl, j] |rows[PAIR, kl, j]>,

    with rows counted in the sub-basis (both operators keep the parity).
    Where the operator annihilates |m> or raises it past the cutoff the row
    is -1 and the weight 0.  A weight is sqrt(n'_k) sqrt(n_l) or
    sqrt(n'_k) sqrt(n_l + 1), the factors of adag_k and of a_l or adag_l,
    as the product of the two ladder matrices forms it.
    """
    if parity not in fock._tables:
        n = fock.n_modes
        idx = np.flatnonzero(fock.ntot % 2 == parity)
        occ = fock.occs[idx]
        rows = np.full((2, n * n, len(idx)), -1)
        weights = np.zeros((2, n * n, len(idx)))
        raised = fock.ntot[idx] + 2 <= fock.cutoff
        for kl, (k, l) in enumerate(itertools.product(range(n), repeat=2)):
            for op, ok, dl in ((HOP, occ[:, l] >= 1, -1), (PAIR, raised, 1)):
                target = occ[ok]
                first = np.sqrt(target[:, l] + max(dl, 0))   # a_l's or adag_l's factor
                target[:, l] += dl
                target[:, k] += 1
                weights[op, kl, ok] = np.sqrt(target[:, k]) * first
                rows[op, kl, ok] = _locate(occ, target)
        fock._tables[parity] = idx, rows, weights
    return fock._tables[parity]


def _leading(fock: TruncatedFock, parity: int, max_total: int) -> int:
    """Number of states of the parity sub-basis with total number <= max_total,
    which lead it, since it is graded."""
    return int(np.count_nonzero(fock.ntot[_table(fock, parity)[0]] <= max_total))


def _term_block(rows: np.ndarray, weights: np.ndarray, coefs: np.ndarray) -> np.ndarray:
    """sum_kl coefs_kl O_kl on a sub-basis, for the operators O_kl of one
    index table (rows, weights; see _table), in the dtype of coefs.

    The terms are added one kl at a time in order and zero coefficients are
    skipped, as the dense sum of coefficient times ladder product adds
    them, so every entry takes the same roundings.
    """
    out = np.zeros((rows.shape[1], rows.shape[1]), dtype=coefs.dtype)
    for r, w, coef in zip(rows, weights, coefs.ravel()):
        if coef != 0:
            ok = r >= 0
            out[r[ok], np.flatnonzero(ok)] += coef * w[ok]
    return out


def shifted(blocks, c: float) -> list:
    """The blocks of H + c from the blocks of H."""
    return [h + c * np.eye(len(h)) for h in blocks]


def hamiltonian_blocks(fock: TruncatedFock, spec: QuadraticSpec) -> list:
    """The even and odd parity blocks of H(spec), on the sub-bases of
    _table, from its index tables.

    Each term is summed as the dense sum of ladder products sums it, so the
    blocks are that matrix's even-even and odd-odd blocks bit for bit, and
    exactly hermitian.  A real spec (spec.is_real) gives real symmetric
    float64 blocks, any other complex128 ones.
    """
    if spec.dim != fock.n_modes:
        raise ValueError("spec dimension does not match mode count")
    omega, b = (spec.omega.real, spec.b.real) if spec.is_real else (spec.omega, spec.b)
    blocks = []
    for parity in (0, 1):
        _, rows, weights = _table(fock, parity)
        s = _term_block(rows[PAIR], weights[PAIR], b)
        blocks.append(_term_block(rows[HOP], weights[HOP], omega) + s + s.conj().T)
    return shifted(blocks, spec.c0)


def _dense(fock: TruncatedFock, blocks) -> np.ndarray:
    """The dim x dim matrix with the given parity blocks, zero elsewhere."""
    out = np.zeros((fock.dim, fock.dim), dtype=np.result_type(*blocks))
    for parity, block in enumerate(blocks):
        idx = _table(fock, parity)[0]
        out[np.ix_(idx, idx)] = block
    return out


def hamiltonian_op(fock: TruncatedFock, spec: QuadraticSpec) -> np.ndarray:
    """Dense matrix of H(spec) on the truncated space: the parity blocks of
    hamiltonian_blocks, and exact zeros between states of opposite parity."""
    return _dense(fock, hamiltonian_blocks(fock, spec))


def parity_blocks(fock: TruncatedFock, m) -> list:
    """The even and odd parity blocks of an operator.

    m is a dense dim x dim matrix, a QuadraticSpec (for H(spec)) or already
    the list of its two blocks.  A dense matrix with a nonzero entry
    between states of opposite parity raises ValueError.
    """
    if isinstance(m, QuadraticSpec):
        return hamiltonian_blocks(fock, m)
    if not isinstance(m, np.ndarray):
        return list(m)
    blocks = [m[np.ix_(idx, idx)] for idx in (_table(fock, p)[0] for p in (0, 1))]
    if np.count_nonzero(m) != sum(map(np.count_nonzero, blocks)):
        raise ValueError("operator does not keep the parity of the total number")
    return blocks


def _norm(blocks) -> float:
    """Hilbert-Schmidt norm of a block-diagonal operator from its blocks."""
    return math.hypot(*map(hs_norm, blocks))


def hermiticity_residual(m) -> float:
    """||M - M*||_2 of a dense M, or of the block-diagonal M with the
    blocks in the list m."""
    return _norm([b - b.conj().T for b in ([m] if isinstance(m, np.ndarray) else m)])


def check_propagate_size(dim: int) -> None:
    """Raise SizeLimit when propagate's working set on a basis of this
    dimension would exceed PROPAGATE_MEMORY_LIMIT bytes."""
    need = PROPAGATE_BYTES_PER_DIM2 * dim * dim
    if need > PROPAGATE_MEMORY_LIMIT:
        raise SizeLimit(
            f"propagating on basis dimension {dim} needs about {need / 2**30:.1f} GiB, "
            f"over the {PROPAGATE_MEMORY_LIMIT / 2**30:.1f} GiB limit")


def _components(fock: TruncatedFock, parity: int, support: np.ndarray) -> np.ndarray:
    """Connected components of the pair term's graph on one parity sub-basis.

    support is the (n_modes, n_modes) bool mask of the entries of B that
    may be nonzero.  The graph joins each state |m> of the sub-basis (see
    _table) to adag_k adag_l |m> for every (k, l) in the support, as the
    PAIR index table lists it, so S, G and U only have entries between
    states of one component.  Returns the component of each state,
    numbered in the graded order of the components' first states.
    """
    _, rows, _ = _table(fock, parity)
    targets = rows[PAIR][support.ravel()]
    ok = targets >= 0
    src, dst = np.nonzero(ok)[1], targets[ok]
    label = np.arange(rows.shape[2])
    while True:   # hook every edge to its lower label and jump, to a fixpoint
        new = label.copy()
        np.minimum.at(new, src, label[dst])
        np.minimum.at(new, dst, label[src])
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    # each label is now the first state of its component
    return np.cumsum(label == np.arange(len(label)))[label] - 1


def _pair_blocks(fock: TruncatedFock, parity: int, support: np.ndarray):
    """The pair term S on one parity sub-basis, for B on the support, as
    blocks of a stack of its components.

    A component of one state has no pair entry.  The g components of
    _components with more than one state are laid out on one common
    profile of D slots: sector N (of the given parity) takes a run of as
    many slots as the most states any component has in N, and each
    component's states of sector N fill the leading slots of that run in
    graded order.  The slots a component leaves empty are phantoms, whose
    rows and columns of S are zero.  Runs of consecutive sectors with
    fewer than MIN_BLOCK_STATES slots are merged into one block, so that a
    one-mode basis (one state per sector) does not pay two matmul calls
    per sector.

    Returns (comp, slot, shape, blocks, weights).  comp and slot are the
    component and slot of each state of the sub-basis, comp -1 for a
    component of one state, and shape is (g, D, D).  Each block is
    (rows, cols, shape, lo, hi), slot slices where the stack S[:, rows,
    cols] holds every entry of S in the columns cols, and weights[kl,
    lo:hi] is 2 adag_k adag_l restricted to that stack and flattened, so
    that sum_kl B_kl weights[kl, lo:hi] is 2 S[:, rows, cols].  The
    weights are read off the PAIR index table (see _table), which holds
    every nonzero entry of adag_k adag_l, and keep those that join two
    states of one component.
    """
    idx, table_rows, table_weights = _table(fock, parity)
    comp = _components(fock, parity, support)
    sizes = np.bincount(comp)
    comp = np.where(sizes[comp] > 1, np.cumsum(sizes > 1)[comp] - 1, -1)
    g = int(np.count_nonzero(sizes > 1))
    sector = (fock.ntot[idx] - parity) // 2
    n_sectors = (fock.cutoff - parity) // 2 + 1
    stacked = np.flatnonzero(comp >= 0)
    # the rank of each stacked state among the states of its component in
    # its sector; the sub-basis is graded, so a stable sort by (sector,
    # component) keeps each run in graded order
    key = sector[stacked] * g + comp[stacked]
    order = np.argsort(key, kind="stable")
    rank = np.empty(len(key), dtype=int)
    rank[order] = np.arange(len(key)) - np.searchsorted(key[order], key[order])
    counts = np.bincount(key, minlength=n_sectors * g).reshape(n_sectors, g)
    off = np.concatenate([[0], np.cumsum(counts.max(axis=1, initial=0))])
    slot = np.full(len(idx), -1)
    slot[stacked] = off[sector[stacked]] + rank
    top = (fock.cutoff - 2 - parity) // 2     # highest sector S maps inside the cutoff
    blocks, lo, first = [], 0, 0
    while first <= top:
        last = first
        while last < top and off[last + 1] - off[first] < MIN_BLOCK_STATES:
            last += 1
        cols = slice(off[first], off[last + 1])
        rows = slice(off[first + 1], off[last + 2])
        shape = (g, rows.stop - rows.start, cols.stop - cols.start)
        blocks.append((rows, cols, shape, lo, lo + math.prod(shape)))
        lo += math.prod(shape)
        first = last + 1
    weights = np.zeros((fock.n_modes ** 2, lo))
    for rows, cols, (_, n_rows, n_cols), start, _ in blocks:
        j = stacked[(slot[stacked] >= cols.start) & (slot[stacked] < cols.stop)]
        to = table_rows[PAIR][:, j]
        kl, at = np.nonzero((to >= 0) & (comp[to] == comp[j]))
        j, to = j[at], to[kl, at]
        pos = start + (comp[j] * n_rows + slot[to] - rows.start) * n_cols + slot[j] - cols.start
        weights[kl, pos] = 2.0 * table_weights[PAIR][kl, j]
    return comp, slot, (g, int(off[-1]), int(off[-1])), blocks, weights


class _Widened(Exception):
    """A sample of B with a nonzero entry outside the support that the
    propagator was laid out for; support is the widened mask."""

    def __init__(self, support: np.ndarray):
        super().__init__("B left its support")
        self.support = support


def propagate_blocks(fock: TruncatedFock, bpath, s: float, t: float,
                     tol: float = 1e-10) -> list:
    """Solve dU/dtau = -i G_tau U over [s, t], U_{s,s} = 1, for the even and
    odd parity blocks of U.

    bpath is any B-path, such as a flow trajectory, whose interpolated B_tau
    is then used; the span and the path's window follow flow.check_span.

    G changes the total number by +-2, so U keeps its parity: only the
    blocks U_p = U[idx_p, idx_p] of the even and odd sub-bases (see _table)
    are nonzero.  Within each, G only joins states of one component of the
    pair term's graph over the support of B (see _components), so U_p is
    zero between components, and a component of one state keeps its
    diagonal entry 1.  The stepper advances one vector holding, for each
    parity, the (g, D, D) stack of _pair_blocks, its phantom slots zero
    from the start, and the diagonal entries of the components of one
    state, whose derivative is zero.  The right-hand side
    -i G U = 2 (S U - S* U) is applied block by block on each stack: each
    block S_{N+2,N} multiplies the rows of sector N into the rows of sector
    N + 2, and its adjoint the rows of N + 2 back into N.  Returns the list
    [U_0, U_1], with the stacks scattered back.

    The stepper's RMS error norm over the full U would count the entries
    that stay zero, so it is the norm over the stepped entries times
    sqrt(stepped entries / dim**2); rtol = atol = tol scaled by the inverse
    of that factor is therefore the same error criterion as stepping all of
    U with tol.  All dim diagonal ones of U are stepped, so that Hairer's
    initial step, which reads the norm of U_s, is that of the full U too.

    The support and the arithmetic's dtype are those of the path's first
    sample, at s, which is also the sample the first right-hand-side
    evaluation uses, so choosing them costs no path call.  A later sample
    with a nonzero entry outside the support restarts the propagation from
    s with the support widened by that sample's.  A float64 B (a trajectory
    of a real spec) gives a real G, and U is stepped and returned as
    float64 with the stepped tolerance times sqrt(2): the imaginary half of
    a complex U would be exactly zero and only dilute the RMS norm over its
    real components by sqrt(2), so this is again the same error criterion.
    Any other B, such as that of a FunctionBPath, which returns complex128,
    keeps U complex128.  A path that returns a complex B with a nonzero
    imaginary part after a real first sample raises ValueError.
    """
    check_span(bpath, s, t)
    if t == s:
        return [np.eye(len(_table(fock, p)[0]), dtype=complex) for p in (0, 1)]
    check_propagate_size(fock.dim)
    first = np.asarray(bpath(s))
    support = first != 0
    while True:
        try:
            return _propagate_on_support(fock, bpath, s, t, tol, first, support)
        except _Widened as widened:
            support = widened.support


def _propagate_on_support(fock: TruncatedFock, bpath, s: float, t: float, tol: float,
                          first: np.ndarray, support: np.ndarray) -> list:
    """propagate_blocks with the stepper laid out for B on the support;
    first is the path's sample at s.  A sample outside the support raises
    _Widened."""
    layouts = [_pair_blocks(fock, p, support) for p in (0, 1)]
    real = not np.iscomplexobj(first)
    dtype = float if real else complex
    stacks = [math.prod(shape) for _, _, shape, _, _ in layouts]
    singles = [np.flatnonzero(comp < 0) for comp, _, _, _, _ in layouts]
    ends = np.cumsum([0] + [n + len(one) for n, one in zip(stacks, singles)])
    pending = [first]  # the first evaluation's sample

    def fun(tau, y, dy):
        b = pending.pop() if pending else np.asarray(bpath(tau))
        if real and np.iscomplexobj(b):
            if b.imag.any():
                raise ValueError(f"complex B at tau = {tau:.6g} on a path whose "
                                 f"first sample was real")
            b = b.real
        if b[~support].any():
            raise _Widened(support | (b != 0))
        b = b.astype(dtype, copy=False).ravel()
        dy.fill(0)
        for (_, _, shape, blocks, weights), start, n in zip(layouts, ends, stacks):
            s_flat = b @ weights                         # the 2 S blocks, flattened
            u = y[start:start + n].reshape(shape)
            du = dy[start:start + n].reshape(shape)
            for rows, cols, blk_shape, lo, hi in blocks:
                s_blk = s_flat[lo:hi].reshape(blk_shape)
                du[:, rows] += s_blk @ u[:, cols]
                du[:, cols] -= np.swapaxes(s_blk.conj(), -1, -2) @ u[:, rows]

    y0 = np.zeros(ends[-1], dtype=dtype)
    for (comp, slot, shape, _, _), start, stop, n in zip(layouts, ends, ends[1:], stacks):
        on = comp >= 0
        y0[start:start + n].reshape(shape)[comp[on], slot[on], slot[on]] = 1
        y0[start + n:stop] = 1
    tol_stepped = tol * np.sqrt(fock.dim * fock.dim / ends[-1]) * (np.sqrt(2.0) if real else 1.0)
    y = drive(DormandPrince(fun, s, y0, t, tol_stepped, tol_stepped)).state
    out = []
    for (comp, slot, shape, _, _), one, start, stop, n in zip(layouts, singles, ends,
                                                              ends[1:], stacks):
        stack = y[start:start + n].reshape(shape)
        u = np.zeros((len(comp), len(comp)), dtype=dtype)
        k = np.flatnonzero(comp >= 0)
        u[np.ix_(k, k)] = np.where(comp[k, None] == comp[k],
                                   stack[comp[k, None], slot[k, None], slot[k]], 0)
        u[one, one] = y[start + n:stop]
        out.append(u)
    return out


def propagate(fock: TruncatedFock, bpath, s: float, t: float,
              tol: float = 1e-10) -> np.ndarray:
    """U_{s,t} of propagate_blocks as a dim x dim matrix, exactly zero
    between states of opposite parity."""
    return _dense(fock, propagate_blocks(fock, bpath, s, t, tol))


def unitarity_residual(fock: TruncatedFock, u) -> float:
    """||P (U* U - 1) P||_2 on the interior sectors, total number up to
    cutoff - 4.

    u is U or its parity blocks (see parity_blocks).  P U* U P only takes
    the leading columns of each block, those of the interior sectors.
    """
    defects = []
    for parity, u_p in enumerate(parity_blocks(fock, u)):
        cols = u_p[:, :_leading(fock, parity, fock.cutoff - 4)]
        defects.append(cols.conj().T @ cols - np.eye(cols.shape[1]))
    return _norm(defects)


def _check_sector_cut(fock: TruncatedFock, sector_cut: int) -> None:
    if not 0 <= sector_cut <= fock.cutoff - 4:
        raise ValueError("sector_cut must lie in [0, cutoff - 4]")


def conjugate(fock: TruncatedFock, u, h, sector_cut: int) -> list:
    """The leading parts, total number <= sector_cut, of the parity blocks
    of U H U*.

    u and h are operators as parity_blocks takes them.  P U H U* P takes
    only the leading rows of each block of U, those of the kept sectors.
    """
    _check_sector_cut(fock, sector_cut)
    out = []
    for parity, (u_p, h_p) in enumerate(zip(parity_blocks(fock, u), parity_blocks(fock, h))):
        rows = u_p[:_leading(fock, parity, sector_cut)]
        out.append(rows @ h_p @ rows.conj().T)
    return out


def conjugation_residual(fock: TruncatedFock, u_mat, spec_s: QuadraticSpec,
                         spec_t: QuadraticSpec, sector_cut: int) -> float:
    """Relative residual of U H(spec_s) U* = H(spec_t) on low sectors.

    The projection keeps total occupation <= sector_cut, which must leave a
    guard band below the cutoff (sector_cut <= cutoff - 4) so truncation
    leakage does not contaminate the comparison.  A negative sector_cut
    would project onto nothing and report a perfect match, so it is
    rejected too.  u_mat is U or its parity blocks.
    """
    return conjugated_residual(fock, conjugate(fock, u_mat, spec_s, sector_cut),
                               spec_t, sector_cut)


def conjugated_residual(fock: TruncatedFock, conjugated: list, h_t,
                        sector_cut: int) -> float:
    """conjugation_residual from conjugated = conjugate(fock, U, H_s,
    sector_cut), so that several H_t (a QuadraticSpec or parity blocks) can
    be compared against one product."""
    _check_sector_cut(fock, sector_cut)
    diffs, refs = [], []
    for parity, (c_p, h_p) in enumerate(zip(conjugated, parity_blocks(fock, h_t))):
        n = _leading(fock, parity, sector_cut)
        refs.append(h_p[:n, :n])
        diffs.append(c_p - refs[-1])
    num, den = _norm(diffs), _norm(refs)
    if den == 0:
        return np.inf if num > 0 else 0.0
    return float(num / den)


def n_diag_residual(fock: TruncatedFock, spec: QuadraticSpec) -> float:
    """||P [H, N] P||_2 for H = H(spec) on the sectors up to total number
    cutoff - 2; exactly zero when B = 0.

    N is diagonal, so [H, N]_ij = H_ij N_j - N_i H_ij is formed entry by
    entry, with the same roundings as the products with the dense diagonal
    N, and on the dense H, so that the norm sums the entries in the same
    order.
    """
    h = hamiltonian_op(fock, spec)
    mask = fock.sector_mask(fock.cutoff - 2)
    h, n = h[np.ix_(mask, mask)], fock.ntot[mask].astype(float)
    return hs_norm(h * n - n[:, np.newaxis] * h)


def ground_energy(fock: TruncatedFock, h) -> float:
    """Lowest eigenvalue of the truncated H.

    h may be a dense operator, a QuadraticSpec to build one from, or the
    list of the parity blocks of H, whose lowest eigenvalue is the smaller
    of the blocks' ones.  The dense and the block forms agree to rounding,
    not bit for bit.
    """
    if isinstance(h, QuadraticSpec):
        h = hamiltonian_op(fock, h)
    blocks = [h] if isinstance(h, np.ndarray) else h
    return min(float(np.linalg.eigvalsh((b + b.conj().T) / 2)[0]) for b in blocks if len(b))


def ground_truncation_shift(fock: TruncatedFock, h, e0: Optional[float] = None) -> tuple:
    """Truncation-convergence estimate (shift, floor): the shift
    |E0(cutoff) - E0(cutoff - 4)| and the rounding floor below which its
    digits are noise.

    h is as ground_energy takes it, and e0, when given, is
    ground_energy(fock, h), already computed.  The basis of cutoff - 4 is
    the leading basis_dim(n_modes, cutoff - 4) states of the graded basis,
    and the leading states of each parity block, and H there is the leading
    block of H or of its parity blocks: every ladder product between two of
    those states passes only through states of those sectors.

    eigvalsh finds each E0 to within a few eps ||H||_2, and the shift is
    the difference of two of them, so its digits below about eps ||H||_2
    are rounding.  The floor is eps ||H||_inf, with ||H||_inf the largest
    absolute row sum of H (an upper bound on ||H||_2, for a hermitian H): a
    shift below it is not resolved (fock-verify prints "< floor").  This
    marks the resolution of the estimate, not a proven bound on the true
    shift, whose rounding error can be a few times the floor.
    """
    if fock.cutoff < 4:
        raise ValueError("need cutoff >= 4 for the comparison basis")
    if isinstance(h, QuadraticSpec):
        h = hamiltonian_op(fock, h)
    if e0 is None:
        e0 = ground_energy(fock, h)
    blocks = [h] if isinstance(h, np.ndarray) else h
    if isinstance(h, np.ndarray):
        dims = [basis_dim(fock.n_modes, fock.cutoff - 4)]
    else:
        dims = [_leading(fock, parity, fock.cutoff - 4) for parity in (0, 1)]
    shift = abs(e0 - ground_energy(fock, [h_p[:d, :d] for h_p, d in zip(blocks, dims)]))
    floor = float(np.finfo(float).eps) * max(float(np.abs(b).sum(axis=1).max()) for b in blocks)
    return shift, floor
