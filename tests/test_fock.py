import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from bwflow import cli, flow, fock
from bwflow.errors import SizeLimit
from bwflow.opcore import QuadraticSpec, hs_norm
from bwflow.stepping import DormandPrince, drive
from conftest import writes_into
import fock_reference as ref
from flow_reference import FunctionBPath


def dense_propagate(fk, bpath, s, t, tol=1e-10):
    """Reference propagator: the dense -i G_tau U right-hand side that
    fock.propagate replaces, with the same stepper, state layout and
    tolerances."""
    dim = fk.dim
    if t == s:
        return np.eye(dim, dtype=complex)
    nn = fk.n_modes
    pair_stack = np.stack([ref.pair(fk, k, l).astype(complex)
                           for k in range(nn) for l in range(nn)])

    def gen(tau):
        b = np.asarray(bpath(min(max(tau, bpath.t0), bpath.t1)), dtype=complex)
        s_op = np.tensordot(b.ravel(), pair_stack, axes=([0], [0]))
        return 2j * (s_op - s_op.conj().T)

    d2 = dim * dim

    def fun(tau, y):
        u = y[:d2].reshape(dim, dim) + 1j * y[d2:].reshape(dim, dim)
        du = -1j * (gen(tau) @ u)
        return np.concatenate([du.real.ravel(), du.imag.ravel()])

    eye = np.eye(dim, dtype=complex)
    y0 = np.concatenate([eye.real.ravel(), eye.imag.ravel()])
    y = drive(DormandPrince(writes_into(fun), s, y0, t, tol, tol)).y
    return y[:d2].reshape(dim, dim) + 1j * y[d2:].reshape(dim, dim)


class CountingPath(FunctionBPath):
    """A FunctionBPath that counts its evaluations (one per RHS call)."""

    def __init__(self, fn, t0, t1):
        super().__init__(fn, t0, t1)
        self.calls = 0

    def __call__(self, t):
        self.calls += 1
        return super().__call__(t)


def complex_symmetric_path(n_modes):
    """A time-dependent complex-symmetric B_t on [0, 1.5]."""
    m0, m1 = np.random.default_rng(7 + n_modes).normal(size=(2, n_modes, n_modes))
    b0, b1 = 0.15 * (m0 + m0.T), 0.1j * (m1 + m1.T)

    def fn(t):
        return b0 * np.cos(2.0 * t) + b1 * (1.0 + t) + 0.05j * t * t * np.eye(n_modes)

    return CountingPath(fn, 0.0, 1.5)


@pytest.fixture(scope="module")
def one_mode():
    return fock.build_basis(1, 12)


@pytest.fixture(scope="module")
def two_mode():
    return fock.build_basis(2, 8)


def test_basis_sizes_and_grading():
    fk = fock.build_basis(1, 5)
    assert fk.dim == 6
    assert list(fk.ntot) == [0, 1, 2, 3, 4, 5]
    fk2 = fock.build_basis(2, 3)
    assert fk2.dim == 10
    # graded by total number, then lexicographic within a sector
    assert [tuple(o) for o in fk2.occs[:4]] == [(0, 0), (0, 1), (1, 0), (0, 2)]
    assert np.all(np.diff(fk2.ntot) >= 0)


def test_basis_guards():
    with pytest.raises(SizeLimit):
        fock.build_basis(3, 50)
    with pytest.raises(ValueError):
        fock.build_basis(0, 5)
    with pytest.raises(ValueError):
        fock.build_basis(1, -1)


def test_ladder_matrix_elements(one_mode):
    a = ref.ladder(one_mode, 0)
    for n in range(1, one_mode.cutoff + 1):
        assert a[n - 1, n] == np.sqrt(n)
    assert np.count_nonzero(a) == one_mode.cutoff
    adag = ref.ladder(one_mode, 0, "create")
    assert np.array_equal(adag, a.T)
    with pytest.raises(ValueError):
        ref.ladder(one_mode, 1)
    with pytest.raises(ValueError):
        ref.ladder(one_mode, 0, "lower")


def test_number_operator(two_mode):
    n_op = np.diag(two_mode.ntot.astype(float))
    assert np.array_equal(np.diag(n_op), two_mode.ntot.astype(float))
    assert np.count_nonzero(n_op - np.diag(np.diag(n_op))) == 0
    # it is sum_k adag_k a_k, which stays within the truncated space
    number = sum(ref.ladder(two_mode, k, "create") @ ref.ladder(two_mode, k) for k in range(2))
    assert hs_norm(n_op - number) < 1e-13


def test_ccr_on_interior(two_mode):
    # [a_j, adag_k] = delta_jk below the cutoff; the top sector truncates
    mask = two_mode.sector_mask(two_mode.cutoff - 1)
    for j in range(2):
        for k in range(2):
            aj = ref.ladder(two_mode, j)
            adk = ref.ladder(two_mode, k, "create")
            comm = aj @ adk - adk @ aj
            want = np.eye(two_mode.dim) if j == k else np.zeros_like(comm)
            assert hs_norm(comm[np.ix_(mask, mask)]
                           - want[np.ix_(mask, mask)]) < 1e-13


def test_hamiltonian_hermitian_and_elements(one_mode):
    spec = QuadraticSpec.from_matrices([[2.0]], [[0.5]], c0=0.25)
    h = fock.hamiltonian_op(one_mode, spec)
    assert fock.hermiticity_residual(h) < 1e-13
    assert h[0, 0] == 0.25                        # scalar on the vacuum
    assert h[1, 1] == pytest.approx(2.25)          # omega + c
    assert h[2, 0] == pytest.approx(np.sqrt(2) * 0.5)   # pair creation
    assert h[0, 2] == pytest.approx(np.sqrt(2) * 0.5)
    with pytest.raises(ValueError):
        fock.hamiltonian_op(one_mode, QuadraticSpec.from_matrices(
            np.eye(2), np.zeros((2, 2))))


def test_generator_is_number_commutator(two_mode):
    b = np.array([[0.3, 0.1], [0.1, -0.2]])
    g = ref.generator_op(two_mode, b)
    assert fock.hermiticity_residual(g) < 1e-13
    spec = QuadraticSpec.from_matrices(np.zeros((2, 2)), b)
    h = fock.hamiltonian_op(two_mode, spec)
    n_op = np.diag(two_mode.ntot.astype(float))
    comm = 1j * (n_op @ h - h @ n_op)
    mask = two_mode.sector_mask(two_mode.cutoff - 2)
    assert hs_norm((g - comm)[np.ix_(mask, mask)]) < 1e-12


def test_generator_matrix_element(one_mode):
    g = ref.generator_op(one_mode, [[0.5]])
    assert g[2, 0] == pytest.approx(2j * np.sqrt(2) * 0.5)
    assert g[0, 2] == pytest.approx(-2j * np.sqrt(2) * 0.5)


def test_propagate_constant_generator(one_mode):
    b = np.array([[0.2]])
    path = FunctionBPath(lambda t: b, 0.0, 1.0)
    u = fock.propagate(one_mode, path, 0.0, 1.0)
    g = ref.generator_op(one_mode, b)
    assert hs_norm(u - expm(-1j * g)) < 1e-8
    assert fock.unitarity_residual(one_mode, u) < 1e-8
    assert hs_norm(fock.propagate(one_mode, path, 0.5, 0.5)
                   - np.eye(one_mode.dim)) == 0.0


README_SPEC = QuadraticSpec.from_matrices([[1.0, 0.0], [0.0, 2.0]], [[0.0, 0.5], [0.5, 0.0]])


def readme_block_path(n_modes):
    """The README block's trajectory to t = 1.5, as a complex FunctionBPath:
    B_12 = B_21 only, so the pair term keeps n_1 - n_2."""
    traj = flow.integrate(README_SPEC, 1.5)
    return CountingPath(traj, traj.t0, traj.t1)


@pytest.mark.parametrize("n_modes, cutoff, make_path", [
    (1, 12, complex_symmetric_path), (2, 8, complex_symmetric_path),
    (1, 13, complex_symmetric_path), (2, 7, complex_symmetric_path),
    (2, 9, complex_symmetric_path), (2, 12, readme_block_path)],
    ids=["1-12", "2-8", "1-13", "2-7", "2-9", "readme-2-12"])
def test_propagate_matches_dense_reference(n_modes, cutoff, make_path):
    fk = fock.build_basis(n_modes, cutoff)
    block_path, dense_path = make_path(n_modes), make_path(n_modes)
    u = fock.propagate(fk, block_path, 0.1, 1.4)
    u_ref = dense_propagate(fk, dense_path, 0.1, 1.4)
    assert block_path.calls == dense_path.calls > 20
    assert np.abs(u - u_ref).max() < 1e-12
    assert fock.unitarity_residual(fk, u) < 1e-8


def stacked_to_parity_block(comp, slot, stack):
    """The parity block of the operator whose component stack is stack,
    zero between components."""
    k = np.flatnonzero(comp >= 0)
    out = np.zeros((len(comp), len(comp)), dtype=stack.dtype)
    out[np.ix_(k, k)] = np.where(comp[k, None] == comp[k],
                                 stack[comp[k, None], slot[k, None], slot[k]], 0)
    return out


@pytest.mark.parametrize("n_modes, cutoff", [(1, 0), (1, 3), (1, 40), (2, 1),
                                             (2, 8), (2, 20)])
def test_pair_blocks_cover_the_pair_term(n_modes, cutoff):
    # scattered back from the component stacks through each parity's idx,
    # the blocks of both parities hold every nonzero entry of S exactly
    # once, with the weights of the dense pair products, for a B with every
    # entry nonzero and, on two modes, for the README block's antidiagonal B
    fk = fock.build_basis(n_modes, cutoff)
    full = np.arange(1, n_modes * n_modes + 1).reshape(n_modes, n_modes) * (0.3 - 0.2j)
    for b in [full] + ([full * np.eye(2)[::-1]] if n_modes == 2 else []):
        s_op = np.zeros((fk.dim, fk.dim), dtype=complex)
        covered, n_blocks = [], []
        for parity in (0, 1):
            idx = fock._table(fk, parity)[0]
            assert np.array_equal(idx, np.flatnonzero(fk.ntot % 2 == parity))
            comp, slot, shape, blocks, weights = fock._pair_blocks(fk, parity, b != 0)
            s_flat = b.ravel() @ weights
            stack = np.zeros(shape, dtype=complex)
            for rows, cols, blk_shape, lo, hi in blocks:
                assert blk_shape == (shape[0], rows.stop - rows.start, cols.stop - cols.start)
                stack[:, rows, cols] += s_flat[lo:hi].reshape(blk_shape)
            s_p = stacked_to_parity_block(comp, slot, stack)
            # no entry of the stack is lost on a phantom slot
            assert np.count_nonzero(s_p) == np.count_nonzero(stack)
            s_op[np.ix_(idx, idx)] += s_p
            # within a parity, the columns are split into consecutive blocks
            cols_p = [i for _, cols, _, _, _ in blocks for i in range(cols.start, cols.stop)]
            assert cols_p == list(range(len(cols_p)))
            covered.extend(idx[(comp >= 0) & np.isin(slot, cols_p)])
            n_blocks.append(len(blocks))
        want = 2 * ref.pair_sum(fk, b)
        assert np.array_equal(s_op != 0, want != 0)
        assert np.abs(s_op - want).max() <= 1e-15 * max(1.0, np.abs(want).max())
        # the columns of sectors 0..cutoff-2 are each covered by one block
        assert sorted(covered) == list(range(int(np.sum(fk.ntot <= cutoff - 2))))
        if n_modes == 1 and cutoff == 40:
            assert n_blocks == [2, 2]       # sectors merged to >= MIN_BLOCK_STATES


def random_support(n_modes, rng):
    """A random symmetric mask of B's entries."""
    m = rng.random((n_modes, n_modes)) < 0.5
    return m | m.T


@pytest.mark.parametrize("n_modes", [1, 2, 3])
@pytest.mark.parametrize("cutoff", [4, 7, 12, 16])
def test_components_are_the_pair_graph_components(n_modes, cutoff):
    # on random supports the components partition each parity class, are
    # closed under every pair operator of the support, and are exactly the
    # connected components of the graph of the dense pair products
    from scipy.sparse.csgraph import connected_components

    fk = fock.build_basis(n_modes, cutoff)
    rng = np.random.default_rng(100 * n_modes + cutoff)
    pairs = {(k, l): ref.pair(fk, k, l) for k in range(n_modes) for l in range(n_modes)}
    for support in [random_support(n_modes, rng) for _ in range(4)]:
        for parity in (0, 1):
            idx, rows, _ = fock._table(fk, parity)
            comp = fock._components(fk, parity, support)
            assert comp.shape == idx.shape
            # numbered in the order of the components' first states
            firsts = [int(np.flatnonzero(comp == c)[0]) for c in range(comp.max() + 1)]
            assert firsts == sorted(firsts) and firsts[0] == 0
            for kl in np.flatnonzero(support.ravel()):
                ok = rows[fock.PAIR, kl] >= 0
                assert np.array_equal(comp[rows[fock.PAIR, kl][ok]], comp[ok])
            adjacency = sum((pairs[k, l] for k, l in zip(*np.nonzero(support))),
                            np.zeros((fk.dim, fk.dim)))[np.ix_(idx, idx)] != 0
            _, want = connected_components(adjacency, directed=False)
            # equal partitions: each label of one maps to one label of the other
            assert len(set(zip(comp, want))) == comp.max() + 1 == want.max() + 1
    # with every entry of B nonzero, the components are the parity classes
    for parity in (0, 1):
        assert not fock._components(fk, parity, np.ones((n_modes, n_modes), bool)).any()


def readme_traj():
    return flow.integrate(README_SPEC, 2.0)


def test_readme_block_steps_only_its_components(monkeypatch):
    # B_12 only: the components keep n_1 - n_2, and the stepper carries
    # their stacks and the diagonal entries of the one-state components,
    # 4103 entries at cutoff 20 where the parity blocks hold 26741; U is
    # exactly zero between components, and equal to the parity blocks'
    # propagation to rounding
    sizes = []

    class Spy(DormandPrince):
        def __init__(self, fun, t0, y0, *args, **kwargs):
            sizes.append(np.asarray(y0).size)
            super().__init__(fun, t0, y0, *args, **kwargs)

    monkeypatch.setattr(fock, "DormandPrince", Spy)
    traj = readme_traj()
    fk = fock.build_basis(2, 20)
    u = fock.propagate_blocks(fk, traj, 0.0, traj.t1)
    assert sizes == [4103]
    assert sum(len(fock._table(fk, p)[0]) ** 2 for p in (0, 1)) == 26741
    support = np.array([[False, True], [True, False]])
    for parity, u_p in enumerate(u):
        comp = fock._components(fk, parity, support)
        occ = fk.occs[fock._table(fk, parity)[0]]
        keeps = occ[:, 0] - occ[:, 1]
        assert np.array_equal(comp[:, None] == comp, keeps[:, None] == keeps)
        assert not u_p[comp[:, None] != comp].any()
        assert np.count_nonzero(u_p) > 0.9 * np.count_nonzero(comp[:, None] == comp)
    fk_small = fock.build_basis(2, 12)
    u_full = fock.propagate_blocks(fk_small, traj, 0.0, traj.t1)
    u_ref = dense_propagate_blocks(fk_small, FunctionBPath(traj, traj.t0, traj.t1), 0.0, traj.t1)
    assert max(np.abs(a - b).max() for a, b in zip(u_full, u_ref)) < 1e-12


def test_propagate_restarts_when_b_leaves_its_support(monkeypatch):
    # a ramp from B = 0 and a path that turns on B_11 late each restart
    # once with the widened support, and then take the dense reference's
    # steps
    starts = []

    class Spy(DormandPrince):
        def __init__(self, *args, **kwargs):
            starts.append(args[1])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(fock, "DormandPrince", Spy)
    x = np.array([[0.2 + 0.1j, 0.3], [0.3, -0.1j]])
    antidiag = np.array([[0.0, 0.4], [0.4, 0.0]])
    late = np.array([[0.25, 0.0], [0.0, 0.0]])
    paths = [lambda t: t * x,
             lambda t: antidiag * np.cos(t) + late * max(t - 0.9, 0.0)]
    fk = fock.build_basis(2, 9)
    for fn in paths:
        starts.clear()
        block_path, dense_path = CountingPath(fn, 0.0, 1.5), CountingPath(fn, 0.0, 1.5)
        u = fock.propagate(fk, block_path, 0.0, 1.5)
        assert starts == [0.0, 0.0]
        u_ref = dense_propagate(fk, dense_path, 0.0, 1.5)
        assert block_path.calls > dense_path.calls > 20
        assert np.abs(u - u_ref).max() < 1e-12


def test_propagate_keeps_parity():
    # G changes the total number by +-2, so every entry of U between
    # states of opposite parity stays exactly zero
    fk = fock.build_basis(2, 9)
    u = fock.propagate(fk, complex_symmetric_path(2), 0.1, 1.4)
    odd = (fk.ntot[:, np.newaxis] - fk.ntot[np.newaxis, :]) % 2 == 1
    assert np.all(u[odd] == 0.0)
    assert np.count_nonzero(u[~odd]) > 0.9 * np.count_nonzero(~odd)


def test_propagate_below_pair_range_is_identity():
    # with cutoff < 2 every pair operator vanishes on the truncated space
    fk = fock.build_basis(2, 1)
    path = FunctionBPath(lambda t: np.array([[0.3, 0.1], [0.1, 0.2j]]), 0.0, 1.0)
    assert np.array_equal(fock.propagate(fk, path, 0.0, 1.0), np.eye(fk.dim))


def test_propagate_size_guard(monkeypatch):
    fock.check_propagate_size(fock.basis_dim(2, 60))
    with pytest.raises(SizeLimit):
        fock.check_propagate_size(fock.basis_dim(2, 61))
    assert fock.basis_dim(2, 100) == 5151 < fock.SIZE_LIMIT
    monkeypatch.setattr(fock, "PROPAGATE_MEMORY_LIMIT", 1000)
    fk = fock.build_basis(1, 4)
    path = FunctionBPath(lambda t: np.array([[0.1]]), 0.0, 1.0)
    with pytest.raises(SizeLimit):
        fock.propagate(fk, path, 0.0, 1.0)


class ForwardingPath:
    """Forwards only a path's t0, t1 and samples, as the benchmark's
    counting wrapper does, and counts the samples."""

    def __init__(self, path):
        self._path, self.t0, self.t1, self.calls = path, path.t0, path.t1, 0

    def __call__(self, t):
        self.calls += 1
        return self._path(t)


REAL_SPECS = {1: QuadraticSpec.from_matrices([[1.0]], [[0.3]]),
              2: QuadraticSpec.from_matrices([[1.0, 0.0], [0.0, 2.0]],
                                             [[0.0, 0.5], [0.5, 0.0]])}


@pytest.mark.parametrize("n_modes, cutoff", [(2, 8), (1, 13)])
def test_real_path_propagates_like_the_complex_one(n_modes, cutoff):
    # a real spec's trajectory returns float64 B, so U is stepped as float64
    # at sqrt(2) times the block tolerance; wrapped in a FunctionBPath, which
    # returns complex128, the same B takes the complex path.  The dtype comes
    # from the first sample, which the first RHS evaluation reuses, so both
    # sample the path equally often and take the same steps.  Their BLAS
    # stage sums may round a few components differently, so U agrees to
    # rounding rather than always bit for bit.
    traj = flow.integrate(REAL_SPECS[n_modes], 1.5)
    fk = fock.build_basis(n_modes, cutoff)
    real_path = ForwardingPath(traj)
    complex_path = CountingPath(traj, traj.t0, traj.t1)
    u = fock.propagate(fk, real_path, 0.0, traj.t1)
    u_c = fock.propagate(fk, complex_path, 0.0, traj.t1)
    assert u.dtype == float and u_c.dtype == complex
    assert real_path.calls == complex_path.calls > 20
    assert np.abs(u - u_c).max() < 1e-14
    assert fock.unitarity_residual(fk, u) < 1e-8


def test_real_path_with_a_complex_sample_raises(one_mode):
    class TurnsComplex:
        t0, t1 = 0.0, 1.0

        def __call__(self, t):
            return np.array([[0.1 + (0.01j if t > 0.5 else 0.0)]])

    class ComplexTyped(TurnsComplex):
        def __call__(self, t):
            return np.array([[0.1]]) if t == 0.0 else np.array([[0.1 + 0j]])

    with pytest.raises(ValueError, match="complex B"):
        fock.propagate(one_mode, TurnsComplex(), 0.0, 1.0)
    # complex samples with zero imaginary parts are real B and stay allowed
    u = fock.propagate(one_mode, ComplexTyped(), 0.0, 1.0)
    assert u.dtype == float and fock.unitarity_residual(one_mode, u) < 1e-8


def test_propagate_working_set():
    # the bound behind check_propagate_size holds on both paths, for the
    # components of an antidiagonal B and for a B with every entry nonzero,
    # whose components are the parity classes, and the float64 blocks of a
    # real path take at most 0.6 of the complex bytes
    full = QuadraticSpec.from_matrices([[1.0, 0.2], [0.2, 2.0]], [[0.1, 0.5], [0.5, -0.3]])
    for spec in (REAL_SPECS[2], full):
        traj = flow.integrate(spec, 2.0)
        peaks = {}
        for path in (traj, FunctionBPath(traj, traj.t0, traj.t1)):
            fk = fock.build_basis(2, 12)
            # the basis's cached tables and the path's lazily built dense
            # outputs, not propagate's
            fock.propagate(fk, path, 0.0, traj.t1)
            tracemalloc.start()
            try:
                u = fock.propagate(fk, path, 0.0, traj.t1)
                peaks[u.dtype] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        bound = fock.PROPAGATE_BYTES_PER_DIM2 * fk.dim ** 2
        assert peaks[np.dtype(float)] <= bound and peaks[np.dtype(complex)] <= bound
        assert peaks[np.dtype(float)] <= 0.6 * peaks[np.dtype(complex)]


def test_hamiltonian_op_is_real_for_a_real_spec(one_mode):
    real = fock.hamiltonian_op(one_mode, REAL_SPECS[1])
    cplx = fock.hamiltonian_op(one_mode, QuadraticSpec.from_matrices([[1.0]], [[0.3 + 1e-300j]]))
    assert real.dtype == float and cplx.dtype == complex
    assert np.array_equal(real, cplx.real)
    assert fock.ground_energy(one_mode, real) == pytest.approx(
        fock.ground_energy(one_mode, cplx), abs=1e-14)


def dense_propagate_blocks(fk, bpath, s, t, tol=1e-10):
    """The parity blocks of dense_propagate's U."""
    return fock.parity_blocks(fk, dense_propagate(fk, bpath, s, t, tol))


def test_fock_verify_output_unchanged_with_dense_reference(tmp_path, capsys, monkeypatch):
    # the same report from the index-table operators, from H and the pair
    # blocks' weights built of dense ladder products, and with U stepped
    # densely as well
    generic = tmp_path / "generic.json"
    generic.write_text('{"blocks": [[1.0, 2.0, 0.5]], "label": "generic"}\n')
    # B_11 only at t = 0; Omega_12 fills B_12 from the second sample on
    coupled = tmp_path / "coupled.json"
    coupled.write_text('{"dim": 2, "omega": [[1, 0], [0.3, 0], [0.3, 0], [2, 0]], '
                       '"b": [[0.5, 0], [0, 0], [0, 0], [0, 0]]}\n')
    for spec, cutoff in ((generic, 12), (generic, 20), (coupled, 12)):
        argv = ["fock-verify", str(spec), "--cutoff", str(cutoff)]
        assert cli.main(argv) == cli.EXIT_OK
        blocked = capsys.readouterr().out
        assert "conjugation residual" in blocked
        with monkeypatch.context() as patch:
            patch.setattr(fock, "hamiltonian_blocks", ref.hamiltonian_blocks)
            patch.setattr(fock, "_pair_blocks", ref.pair_blocks)
            assert cli.main(argv) == cli.EXIT_OK
            assert capsys.readouterr().out == blocked
            patch.setattr(fock, "propagate_blocks", dense_propagate_blocks)
            assert cli.main(argv) == cli.EXIT_OK
            assert capsys.readouterr().out == blocked


def random_spec(n_modes, kind, c0, seed):
    """A random spec with some zero couplings: real, or complex."""
    rng = np.random.default_rng(seed)
    shape = (n_modes, n_modes)
    a, m = rng.normal(size=shape), rng.normal(size=shape)
    if kind == "complex":
        a, m = a + 1j * rng.normal(size=shape), m + 1j * rng.normal(size=shape)
    omega, b = a @ a.conj().T, 0.3 * (m + m.T)
    if n_modes > 1:
        omega[0, -1] = omega[-1, 0] = 0.0
        b[-1, -1] = 0.0
    return QuadraticSpec.from_matrices(omega, b, c0=c0)


@pytest.mark.parametrize("n_modes, cutoff", [(1, 4), (1, 9), (1, 16), (2, 4), (2, 7),
                                             (2, 16), (3, 4), (3, 9), (3, 12)])
@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("c0", [0.0, -0.7])
def test_table_built_operators_match_ladder_products(n_modes, cutoff, kind, c0):
    # the parity blocks of H(spec) and the pair blocks' weights, built from
    # the index tables, equal bit for bit the blocks of the dense ladder
    # products, and the dense H is exactly zero between the parities
    fk = fock.build_basis(n_modes, cutoff)
    spec = random_spec(n_modes, kind, c0, seed=10 * n_modes + cutoff)
    want = ref.hamiltonian_op(fk, spec)
    blocks = fock.hamiltonian_blocks(fk, spec)
    for got, expected in zip(blocks, ref.hamiltonian_blocks(fk, spec)):
        assert got.dtype == expected.dtype == (float if kind == "real" else complex)
        assert np.array_equal(got, expected)
    h = fock.hamiltonian_op(fk, spec)
    assert h.dtype == want.dtype and np.array_equal(h, want)
    odd = (fk.ntot[:, np.newaxis] - fk.ntot[np.newaxis, :]) % 2 == 1
    assert not want[odd].any() and not h[odd].any()
    assert fock.hermiticity_residual(blocks) == 0.0
    for parity in (0, 1):
        comp, slot, shape, blocks, weights = fock._pair_blocks(fk, parity, spec.b != 0)
        ref_weights = ref.pair_blocks(fk, parity, spec.b != 0)[-1]
        assert weights.shape == ref_weights.shape and np.array_equal(weights, ref_weights)


def test_dense_operators_that_change_parity_are_refused(two_mode):
    # the residuals read a dense operator through its two parity blocks,
    # which would drop a ladder operator's entries without a word
    a = ref.ladder(two_mode, 0)
    with pytest.raises(ValueError, match="parity"):
        fock.unitarity_residual(two_mode, np.eye(two_mode.dim) + a)
    blocks = fock.parity_blocks(two_mode, np.diag(two_mode.ntot.astype(float)))
    assert [np.diag(b).tolist() for b in blocks] == [
        two_mode.ntot[two_mode.ntot % 2 == p].astype(float).tolist() for p in (0, 1)]


def test_flow_conjugation_on_interior():
    spec = QuadraticSpec.from_matrices([[2.0]], [[0.5]])
    traj = flow.integrate(spec, t_end=1.0)
    fk = fock.build_basis(1, 24)
    u = fock.propagate(fk, traj, 0.0, 1.0)
    assert fock.unitarity_residual(fk, u) < 1e-6
    s1 = traj.state_at(1.0)
    spec_t = QuadraticSpec.from_matrices(s1.omega, s1.b, s1.c)
    res = fock.conjugation_residual(fk, u, spec, spec_t, sector_cut=8)
    assert res < 1e-3
    # the opposite scalar sign is visibly wrong
    traj_p = flow.integrate(spec, t_end=1.0, scalar_sign=+1.0)
    sp = traj_p.state_at(1.0)
    spec_p = QuadraticSpec.from_matrices(sp.omega, sp.b, sp.c)
    res_p = fock.conjugation_residual(fk, u, spec, spec_p, sector_cut=8)
    assert res_p > 10 * res
    with pytest.raises(ValueError):
        fock.conjugation_residual(fk, u, spec, spec_t, sector_cut=21)
    with pytest.raises(ValueError):
        fock.conjugation_residual(fk, u, spec, spec_t, sector_cut=-1)


def test_ground_energy_one_mode():
    # H = 2 n + 0.5 (adag^2 + a^2): bottom of the squeezed spectrum is
    # (sqrt(omega^2 - 4 b^2) - omega) / 2
    fk = fock.build_basis(1, 40)
    spec = QuadraticSpec.from_matrices([[2.0]], [[0.5]])
    want = (np.sqrt(3.0) - 2.0) / 2.0
    assert fock.ground_energy(fk, spec) == pytest.approx(want, abs=1e-4)
    assert fock.ground_truncation_shift(fk, spec)[0] < 1e-4
    with pytest.raises(ValueError):
        fock.ground_truncation_shift(fock.build_basis(1, 3), spec)


def test_ground_energy_two_mode_pair():
    fk = fock.build_basis(2, 20)
    spec = QuadraticSpec.from_matrices(
        2.0 * np.eye(2), [[0.0, 0.5], [0.5, 0.0]])
    assert fock.ground_energy(fk, spec) == pytest.approx(
        np.sqrt(3.0) - 2.0, abs=1e-4)


def test_n_diag_residual(one_mode):
    diag_spec = QuadraticSpec.from_matrices([[1.5]], [[0.0]], c0=0.3)
    assert fock.n_diag_residual(one_mode, diag_spec) == 0.0
    paired = QuadraticSpec.from_matrices([[1.5]], [[0.4]])
    assert fock.n_diag_residual(one_mode, paired) > 0.1


@pytest.mark.parametrize("cutoff", [8, 20, 30])
@pytest.mark.parametrize("spec", [
    QuadraticSpec.from_matrices([[2.0]], [[0.5]], c0=0.3),
    QuadraticSpec.from_matrices([[1.0, 0.2], [0.2, 2.0]], [[0.1, 0.5], [0.5, -0.3]], c0=0.7),
    QuadraticSpec.from_matrices([[1.0, 0.2 + 0.1j], [0.2 - 0.1j, 2.0]],
                                [[0.1j, 0.5], [0.5, -0.3 + 0.2j]], c0=-0.4),
], ids=["one-mode", "real-two-mode", "complex-two-mode"])
def test_shift_and_n_diag_match_their_dense_references(spec, cutoff):
    # the truncation shift reads H on the cutoff - 4 basis off the leading
    # block of H, and [H, N] is formed entry by entry: both equal, bit for
    # bit, the second basis and H built for it and the products with N
    fk = fock.build_basis(spec.dim, cutoff)
    h = fock.hamiltonian_op(fk, spec)
    e0 = fock.ground_energy(fk, h)
    smaller = fock.build_basis(spec.dim, cutoff - 4)
    want = abs(e0 - fock.ground_energy(smaller, fock.hamiltonian_op(smaller, spec)))
    assert fock.ground_truncation_shift(fk, spec)[0] == want
    assert fock.ground_truncation_shift(fk, h, e0)[0] == want
    n_op = np.diag(fk.ntot.astype(float))
    mask = fk.sector_mask(cutoff - 2)
    comm = h @ n_op - n_op @ h
    assert fock.n_diag_residual(fk, spec) == hs_norm(comm[np.ix_(mask, mask)]) > 0


def test_offdiag_relative_norm(two_mode):
    b = np.array([[0.3, 0.1], [0.1, -0.2]])
    lhs, rhs, holds = ref.offdiag_relative_norm(two_mode, b)
    assert holds and 0.0 < lhs <= rhs
    assert rhs == pytest.approx(ref.OFFDIAG_CONST * hs_norm(b))
    lhs0, rhs0, holds0 = ref.offdiag_relative_norm(two_mode, np.zeros((2, 2)))
    assert (lhs0, rhs0, holds0) == (0.0, 0.0, True)


def test_fock_verify_prints_a_shift_below_the_rounding_floor_as_the_floor(tmp_path, capsys):
    # on the README spec the shift falls below eps ||H0||_inf at cutoff 40,
    # where its digits are the eigensolver's rounding, and prints as
    # "< floor"; at cutoffs 20 and 30 it prints as before
    spec = tmp_path / "generic.json"
    spec.write_text('{"blocks": [[1.0, 2.0, 0.5]], "label": "generic"}\n')
    lines = {}
    for cutoff in (20, 30, 40):
        assert cli.main(["fock-verify", str(spec), "--cutoff", str(cutoff)]) == cli.EXIT_OK
        lines[cutoff] = [line for line in capsys.readouterr().out.splitlines()
                         if line.startswith("ground energy")]
    assert lines == {
        20: ["ground energy of truncated H0: -0.3819659981 "
             "(truncation shift estimate 4.904e-07)"],
        30: ["ground energy of truncated H0: -0.3819660112 "
             "(truncation shift estimate 5.096e-11)"],
        40: ["ground energy of truncated H0: -0.3819660113 "
             "(truncation shift estimate < 2.234e-14)"]}
    fk = fock.build_basis(2, 40)
    h0 = fock.hamiltonian_blocks(fk, README_SPEC)
    shift, floor = fock.ground_truncation_shift(fk, h0)
    assert type(shift) is float and type(floor) is float
    assert floor == np.finfo(float).eps * max(np.abs(h).sum(axis=1).max() for h in h0)
    assert 0 < shift < floor
