import cmath
import math
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dense

from twistkit import correlation as co, partition, realfield as rf, verify
from twistkit.cli import _load
from twistkit.spectrum import SlotAction, SymmetrySpec, load_config, validate_spectrum

LN2 = math.log(2.0)


def conjugation_sym():
    return SymmetrySpec(kind="antiunitary", phases=(1.0 + 0j,), pairing=(0,))


def random_antiunitary(rng, n_pairs=1, n_fixed=0):
    """Random valid antiunitary spec: swapped pairs then fixed points."""
    labels, omegas, pairing, phases = [], [], [], []
    for i in range(n_pairs):
        w = float(rng.uniform(0.5, 3.0))
        pairing += [len(labels) + 1, len(labels)]
        labels += [f"p{i}a", f"p{i}b"]
        omegas += [w, w]
        phases += [
            cmath.exp(2j * math.pi * float(rng.uniform())),
            cmath.exp(2j * math.pi * float(rng.uniform())),
        ]
    for i in range(n_fixed):
        pairing.append(len(labels))
        labels.append(f"f{i}")
        omegas.append(float(rng.uniform(0.5, 3.0)))
        phases.append(cmath.exp(2j * math.pi * float(rng.uniform())))
    spec = validate_spectrum(list(zip(labels, omegas)))
    sym = SymmetrySpec(
        kind="antiunitary",
        phases=tuple(phases),
        pairing=tuple(pairing),
    )
    return spec, sym


class TestExtend:
    def test_unitary_gives_conjugate_pair_diagonal(self):
        s = validate_spectrum([("a", 1.0)])
        theta = 0.6
        sym = SymmetrySpec(kind="unitary", phases=(cmath.exp(1j * theta),))
        ext = rf.extend(s, sym)
        expected = np.diag([cmath.exp(-1j * theta), cmath.exp(1j * theta)])
        assert np.abs(dense.induced(ext) - expected).max() < 1e-15

    def test_conjugation_gives_sector_swap(self):
        s = validate_spectrum([("k0", LN2)])
        ext = rf.extend(s, conjugation_sym())
        assert np.abs(dense.induced(ext) - np.array([[0, 1], [1, 0]])).max() == 0.0

    def test_induced_matches_the_raw_rule(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n_pairs, n_fixed = int(rng.integers(0, 3)), int(rng.integers(0, 3))
            if not n_pairs + n_fixed:  # a spectrum has at least one mode
                continue
            spec, sym = random_antiunitary(rng, n_pairs=n_pairs, n_fixed=n_fixed)
            ref = dense.induced_antiunitary(sym.pairing, sym.phases)
            assert np.array_equal(dense.induced(rf.extend(spec, sym)), ref)
            unitary = SymmetrySpec(kind="unitary", phases=sym.phases)
            assert np.array_equal(
                dense.induced(rf.extend(spec, unitary)), dense.induced_unitary(sym.phases))

    def test_images_are_built_once_per_extend(self, monkeypatch):
        calls = []
        images = rf._images
        monkeypatch.setattr(rf, "_images", lambda *args: calls.append(args) or images(*args))
        spec, sym = random_antiunitary(np.random.default_rng(2), n_pairs=1, n_fixed=1)
        ext = rf.extend(spec, sym)
        assert dense.induced(ext).shape == (6, 6)  # read from the stored table
        assert len(calls) == 1

    def test_induced_commutes_with_natural_conjugation(self):
        rng = np.random.default_rng(1)
        spec, sym = random_antiunitary(rng, n_pairs=1, n_fixed=1)
        ext = rf.extend(spec, sym)
        v = rng.normal(size=6) + 1j * rng.normal(size=6)

        def conj(vec):  # J(c, d) = (conj(d), conj(c))
            return np.conj(np.roll(vec, 3))

        lhs = dense.induced(ext) @ conj(v)
        rhs = conj(dense.induced(ext) @ v)
        assert np.abs(lhs - rhs).max() < 1e-12


class TestDiagonalize:
    def test_swap_eigenphases(self):
        s = validate_spectrum([("k0", LN2)])
        ext = rf.extend(s, conjugation_sym())
        phases = sorted(p.real for p in ext.phases)
        assert abs(phases[0] + 1.0) < 1e-12 and abs(phases[1] - 1.0) < 1e-12

    def test_unitary_case_unchanged(self):
        s = validate_spectrum([("a", 1.0)])
        rho = cmath.exp(0.8j)
        ext = rf.extend(s, SymmetrySpec(kind="unitary", phases=(rho,)))
        got = sorted(ext.phases, key=lambda z: cmath.phase(z))
        assert abs(got[0] - rho.conjugate()) < 1e-12
        assert abs(got[1] - rho) < 1e-12

    def test_eigenphases_conjugation_closed(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            n_pairs, n_fixed = int(rng.integers(0, 3)), int(rng.integers(0, 3))
            if not n_pairs + n_fixed:
                continue
            spec, sym = random_antiunitary(rng, n_pairs=n_pairs, n_fixed=n_fixed)
            phases = rf.extend(spec, sym).phases
            for p in phases:
                assert np.abs(phases - np.conj(p)).min() < 1e-10


    @pytest.mark.parametrize("kind", ["unitary", "antiunitary"])
    def test_closed_form_eigenpairs(self, kind):
        rng = np.random.default_rng(21)
        for _ in range(20):
            if kind == "unitary":
                m = int(rng.integers(1, 4))
                spec = validate_spectrum([(f"m{i}", 1.0) for i in range(m)])
                sym = SymmetrySpec(
                    kind="unitary", phases=tuple(np.exp(2j * np.pi * rng.uniform(size=m)))
                )
            else:
                spec, sym = random_antiunitary(
                    rng, n_pairs=int(rng.integers(0, 3)), n_fixed=int(rng.integers(1, 3))
                )
            ext = rf.extend(spec, sym)
            w, lam = dense.eigenbasis(ext), np.array(ext.phases)
            n = ext.n_doubled
            assert np.abs(dense.induced(ext) @ w - w * lam).max() < 1e-14
            assert np.abs(w.conj().T @ w - np.eye(n)).max() < 1e-14
            expected = np.linalg.eigvals(dense.induced(ext))
            for value in lam:
                assert np.abs(expected - value).min() < 1e-12
            for value in expected:
                assert np.abs(lam - value).min() < 1e-12


def random_slot_action(rng):
    """A random real generalized permutation of the slots, built directly.

    Each mode k has a partner pi(k) (pi a random permutation), a charge flip
    f_k and a phase eta_k: slot 2k + e takes its occupation from slot
    2 pi(k) + (e xor f_k), and the + and - slots carry eta_k and
    conj(eta_k), so the action commutes with the natural conjugation.  A
    pi-cycle of length l gives one slot cycle of length 2l if its flips are
    odd, two of length l if they are even; l <= 3 and l <= 6 respectively,
    so the slot cycles have length 1-6.  Omega is constant on each
    pi-cycle, as alignment requires.  Returns (spectrum, stand-in symmetry
    that carries the action).
    """
    cycles = []  # (length, flips, omega) per pi-cycle
    for _ in range(int(rng.integers(1, 4))):
        odd = int(rng.integers(2))
        length = int(rng.integers(1, 4 if odd else 7))
        flips = [int(f) for f in rng.integers(0, 2, size=length - 1)]
        cycles.append((length, flips + [(sum(flips) + odd) % 2], float(rng.uniform(0.5, 3.0))))
    n = sum(length for length, _, _ in cycles)
    modes = [int(k) for k in rng.permutation(n)]
    omegas, partner, flip = [0.0] * n, [0] * n, [0] * n
    for length, cycle_flips, omega in cycles:
        order, modes = modes[:length], modes[length:]
        for i, k in enumerate(order):
            omegas[k], partner[k], flip[k] = omega, order[(i + 1) % length], cycle_flips[i]
    etas = [cmath.exp(2j * math.pi * float(rng.uniform())) for _ in omegas]
    source = [2 * partner[k] + (e ^ flip[k]) for k in range(n) for e in (0, 1)]
    phases = [p for eta in etas for p in (eta, eta.conjugate())]
    spec = validate_spectrum([(f"m{k}", w) for k, w in enumerate(omegas)])
    action = SlotAction(tuple(source), tuple(phases))
    # slot_action reads only the phase count and pairing (alignment) and the action
    fake = SimpleNamespace(kind="unitary", phases=(1.0 + 0j,) * n, pairing=None, action=action)
    return spec, fake


class TestCycleEigenbasis:
    """Theorem: the DFT of each cycle diagonalizes the induced unitary.

    A cycle of length L and phase product r has the eigenvalues
    lambda_q = r^{1/L} e^{2 pi i q/L}, so prod_q (1 - lambda_q x) = 1 - r x^L
    and the doubled-theory product is the cycle product of the partition
    function, as is the determinant det(1 - XU) walked from the slot table,
    for any slot permutation, not only the involutions a config
    can give today; the sampled kernel mixed by the sparse basis is the
    image sum, which needs no eigenbasis."""

    def test_against_dense_algebra_and_the_partition_routes(self):
        rng = np.random.default_rng(29)
        lengths = set()
        for _ in range(120):
            spec, sym = random_slot_action(rng)
            lengths |= {length for _, length, _ in sym.action.cycles}
            ext = rf.extend(spec, sym)
            u, w, lam = dense.induced(ext), dense.eigenbasis(ext), np.array(ext.phases)
            assert np.abs(u @ w - w * lam).max() <= 1e-14
            assert np.abs(w.conj().T @ w - np.eye(ext.n_doubled)).max() <= 1e-14
            expected = np.linalg.eigvals(u)
            assert max(np.abs(expected - value).min() for value in lam) < 1e-12
            for beta in (0.3, 1.0, 3.0):
                z = partition.z_twisted(spec, sym, beta)
                trace = verify.partition_trace(spec, sym, beta, 400)
                assert abs(dense.z_via_realfield(ext, beta) - z) <= 1e-14 * z
                # the walk of the slot table against a dense determinant
                x = np.diag(np.exp(-beta * np.array(ext.doubled_omegas())))
                z_det, slack = verify.z_via_det(spec, sym, beta)
                assert abs(z_det * np.linalg.det(np.eye(ext.n_doubled) - x @ u) - 1.0) <= 1e-13
                assert abs(z_det - z) <= slack * z
                assert abs(trace - z) <= 1e-14 * z
                assert z >= partition.positivity_lower_bound(spec, beta)
                # the sparse mixing against the eigenbasis-free image sum
                blocks = rf.sample_extended_kernel(ext, beta, 5).blocks()
                for d, block in enumerate(blocks):
                    ref = dense.extended_image_sum(ext, beta, d * beta / 5)
                    dev = np.abs(np.reshape(block, ref.shape) - ref).max()
                    assert dev <= 1e-13 * np.abs(ref).max()
        assert lengths == {1, 2, 3, 4, 5, 6}

    @pytest.mark.parametrize(
        "mix, written",
        [(lambda b: (), False), (lambda b: b[:1], False), (lambda b: b + b[:1], True)],
        ids=["no-blocks", "first-block-only", "a-block-twice"],
    )
    def test_block_check_reads_what_is_written(self, mix, written):
        # anti_pair_fixed has 3 cycle blocks and 6 columns.  A column in no
        # block leaves its entries 0, so the blocks miss the covering-circle
        # kernel by a whole entry; a block given twice writes its entries
        # twice, the same values, so the blocks, and the CSV, are right
        spec, sym = load_config(Path(__file__).parent / "golden" / "anti_pair_fixed.json")
        ext = rf.extend(spec, sym)
        full = rf.sample_extended_kernel(ext, 1.0, 4)
        assert verify.block_agreement(ext, full).passed
        broken = co.sample_kernels(1.0, full.omegas, full.thetas, 4, mix(ext.basis))
        check = verify.block_agreement(ext, broken)
        assert check.name == "exported blocks vs covering-circle kernel"
        assert broken.blocks() == full.blocks() if written else check.deviation > 0.1
        assert check.passed == written


    @pytest.mark.parametrize("config", [None, "anti_pair_fixed.json", "anti_two_pairs_fixed.json",
                                        "unitary_generic.json"])
    def test_block_threshold_keeps_its_power_on_the_golden_configs(self, config):
        # |1 - lambda x| >= 0.42 there, so the rounding bound stays below
        # 1e-12 of the largest entry, far below a coefficient off by 1e-9
        golden = Path(__file__).parent / "golden"
        ext = rf.extend(*_load(None if config is None else str(golden / config)))
        for beta in (0.5, 0.9, 1.0, 1.3, 2.0):
            check = verify.block_agreement(ext, rf.sample_extended_kernel(ext, beta, 32))
            assert check.passed and check.threshold <= 1e-12

    @pytest.mark.parametrize("broken", ["missing-index", "open-walk"])
    def test_broken_image_table_fails_the_block_check(self, broken):
        # a walk that meets an index with no image, or that never returns to
        # its column, ends with a wrong factor: the check fails, raises nothing
        spec, sym = load_config(Path(__file__).parent / "golden" / "anti_pair_fixed.json")
        ext = rf.extend(spec, sym)
        sampled = rf.sample_extended_kernel(ext, 1.0, 4)
        if broken == "missing-index":
            del ext.images[0]
        else:
            ext.images = {c: (0, u) for c, (_, u) in ext.images.items()}
        check = verify.block_agreement(ext, sampled)
        assert not check.passed and check.deviation > 0.1


@st.composite
def extended_layouts(draw):
    """(extended spectrum, beta, m) for a slot action built directly: mode
    cycles of 1 to 6 modes, each slot taking the occupation of its mode's
    partner, with a charge flip per mode, so that the slot cycles have
    length 1 to 12; or for a config of either kind, fixed modes and
    swapped pairs.  Omega is constant on each mode cycle, beta omega
    log-uniform over [1e-3, 1e3], phases unit, and m in [2, 16]."""
    angle = st.floats(0.0, 2.0 * math.pi, exclude_max=True)
    log_omega = st.floats(math.log(0.05), math.log(20.0))
    cycles = draw(st.lists(st.tuples(st.integers(1, 6), log_omega), min_size=1, max_size=3))
    n = sum(length for length, _ in cycles)
    order = draw(st.permutations(range(n)))
    omegas, partner = [0.0] * n, [0] * n
    for length, w in cycles:
        modes, order = order[:length], order[length:]
        for i, k in enumerate(modes):
            omegas[k], partner[k] = math.exp(w), modes[(i + 1) % length]
    phases = [cmath.exp(1j * draw(angle)) for _ in range(n)]
    spec = validate_spectrum([(f"m{k}", w) for k, w in enumerate(omegas)])
    if draw(st.booleans()):
        flips = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        source = [2 * partner[k] + (e ^ flips[k]) for k in range(n) for e in (0, 1)]
        action = SlotAction(tuple(source), tuple(p for e in phases for p in (e, e.conjugate())))
        sym = SimpleNamespace(kind="unitary", phases=(1.0 + 0j,) * n, pairing=None, action=action)
    elif draw(st.booleans()):
        sym = SymmetrySpec(kind="unitary", phases=tuple(phases))
    else:  # fixed modes and swapped pairs: the involutions a config can give
        pairing, shuffled = list(range(n)), draw(st.permutations(range(n)))
        for a, b in zip(shuffled[::2], shuffled[1::2]):
            if omegas[a] == omegas[b]:
                pairing[a], pairing[b] = b, a
        sym = SymmetrySpec(kind="antiunitary", phases=tuple(phases), pairing=tuple(pairing))
    beta = math.exp(draw(st.floats(math.log(1e-3), math.log(1e3)))) / max(omegas)
    return rf.extend(spec, sym), beta, draw(st.integers(2, 16))


@settings(max_examples=150, deadline=None)
@given(extended_layouts())
def test_blocks_match_the_covering_circle_kernel(layout):
    # the block check passes every correct layout, and on a 1-cycle its
    # reference is the column itself, bit for bit
    ext, beta, m = layout
    sampled = rf.sample_extended_kernel(ext, beta, m)
    check = verify.block_agreement(ext, sampled)
    assert check.passed, (check.deviation, check.threshold)
    if all(len(indices) == 1 for indices, _ in ext.basis):
        assert check.deviation == 0.0


class TestPartitionRoutes:
    def test_conjugation_value(self):
        s = validate_spectrum([("k0", LN2)])
        ext = rf.extend(s, conjugation_sym())
        assert abs(dense.z_via_realfield(ext, 1.0) - 4.0 / 3.0) < 1e-12

    def test_routes_agree_randomized(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            spec, sym = random_antiunitary(
                rng, n_pairs=int(rng.integers(0, 3)), n_fixed=int(rng.integers(1, 3))
            )
            beta = float(rng.uniform(0.4, 2.0))
            z_sqrt = partition.z_twisted(spec, sym, beta)
            z_rf = dense.z_via_realfield(rf.extend(spec, sym), beta)
            assert abs(z_sqrt - z_rf) <= 1e-10 * abs(z_sqrt)

    def test_unitary_route_matches_product_formula(self):
        s = validate_spectrum([("a", 0.9), ("b", 1.7)])
        sym = SymmetrySpec(kind="unitary", phases=(1j, cmath.exp(2.2j)))
        z = partition.z_twisted(s, sym, 1.3)
        z_rf = dense.z_via_realfield(rf.extend(s, sym), 1.3)
        assert abs(z - z_rf) < 1e-12 * z


class TestExtendedKernel:
    def test_unitary_off_diagonal_vanishes(self):
        s = validate_spectrum([("a", 1.0), ("b", 1.5)])
        sym = SymmetrySpec(kind="unitary", phases=(1j, -1.0 + 0j))
        block = dense.extended_kernel(rf.extend(s, sym), 1.0, 0.4, 0.1)
        m = 2
        assert np.abs(block[:m, m:]).max() < 1e-12
        assert np.abs(block[m:, :m]).max() < 1e-12

    def test_conjugation_off_diagonal_combination(self):
        # +-1 eigenphases rotate into (K_0 +- K_pi)/2 blocks
        s = validate_spectrum([("k0", 1.1)])
        ext = rf.extend(s, conjugation_sym())
        beta, t, time_s = 1.0, 0.7, 0.2
        block = dense.extended_kernel(ext, beta, t, time_s)
        k0 = co.kernel_closed_form(1.1, 0.0, beta, t, time_s)
        kpi = co.kernel_closed_form(1.1, math.pi, beta, t, time_s)
        assert abs(block[0, 1] - (k0 - kpi) / 2.0) < 1e-12
        assert abs(block[0, 0] - (k0 + kpi) / 2.0) < 1e-12

    def test_sampled_grid_positive_definite_both_kinds(self):
        s = validate_spectrum([("a", 0.8)])
        unitary = SymmetrySpec(kind="unitary", phases=(cmath.exp(1.3j),))
        for sym in (unitary, conjugation_sym()):
            grid = dense.extended_kernel_grid(rf.extend(s, sym), 1.0, 10)
            assert np.abs(grid - grid.conj().T).max() < 1e-10
            assert np.linalg.eigvalsh(grid).min() > 0.0


    @pytest.mark.parametrize("n_pairs, n_fixed", [(1, 0), (2, 1)])
    def test_grid_matches_pointwise_blocks(self, n_pairs, n_fixed):
        spec, sym = random_antiunitary(np.random.default_rng(5), n_pairs, n_fixed)
        ext = rf.extend(spec, sym)
        beta, m, n = 1.2, 7, ext.n_doubled
        grid = dense.extended_kernel_grid(ext, beta, m).reshape(m, n, m, n)
        for i in range(m):
            for k in range(m):
                block = dense.extended_kernel(ext, beta, i * beta / m, k * beta / m)
                assert np.abs(grid[i, :, k, :] - block).max() <= 1e-14

    @pytest.mark.parametrize("m", [7, 12])
    def test_fft_spectrum_matches_eigvalsh(self, m):
        spec, sym = random_antiunitary(np.random.default_rng(7), 1, 1)
        ext = rf.extend(spec, sym)
        spectrum = np.array(rf.sample_extended_kernel(ext, 1.1, m).spectrum())
        eigs = np.linalg.eigvalsh(dense.extended_kernel_grid(ext, 1.1, m))
        assert spectrum.shape == (m, ext.n_doubled)
        assert np.abs(np.sort(spectrum.ravel()) - eigs).max() <= 1e-13 * np.abs(eigs).max()

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_csv_rows_are_grid_entries(self, tmp_path, m):
        spec, sym = random_antiunitary(np.random.default_rng(6), 1, 1)
        ext = rf.extend(spec, sym)
        beta, n = 0.8, ext.n_doubled
        p = tmp_path / "ext.csv"
        co.export_kernel_csv(p, rf.sample_extended_kernel(ext, beta, m))
        grid = dense.extended_kernel_grid(ext, beta, m).reshape(m, n, m, n)
        times = np.arange(m) * (beta / m)
        want = [
            f"{times[i]:.16e},{times[k]:.16e},{a},{b},{grid[i, a, k, b].real:.16e},"
            f"{grid[i, a, k, b].imag:.16e},{0.0:.16e}"
            for i in range(m) for k in range(m) for a in range(n) for b in range(n)
        ]
        lines = p.read_text().splitlines()
        assert lines[0] == "t,s,row_sector,col_sector,re_k,im_k,tail_bound"
        assert lines[1:] == want

    def test_csv_writer_holds_a_window_of_m_blocks(self, tmp_path):
        # 10 doubled columns at m = 64: the writer holds at most m formatted
        # blocks of n^2 rows (0.66 MiB measured); all 2m of them take 1.81 MiB
        spec, sym = random_antiunitary(np.random.default_rng(8), 2, 1)
        sampled = rf.sample_extended_kernel(rf.extend(spec, sym), 0.9, 64)
        assert len(sampled.thetas) == 10
        tracemalloc.start()
        try:
            co.export_kernel_csv(tmp_path / "ext.csv", sampled)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 2**20

    def test_csv_writer_holds_each_block_as_one_text(self, tmp_path):
        # each formatted block is one bytes text, not a list of n^2 row
        # objects: 671 KiB measured on the two-pair golden config at m = 64
        # (Python 3.11); the lists take 923 KiB
        spec, sym = load_config(Path(__file__).parent / "golden" / "anti_two_pairs_fixed.json")
        sampled = rf.sample_extended_kernel(rf.extend(spec, sym), 1.0, 64)
        tracemalloc.start()
        try:
            co.export_kernel_csv(tmp_path / "ext.csv", sampled)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 800 * 2**10
