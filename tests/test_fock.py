import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dense
from twistkit import fock, partition
from twistkit.errors import CapacityError, ConfigError
from twistkit.spectrum import SymmetrySpec, validate_spectrum

LN2 = math.log(2.0)


def single_mode(omega=LN2):
    return validate_spectrum([("k0", omega)])


def state_at(space, *occupation):
    """Basis state with the given occupation per slot."""
    e = np.zeros(space.shape, dtype=complex)
    e[occupation] = 1.0
    return e


def full_random(space, rng):
    """Seeded random state on the full space."""
    return rng.normal(size=space.shape) + 1j * rng.normal(size=space.shape)


class TestBuildSpace:
    def test_dimensions(self):
        assert fock.FockSpace(single_mode(), 1).dim == 4
        two = validate_spectrum([("a", 1.0), ("b", 2.0)])
        assert fock.FockSpace(two, 2).dim == 81
        assert fock.FockSpace(two, 2).shape == (3, 3, 3, 3)
        assert fock.FockSpace(validate_spectrum([]), 5).dim == 1

    def test_vacuum_is_index_zero(self):
        space = fock.FockSpace(single_mode(), 3)
        vac = space.vacuum().reshape(-1)
        assert vac[0] == 1.0 and not vac[1:].any()

    def test_lexicographic_enumeration_bijective(self):
        # C order of the state tensor: first slot most significant
        space = fock.FockSpace(validate_spectrum([("a", 1.0), ("b", 2.0)]), 2)
        seen = set()
        for occ in np.ndindex(*space.shape):
            flat = int(np.flatnonzero(state_at(space, *occ).reshape(-1))[0])
            assert flat == sum(n * 3 ** (3 - j) for j, n in enumerate(occ))
            seen.add(flat)
        assert len(seen) == space.dim

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            fock.FockSpace(single_mode(), 300)  # 301**2 states exceed 3**10


class TestOracleCutoff:
    def test_cutoff_per_mode_count(self):
        assert [fock.oracle_cutoff(m) for m in range(1, 6)] == [8, 8, 5, 2, 2]
        assert all(
            (fock.oracle_cutoff(m) + 1) ** (2 * m) <= fock.MAX_STATES for m in range(1, 6)
        )

    def test_never_below_the_budget_rule_it_replaces(self):
        # the dense-matrix rule gave 7, 1, 1 and refused 4-5 modes
        assert all(fock.oracle_cutoff(m) >= old for m, old in ((1, 7), (2, 1), (3, 1)))

    def test_six_modes_refused(self):
        with pytest.raises(CapacityError):
            fock.oracle_cutoff(6)


class TestCreation:
    def test_matrix_elements(self):
        space = fock.FockSpace(single_mode(), 3)
        a_star = fock.creation(space, "+", "k0")
        # |n+, n-> basis; alpha+* raises the + slot
        assert np.array_equal(fock.apply_field(space, a_star, state_at(space, 0, 0)), state_at(space, 1, 0))
        out = fock.apply_field(space, a_star, state_at(space, 1, 0))
        assert abs(out[2, 0] - math.sqrt(2)) < 1e-15
        assert np.count_nonzero(out) == 1

    def test_truncation_annihilates_top_level(self):
        space = fock.FockSpace(single_mode(), 2)
        a_star = fock.creation(space, "+", "k0")
        assert not fock.apply_field(space, a_star, state_at(space, 2, 0)).any()

    def test_unknown_mode(self):
        space = fock.FockSpace(single_mode(), 2)
        with pytest.raises(ConfigError):
            fock.creation(space, "+", "nope")

    def test_functional_reduces_to_single_mode(self):
        space = fock.FockSpace(single_mode(), 3)
        via_functional = fock.creation_functional(space, "+", [1.0])
        direct = fock.creation(space, "+", "k0")
        assert np.array_equal(via_functional, direct)

    @pytest.mark.parametrize("slot", range(4))
    def test_matches_kron_reference(self, slot):
        # tensor action on every basis state against the np.kron matrices
        space = fock.FockSpace(validate_spectrum([("a", 1.0), ("b", 2.0)]), 3)
        label, charge = "ab"[slot // 2], "+-"[slot % 2]
        create = fock.creation(space, charge, label)
        ref = dense.slot_creation(4, 3, slot)
        got = dense.matrix_of(space.shape, lambda e: fock.apply_field(space, create, e))
        assert np.abs(got - ref).max() < 1e-15
        got = dense.matrix_of(space.shape, lambda e: fock.apply_field(space, fock.adjoint(create), e))
        assert np.abs(got - ref.T).max() < 1e-15

    def test_subcutoff_rows_of_the_full_result(self):
        spec = validate_spectrum([("a", 1.0), ("b", 2.0)])
        space = fock.FockSpace(spec, 3)
        rng = np.random.default_rng(5)
        field = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
        v = space.random_state(rng)
        full = np.zeros(space.shape, dtype=complex)
        full[(slice(0, 3),) * 4] = v
        for state in (v, full):
            got = fock.apply_field(space, field, state, subcutoff=True)
            assert np.array_equal(got, space.sub_block(fock.apply_field(space, field, full)))


class TestCCR:
    @pytest.mark.parametrize("charge", ["+", "-"])
    def test_ccr_subcutoff(self, charge):
        spec = validate_spectrum([("a", 1.0), ("b", 2.0)])
        space = fock.FockSpace(spec, 4)
        rng = np.random.default_rng(7)
        f = rng.normal(size=2) + 1j * rng.normal(size=2)
        g = rng.normal(size=2) + 1j * rng.normal(size=2)
        a = fock.annihilation_functional(space, charge, f)
        a_star = fock.creation_functional(space, charge, g)
        v = space.random_state(rng)
        # [A+(f), A+*(g-bar)] = <g,f>; [A-(f-bar), A-*(g)] = <f,g>
        inner = complex(np.vdot(g, f)) if charge == "+" else complex(np.vdot(f, g))
        assert np.abs(fock.sub_commutator(space, a, a_star, v) - inner * v).max() < 1e-12

    def test_opposite_charges_commute_exactly(self):
        # on basis states each entry of either order is one product of two
        # coefficients; with one of them real, both orders round alike
        spec = validate_spectrum([("a", 1.0)])
        space = fock.FockSpace(spec, 4)
        am = fock.creation_functional(space, "-", [0.4 - 1.1j])
        for part in (1.3, 0.2):
            ap = fock.creation_functional(space, "+", [part])
            for occ in np.ndindex(*space.shape):
                e = state_at(space, *occ)
                lhs = fock.apply_field(space, ap, fock.apply_field(space, am, e))
                rhs = fock.apply_field(space, am, fock.apply_field(space, ap, e))
                assert np.abs(lhs - rhs).max() == 0.0


class TestHamiltonian:
    def test_vacuum_energy_zero(self):
        space = fock.FockSpace(single_mode(0.7), 2)
        assert space.energies()[0, 0] == 0.0

    def test_single_excitation_energy(self):
        space = fock.FockSpace(single_mode(0.7), 2)
        assert abs(space.energies()[1, 0] - 0.7) < 1e-15

    def test_matches_kron_reference(self):
        space = fock.FockSpace(validate_spectrum([("a", 1.0), ("b", 2.0)]), 2)
        ref = dense.hamiltonian([1.0, 2.0], 2)
        assert np.abs(np.diag(space.energies().reshape(-1)) - ref).max() < 1e-15

    def test_h_and_n_commute(self):
        # both diagonal: on the all-ones state H N 1 - N H 1 is E N - N E
        spec = validate_spectrum([("a", 1.0), ("b", 2.0)])
        space = fock.FockSpace(spec, 2)
        h = space.energies()
        n = sum(np.indices(space.shape))
        ones = np.ones(space.shape)
        assert np.abs(h * (n * ones) - n * (h * ones)).max() == 0.0


class TestImaginaryTimeField:
    def test_t0_single_mode_unit_omega(self):
        spec = single_mode(1.0)
        space = fock.FockSpace(spec, 3)
        phi = fock.imaginary_time_field(space, 0.0, [1.0])
        expected = (
            fock.creation(space, "+", "k0") + fock.adjoint(fock.creation(space, "-", "k0"))
        ) / math.sqrt(2)
        assert np.abs(phi - expected).max() < 1e-15
        ref = (dense.slot_creation(2, 3, 0) + dense.slot_creation(2, 3, 1).T) / math.sqrt(2)
        got = dense.matrix_of(space.shape, lambda e: fock.apply_field(space, phi, e))
        assert np.abs(got - ref).max() < 1e-15

    def test_adjoint_flips_time(self):
        # phi(t, f-bar)^* = phibar(-t, f): the adjoint conjugates the real
        # decay factors in place, which is a time reflection.
        spec = single_mode(1.3)
        space = fock.FockSpace(spec, 6)
        t = 0.4
        f = [0.8 - 0.3j]
        rng = np.random.default_rng(2)
        x, y = space.random_state(rng), space.random_state(rng)
        phi = fock.imaginary_time_field(space, t, f)
        phibar = fock.imaginary_time_field(space, -t, f, conjugate=True)
        # <x, phi y> = <phibar x, y> on the sub-cutoff block
        lhs = np.vdot(x, fock.apply_field(space, phi, y, subcutoff=True))
        rhs = np.vdot(fock.apply_field(space, phibar, x, subcutoff=True), y)
        assert abs(lhs - rhs) < 1e-12

    def test_dynamics_relation(self):
        spec = validate_spectrum([("a", 0.9), ("b", 1.7)])
        space = fock.FockSpace(spec, 4)
        t = 0.37
        f = np.array([0.3 + 1j, -0.8 + 0.2j])
        u = np.exp(1j * t * space.sub_block(space.energies()))
        v = space.random_state(np.random.default_rng(4))
        evolved = u * fock.apply_field(
            space, fock.creation_functional(space, "+", f), np.conj(u) * v, subcutoff=True
        )
        shifted = fock.creation_functional(
            space, "+", f * np.exp(-1j * t * np.array(spec.omegas))
        )
        assert np.abs(evolved - fock.apply_field(space, shifted, v, subcutoff=True)).max() < 1e-10


def commutes_with_h(space, sym):
    """max |U H 1 - H U 1| on the all-ones state."""
    energies = space.energies()
    u_ones = fock.apply_symmetry(space, sym, np.ones(space.shape))
    return np.abs(fock.apply_symmetry(space, sym, energies) - energies * u_ones).max()


class TestSymmetryImplementation:
    def test_vacuum_fixed(self):
        space = fock.FockSpace(single_mode(), 3)
        u = fock.apply_symmetry(space, SymmetrySpec(kind="unitary", phases=(1j,)), space.vacuum())
        assert np.abs(u - space.vacuum()).max() == 0.0

    def test_phase_convention_on_plus_charge(self):
        # frozen convention: U alpha+* U* = rho alpha+*, as U alpha+* = rho alpha+* U
        space = fock.FockSpace(single_mode(), 3)
        rho = 0.6 + 0.8j
        sym = SymmetrySpec(kind="unitary", phases=(rho,))
        a_star = fock.creation(space, "+", "k0")
        v = full_random(space, np.random.default_rng(1))
        lhs = fock.apply_symmetry(space, sym, fock.apply_field(space, a_star, v))
        rhs = rho * fock.apply_field(space, a_star, fock.apply_symmetry(space, sym, v))
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_commutes_with_h(self):
        spec = validate_spectrum([("a", 1.0), ("b", 1.0)])
        sym = SymmetrySpec(
            kind="antiunitary",
            phases=(1j, -1j),
            labels=("a", "b"),
            partners=("b", "a"),
        )
        assert commutes_with_h(fock.FockSpace(spec, 2), sym) == 0.0

    @pytest.mark.parametrize("n_modes", [1, 2], ids=["fixed", "pair"])
    def test_commutes_with_h_exactly_random(self, n_modes):
        rng = np.random.default_rng(31 + n_modes)
        labels = ("a", "b")[:n_modes]
        for _ in range(30):
            w = float(rng.uniform(0.3, 3.0))
            spec = validate_spectrum([(lbl, w) for lbl in labels])
            sym = SymmetrySpec(
                kind="antiunitary",
                phases=tuple(np.exp(2j * np.pi * rng.uniform(size=n_modes))),
                labels=labels,
                partners=labels[::-1],
            )
            space = fock.FockSpace(spec, 4 if n_modes == 1 else 3)
            assert commutes_with_h(space, sym) == 0.0

    def test_unitary_diagonal_unit_modulus(self):
        space = fock.FockSpace(single_mode(), 4)
        sym = SymmetrySpec(kind="unitary", phases=(1j,))
        d = fock.apply_symmetry(space, sym, np.ones(space.shape))
        assert np.abs(np.abs(d) - 1.0).max() < 1e-12

    def test_matches_dense_references(self):
        spec = validate_spectrum([("a", 0.8), ("b", 0.8), ("c", 1.3)])
        eta = (0.6 + 0.8j, 1j, 0.8 - 0.6j)
        space = fock.FockSpace(spec, 2)
        anti = SymmetrySpec(
            kind="antiunitary", phases=eta, labels=("a", "b", "c"), partners=("b", "a", "c")
        )
        cases = [
            (SymmetrySpec(kind="unitary", phases=eta), dense.unitary_symmetry(eta, 2)),
            (anti, dense.antiunitary_symmetry([1, 0, 2], eta, 2)),
        ]
        for sym, ref in cases:
            got = dense.matrix_of(space.shape, lambda e: fock.apply_symmetry(space, sym, e))
            assert np.abs(got - ref).max() < 1e-15

    def test_antiunitary_conjugation_rule(self):
        spec = validate_spectrum([("a", 1.0), ("b", 1.0)])
        eta = (0.6 + 0.8j, 1j)
        sym = SymmetrySpec(
            kind="antiunitary", phases=eta, labels=("a", "b"), partners=("b", "a")
        )
        space = fock.FockSpace(spec, 2)
        v = full_random(space, np.random.default_rng(6))
        # U alpha+*(a) U* = eta_b alpha-*(b) since pi(a) = b
        lhs = fock.apply_symmetry(space, sym, fock.apply_field(space, fock.creation(space, "+", "a"), v))
        expected = eta[1] * fock.creation(space, "-", "b")
        rhs = fock.apply_field(space, expected, fock.apply_symmetry(space, sym, v))
        assert np.abs(lhs - rhs).max() < 1e-12


class TestTC:
    def test_squares_to_identity(self):
        spec = validate_spectrum([("a", 1.0), ("b", 2.0)])
        space = fock.FockSpace(spec, 2)
        x = full_random(space, np.random.default_rng(8))
        assert np.abs(fock.apply_tc(space, fock.apply_tc(space, x)) - x).max() == 0.0

    def test_antiunitarity_on_random_vectors(self):
        space = fock.FockSpace(single_mode(), 4)
        rng = np.random.default_rng(3)
        x, y = full_random(space, rng), full_random(space, rng)
        lhs = np.vdot(fock.apply_tc(space, x), fock.apply_tc(space, y))
        assert abs(lhs - np.conj(np.vdot(x, y))) < 1e-12

    def test_matches_dense_reference(self):
        # TC x = P conj(x) with P the charge-swap permutation
        spec = validate_spectrum([("a", 1.0), ("b", 2.0)])
        space = fock.FockSpace(spec, 2)
        swap = dense.antiunitary_symmetry([0, 1], (1.0, 1.0), 2)
        x = full_random(space, np.random.default_rng(9))
        got = fock.apply_tc(space, x).reshape(-1)
        assert np.array_equal(got, swap @ np.conj(x.reshape(-1)))

    def test_charge_swap_on_creation_functionals(self):
        space = fock.FockSpace(single_mode(), 4)
        f = [0.7 - 0.4j]
        v = space.random_state(np.random.default_rng(10))
        plus = fock.creation_functional(space, "+", f)
        minus = fock.creation_functional(space, "-", f)
        # TC A+*(f-bar) TC = A-*(f), as TC A+*(f-bar) = A-*(f) TC
        lhs = fock.apply_tc(space, fock.apply_field(space, plus, v, subcutoff=True))
        rhs = fock.apply_field(space, minus, fock.apply_tc(space, v), subcutoff=True)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_conjugates_fields(self):
        space = fock.FockSpace(single_mode(1.1), 5)
        f = [0.9 + 0.5j]
        t = 0.3
        v = space.random_state(np.random.default_rng(11))
        phi = fock.imaginary_time_field(space, t, f)
        phibar = fock.imaginary_time_field(space, t, f, conjugate=True)
        lhs = fock.apply_tc(space, fock.apply_field(space, phi, v, subcutoff=True))
        rhs = fock.apply_field(space, phibar, fock.apply_tc(space, v), subcutoff=True)
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_commutes_with_us(self):
        space = fock.FockSpace(single_mode(), 3)
        sym = SymmetrySpec(kind="unitary", phases=(1j,))
        x = full_random(space, np.random.default_rng(12))
        lhs = fock.apply_symmetry(space, sym, fock.apply_tc(space, x))
        rhs = fock.apply_tc(space, fock.apply_symmetry(space, sym, x))
        assert np.abs(lhs - rhs).max() < 1e-12


def dense_trace(space, beta, sym=None):
    """Tr(U e^{-beta H}) from the dense matrix of the tensor U (U = 1 if absent)."""
    if sym is None:
        diagonal = np.ones(space.dim)
    else:
        u = dense.matrix_of(space.shape, lambda e: fock.apply_symmetry(space, sym, e))
        diagonal = np.diag(u)
    return complex(np.sum(diagonal * np.exp(-beta * space.energies().reshape(-1))))


class TestTwistedTrace:
    def test_untwisted_geometric_value(self):
        space = fock.FockSpace(single_mode(), 40)
        z = dense_trace(space, 1.0)
        assert abs(z - 4.0) < 1e-10

    def test_twisted_value_rho_minus_one(self):
        spec = single_mode()
        space = fock.FockSpace(spec, 40)
        z = dense_trace(space, 1.0, SymmetrySpec(kind="unitary", phases=(-1 + 0j,)))
        tail = partition.twisted_tail_bound(spec, 1.0, 40)
        assert abs(z - 4.0 / 9.0) <= (4.0 / 9.0) * tail + 1e-12

    def test_zero_modes(self):
        space = fock.FockSpace(validate_spectrum([]), 3)
        assert dense_trace(space, 2.0) == 1.0


class TestTailBound:
    def test_reference_value(self):
        assert partition.truncation_tail_bound(single_mode(), 1.0, 40) < 1e-11

    def test_monotone_in_cutoff(self):
        spec = validate_spectrum([("a", 0.6), ("b", 1.2)])
        bounds = [partition.truncation_tail_bound(spec, 1.0, n) for n in range(2, 30)]
        assert all(b1 > b2 for b1, b2 in zip(bounds, bounds[1:]))

    def test_monotone_in_beta(self):
        spec = single_mode()
        assert partition.truncation_tail_bound(spec, 2.0, 10) < partition.truncation_tail_bound(
            spec, 1.0, 10
        )


class TestScalableTraces:
    def test_partition_trace_matches_dense(self):
        spec = validate_spectrum([("a", 0.8), ("b", 1.4)])
        sym = SymmetrySpec(kind="unitary", phases=(1j, -1 + 0j))
        space = fock.FockSpace(spec, 4)
        boltz = np.diag(np.exp(-0.9 * np.diag(dense.hamiltonian([0.8, 1.4], 4))))
        kron = complex(np.trace(dense.unitary_symmetry(sym.phases, 4) @ boltz))
        tensor = dense_trace(space, 0.9, sym)
        fast = partition.partition_trace(spec, sym, 0.9, 4)
        assert abs(kron - fast) < 1e-12 * abs(kron)
        assert abs(tensor - fast) < 1e-12 * abs(kron)

    def test_antiunitary_trace_matches_dense(self):
        spec = validate_spectrum([("a", 0.8), ("b", 0.8)])
        sym = SymmetrySpec(
            kind="antiunitary",
            phases=(0.6 + 0.8j, 1.0 + 0j),
            labels=("a", "b"),
            partners=("b", "a"),
        )
        space = fock.FockSpace(spec, 3)
        trace = dense_trace(space, 1.1, sym)
        fast = partition.partition_trace(spec, sym, 1.1, 3)
        assert abs(trace - fast) < 1e-12 * max(1.0, abs(trace))

    def test_antiunitary_trace_fixed_modes_match_dense(self):
        spec = validate_spectrum([("a", 0.7), ("b", 1.2)])
        sym = SymmetrySpec(
            kind="antiunitary",
            phases=(0.6 + 0.8j, 1j),
            labels=("a", "b"),
            partners=("a", "b"),
        )
        space = fock.FockSpace(spec, 3)
        trace = dense_trace(space, 0.8, sym)
        fast = partition.partition_trace(spec, sym, 0.8, 3)
        assert abs(trace - fast) < 1e-12 * max(1.0, abs(trace))

    @pytest.mark.parametrize("cutoff", [3, 5, 7])
    def test_antiunitary_trace_matches_enumeration(self, cutoff):
        # one swapped pair (a, b) and one fixed mode c
        spec = validate_spectrum([("a", 0.6), ("b", 0.6), ("c", 0.9)])
        sym = SymmetrySpec(
            kind="antiunitary",
            phases=(0.6 + 0.8j, 1j, -0.8 + 0.6j),
            labels=("a", "b", "c"),
            partners=("b", "a", "c"),
        )
        for beta in (0.5, 1.3):
            enum = dense.enumerated_trace(spec, sym, beta, cutoff)
            fast = partition.partition_trace(spec, sym, beta, cutoff)
            assert abs(enum - fast) <= dense.trace_rounding(spec, beta, cutoff)

    @pytest.mark.parametrize("cutoff", [3, 5, 7])
    def test_unitary_trace_matches_enumeration(self, cutoff):
        # the identity permutation: every slot is its own cycle
        spec = validate_spectrum([("a", 0.6), ("b", 0.6), ("c", 0.9)])
        sym = SymmetrySpec(kind="unitary", phases=(0.6 + 0.8j, 1j, -0.8 + 0.6j))
        for beta in (0.5, 1.3):
            enum = dense.enumerated_trace(spec, sym, beta, cutoff)
            fast = partition.partition_trace(spec, sym, beta, cutoff)
            assert abs(enum - fast) <= dense.trace_rounding(spec, beta, cutoff)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(min_value=0.3, max_value=4.0), min_size=1, max_size=6),
    st.floats(min_value=0.2, max_value=3.0),
)
def test_trace_class_bound(omegas, beta):
    # sum e^{-bw}/(1-e^{-bw}) <= (1-e^{-b mu})^{-1} sum e^{-bw}
    w = np.array(omegas)
    mu = w.min()
    lhs = float(np.sum(np.exp(-beta * w) / (1.0 - np.exp(-beta * w))))
    rhs = float(np.sum(np.exp(-beta * w)) / (1.0 - math.exp(-beta * mu)))
    assert lhs <= rhs + 1e-12
