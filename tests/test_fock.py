import ast
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dense
from twistkit import fock, verify
from twistkit.errors import CapacityError, ConfigError
from twistkit.spectrum import SymmetrySpec, restrict, validate_spectrum

LN2 = math.log(2.0)


def single_mode(omega=LN2):
    return validate_spectrum([("k0", omega)])


def state_at(space, *occupation):
    """Basis state with the given occupation per slot."""
    e = np.zeros(space.shape, dtype=complex)
    e[occupation] = 1.0
    return e


def doubled(c=None, d=None, n_modes=1):
    """Doubled coordinates q = (c, d); a missing half is zero."""
    zero = np.zeros(n_modes, dtype=complex)
    return np.concatenate([zero if c is None else c, zero if d is None else d])


def full_random(space, rng):
    """Seeded random state on the full space."""
    return rng.normal(size=space.shape) + 1j * rng.normal(size=space.shape)


class TestBuildSpace:
    def test_dimensions(self):
        assert fock.FockSpace(single_mode(), 1).dim == 4
        two = validate_spectrum([("a", 1.0), ("b", 2.0)])
        assert fock.FockSpace(two, 2).dim == 81
        assert fock.FockSpace(two, 2).shape == (3, 3, 3, 3)

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


class TestFactors:
    def test_diagonal_actions_split_every_mode(self):
        spec = validate_spectrum([("a", 0.7), ("b", 1.1), ("c", 0.4)])
        unitary = SymmetrySpec(kind="unitary", phases=(1j, -1.0, 1.0))
        assert fock.factors(spec, unitary) == fock.factors(spec, None) == [(0,), (1,), (2,)]

    def test_a_pairing_joins_its_modes_and_restricts_inside_them(self):
        spec = validate_spectrum([("a", 0.7), ("b", 1.1), ("c", 0.7)])
        sym = SymmetrySpec(kind="antiunitary", phases=(1j, -1.0, 0.6 + 0.8j), pairing=(2, 1, 0))
        assert fock.factors(spec, sym) == [(0, 2), (1,)]
        sub, sub_sym = restrict(spec, sym, (0, 2))
        assert (sub.labels, sub.omegas) == (("a", "c"), (0.7, 0.7))
        assert (sub_sym.kind, sub_sym.phases, sub_sym.pairing) == ("antiunitary", (1j, 0.6 + 0.8j), (1, 0))
        assert restrict(spec, None, (1,))[1] is None
        with pytest.raises(ConfigError, match="does not map"):
            restrict(spec, sym, (0, 1))

    def test_a_slot_action_that_splits_a_pair_leaves_it_on_one_factor(self, monkeypatch):
        spec = validate_spectrum([("a", 0.7), ("b", 1.1), ("c", 0.7)])
        sym = SymmetrySpec(kind="antiunitary", phases=(1j, -1.0, 0.6 + 0.8j), pairing=(2, 1, 0))
        # the slot action of every mode onto itself, as if the pairing were the identity
        split = SymmetrySpec(kind="antiunitary", phases=sym.phases, pairing=(0, 1, 2)).action
        monkeypatch.setattr(SymmetrySpec, "action", property(lambda _: split))
        assert fock.factors(spec, sym) == [(0, 2), (1,)]

    def test_symmetry_and_tc_are_products_over_factors(self):
        # on a product state x (x) y of the factors {a, b} and {c}, U and TC
        # act factor by factor
        spec = validate_spectrum([("a", 0.8), ("b", 0.8), ("c", 1.3)])
        sym = SymmetrySpec(kind="antiunitary", phases=(0.6 + 0.8j, 1j, -1.0), pairing=(1, 0, 2))
        (pair, pair_sym), (fixed, fixed_sym) = (
            restrict(spec, sym, modes) for modes in fock.factors(spec, sym))
        rng = np.random.default_rng(3)
        x = full_random(fock.FockSpace(pair, 2), rng)
        y = full_random(fock.FockSpace(fixed, 2), rng)
        full = fock.FockSpace(spec, 2)
        product = np.multiply.outer(x, y)
        u_parts = np.multiply.outer(fock.apply_symmetry(fock.FockSpace(pair, 2), pair_sym, x),
                                    fock.apply_symmetry(fock.FockSpace(fixed, 2), fixed_sym, y))
        # equal up to the order of the phase products
        np.testing.assert_allclose(fock.apply_symmetry(full, sym, product), u_parts, rtol=1e-14)
        tc_parts = np.multiply.outer(fock.apply_tc(fock.FockSpace(pair, 2), x),
                                     fock.apply_tc(fock.FockSpace(fixed, 2), y))
        assert np.array_equal(fock.apply_tc(full, product), tc_parts)


class TestStandardNormals:
    """The seeded draw behind every oracle state and coefficient vector."""

    def test_same_seed_same_state(self):
        space = fock.FockSpace(validate_spectrum([("a", 1.0), ("b", 2.0)]), 4)
        x, y = space.random_state(random.Random(3)), space.random_state(random.Random(3))
        assert x.shape == (4,) * 4 and np.array_equal(x, y)

    def test_different_seeds_differ_everywhere(self):
        space = fock.FockSpace(validate_spectrum([("a", 1.0), ("b", 2.0)]), 4)
        x, y = space.random_state(random.Random(3)), space.random_state(random.Random(4))
        assert not np.any(x == y)

    def test_moments_of_a_sub_cutoff_state(self):
        # 3 modes at cutoff 5: 5**6 = 15625 entries.  E z = 0, E|z|^2 = 2 and
        # E z^2 = 0; the last fails a draw whose angle reuses the radius's uniform
        spec = validate_spectrum([("a", 1.0), ("b", 1.5), ("c", 2.0)])
        z = fock.FockSpace(spec, 5).random_state(random.Random(0))
        assert z.size == 15625
        assert abs(z.mean()) < 0.05
        assert abs(np.mean(np.abs(z) ** 2) - 2.0) < 0.05
        assert abs(np.mean(z**2)) < 0.05

    @pytest.mark.parametrize("byte, radius", [(0x00, 0.0), (0xFF, math.sqrt(106 * LN2))])
    def test_extreme_uniforms_stay_finite(self, byte, radius):
        # all-zero words give u = 0, all-one words u = 1 - 2**-53: radius
        # sqrt(-2 log(1 - u)) is 0 and sqrt(2 * 53 log 2)
        class Constant:
            def randbytes(self, n):
                return bytes([byte]) * n

        z = fock.standard_normals(Constant(), 3)
        assert np.allclose(np.abs(z), radius, rtol=1e-15, atol=0.0)


class TestCreation:
    def test_matrix_elements(self):
        space = fock.FockSpace(single_mode(), 3)
        a_star = fock.creation(space, [1.0, 0.0])
        # |n+, n-> basis; alpha+* raises the + slot
        assert np.array_equal(fock.apply_field(space, a_star, state_at(space, 0, 0)), state_at(space, 1, 0))
        out = fock.apply_field(space, a_star, state_at(space, 1, 0))
        assert abs(out[2, 0] - math.sqrt(2)) < 1e-15
        assert np.count_nonzero(out) == 1

    def test_truncation_annihilates_top_level(self):
        space = fock.FockSpace(single_mode(), 2)
        a_star = fock.creation(space, [1.0, 0.0])
        assert not fock.apply_field(space, a_star, state_at(space, 2, 0)).any()

    def test_functional_reduces_to_single_mode(self):
        # A*(1, 0) = alpha+*(k0) and A*(0, 1) = alpha-*(k0): one unit entry each
        space = fock.FockSpace(single_mode(), 3)
        for q, slot in (([1.0, 0.0], 0), ([0.0, 1.0], 1)):
            direct = np.zeros((2, 2), dtype=complex)
            direct[0, slot] = 1.0
            assert np.array_equal(fock.creation(space, q), direct)

    @pytest.mark.parametrize("slot", range(4))
    def test_matches_kron_reference(self, slot):
        # tensor action on every basis state against the np.kron matrices;
        # slot 2k is c_k and slot 2k + 1 is d_k of q = (c, d)
        space = fock.FockSpace(validate_spectrum([("a", 1.0), ("b", 2.0)]), 3)
        q = np.zeros(4)
        q[2 * (slot % 2) + slot // 2] = 1.0
        create = fock.creation(space, q)
        ref = dense.slot_creation(4, 3, slot)
        got = dense.matrix_of(space.shape, lambda e: fock.apply_field(space, create, e))
        assert np.abs(got - ref).max() < 1e-15
        got = dense.matrix_of(space.shape, lambda e: fock.apply_field(space, fock.adjoint(create), e))
        assert np.abs(got - ref.T).max() < 1e-15
        destroy = fock.annihilation(space, np.roll(q, 2))  # A(c, d) = sum_k d_k alpha+ + c_k alpha-
        got = dense.matrix_of(space.shape, lambda e: fock.apply_field(space, destroy, e))
        assert np.abs(got - ref.T).max() < 1e-15

    @pytest.mark.parametrize("builder", ["creation", "annihilation", "field"])
    def test_wrong_length_refused(self, builder):
        # q = (c, d) has 2M entries; an M-vector, 2M + 1 entries or a (2, M) array are refused
        space = fock.FockSpace(validate_spectrum([("a", 1.0), ("b", 2.0)]), 2)
        build = getattr(fock, builder)
        args = (0.3,) if builder == "field" else ()
        for q in ([1.0, 2.0], np.ones(5), np.ones((2, 2))):
            with pytest.raises(ConfigError):
                build(space, q, *args)

    def test_subcutoff_rows_of_the_full_result(self):
        spec = validate_spectrum([("a", 1.0), ("b", 2.0)])
        space = fock.FockSpace(spec, 3)
        rng = random.Random(5)
        field = fock.standard_normals(rng, 8).reshape(2, 4)
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
        rng = random.Random(7)
        f, g = fock.standard_normals(rng, 2), fock.standard_normals(rng, 2)
        if charge == "+":  # A+(f) = A(0, f), A+*(g-bar) = A*(g-bar, 0)
            a = fock.annihilation(space, doubled(d=f, n_modes=2))
            a_star = fock.creation(space, doubled(c=g.conj(), n_modes=2))
        else:  # A-(f-bar) = A(f-bar, 0), A-*(g) = A*(0, g)
            a = fock.annihilation(space, doubled(c=f.conj(), n_modes=2))
            a_star = fock.creation(space, doubled(d=g, n_modes=2))
        v = space.random_state(rng)
        # [A+(f), A+*(g-bar)] = <g,f>; [A-(f-bar), A-*(g)] = <f,g>
        inner = complex(np.vdot(g, f)) if charge == "+" else complex(np.vdot(f, g))
        assert np.abs(fock.sub_commutator(space, a, a_star, v) - inner * v).max() < 1e-12

    def test_opposite_charges_commute_exactly(self):
        # on basis states each entry of either order is one product of two
        # coefficients; with one of them real, both orders round alike
        spec = validate_spectrum([("a", 1.0)])
        space = fock.FockSpace(spec, 4)
        am = fock.creation(space, [0.0, 0.4 - 1.1j])
        for part in (1.3, 0.2):
            ap = fock.creation(space, [part, 0.0])
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
    def test_field_at_imaginary_time_matches_dense_phi(self):
        # phi(t, f-bar) = [sum_k f-bar_k w_k^{-1/2} (e^{-t w_k} alpha+*(k)
        # + e^{t w_k} alpha-(k))] / sqrt 2 and phibar(t, f) the same with f,
        # the charges swapped; psi(it, (f-bar, 0)) and psi(it, (0, f))
        spec = validate_spectrum([("a", 0.9), ("b", 1.7)])
        space = fock.FockSpace(spec, 3)
        t = 0.45
        f = np.array([0.3 + 1j, -0.8 + 0.2j])
        w = np.array(spec.omegas)
        decay, growth = np.exp(-t * w) / np.sqrt(w), np.exp(t * w) / np.sqrt(w)
        up = [dense.slot_creation(4, 3, 2 * k) for k in range(2)]
        down = [dense.slot_creation(4, 3, 2 * k + 1) for k in range(2)]
        phi = sum(np.conj(f[k]) * (decay[k] * up[k] + growth[k] * down[k].T) for k in range(2))
        phibar = sum(f[k] * (decay[k] * down[k] + growth[k] * up[k].T) for k in range(2))
        cases = ((doubled(c=f.conj(), n_modes=2), phi), (doubled(d=f, n_modes=2), phibar))
        for q, ref in cases:
            table = fock.field(space, q, 1j * t)
            got = dense.matrix_of(space.shape, lambda e: fock.apply_field(space, table, e))
            assert np.abs(got - ref / math.sqrt(2)).max() < 1e-14


    def test_t0_single_mode_unit_omega(self):
        spec = single_mode(1.0)
        space = fock.FockSpace(spec, 3)
        phi = fock.field(space, [1.0, 0.0], 0.0)
        expected = (
            fock.creation(space, [1.0, 0.0]) + fock.adjoint(fock.creation(space, [0.0, 1.0]))
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
        f = np.array([0.8 - 0.3j])
        rng = random.Random(2)
        x, y = space.random_state(rng), space.random_state(rng)
        phi = fock.field(space, doubled(c=f.conj()), 1j * t)
        phibar = fock.field(space, doubled(d=f), -1j * t)
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
        v = space.random_state(random.Random(4))
        evolved = u * fock.apply_field(
            space, fock.creation(space, doubled(c=f.conj(), n_modes=2)), np.conj(u) * v,
            subcutoff=True,
        )
        f_t = f * np.exp(-1j * t * np.array(spec.omegas))
        shifted = fock.creation(space, doubled(c=f_t.conj(), n_modes=2))
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
        a_star = fock.creation(space, [1.0, 0.0])
        v = full_random(space, np.random.default_rng(1))
        lhs = fock.apply_symmetry(space, sym, fock.apply_field(space, a_star, v))
        rhs = rho * fock.apply_field(space, a_star, fock.apply_symmetry(space, sym, v))
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_commutes_with_h(self):
        spec = validate_spectrum([("a", 1.0), ("b", 1.0)])
        sym = SymmetrySpec(
            kind="antiunitary",
            phases=(1j, -1j),
            pairing=(1, 0),
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
                pairing=tuple(range(n_modes))[::-1],
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
            kind="antiunitary", phases=eta, pairing=(1, 0, 2)
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
            kind="antiunitary", phases=eta, pairing=(1, 0)
        )
        space = fock.FockSpace(spec, 2)
        v = full_random(space, np.random.default_rng(6))
        # U alpha+*(a) U* = eta_b alpha-*(b) since pi(a) = b
        lhs = fock.apply_symmetry(space, sym, fock.apply_field(space, fock.creation(space, [1, 0, 0, 0]), v))
        expected = eta[1] * fock.creation(space, [0, 0, 0, 1])
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
        f = np.array([0.7 - 0.4j])
        v = space.random_state(random.Random(10))
        plus = fock.creation(space, doubled(c=f.conj()))
        minus = fock.creation(space, doubled(d=f))
        # TC A+*(f-bar) TC = A-*(f), as TC A+*(f-bar) = A-*(f) TC
        lhs = fock.apply_tc(space, fock.apply_field(space, plus, v, subcutoff=True))
        rhs = fock.apply_field(space, minus, fock.apply_tc(space, v), subcutoff=True)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_conjugates_fields(self):
        space = fock.FockSpace(single_mode(1.1), 5)
        f = np.array([0.9 + 0.5j])
        t = 0.3
        v = space.random_state(random.Random(11))
        phi = fock.field(space, doubled(c=f.conj()), 1j * t)
        phibar = fock.field(space, doubled(d=f), 1j * t)
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
        tail = verify.twisted_tail_bound(spec, 1.0, 40)
        assert abs(z - 4.0 / 9.0) <= (4.0 / 9.0) * tail + 1e-12


class TestTailBound:
    def test_reference_value(self):
        assert verify.truncation_tail_bound(single_mode(), 1.0, 40) < 1e-11

    def test_monotone_in_cutoff(self):
        spec = validate_spectrum([("a", 0.6), ("b", 1.2)])
        bounds = [verify.truncation_tail_bound(spec, 1.0, n) for n in range(2, 30)]
        assert all(b1 > b2 for b1, b2 in zip(bounds, bounds[1:]))

    def test_monotone_in_beta(self):
        spec = single_mode()
        assert verify.truncation_tail_bound(spec, 2.0, 10) < verify.truncation_tail_bound(
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
        fast = verify.partition_trace(spec, sym, 0.9, 4)
        assert abs(kron - fast) < 1e-12 * abs(kron)
        assert abs(tensor - fast) < 1e-12 * abs(kron)

    def test_antiunitary_trace_matches_dense(self):
        spec = validate_spectrum([("a", 0.8), ("b", 0.8)])
        sym = SymmetrySpec(
            kind="antiunitary",
            phases=(0.6 + 0.8j, 1.0 + 0j),
            pairing=(1, 0),
        )
        space = fock.FockSpace(spec, 3)
        trace = dense_trace(space, 1.1, sym)
        fast = verify.partition_trace(spec, sym, 1.1, 3)
        assert abs(trace - fast) < 1e-12 * max(1.0, abs(trace))

    def test_antiunitary_trace_fixed_modes_match_dense(self):
        spec = validate_spectrum([("a", 0.7), ("b", 1.2)])
        sym = SymmetrySpec(
            kind="antiunitary",
            phases=(0.6 + 0.8j, 1j),
            pairing=(0, 1),
        )
        space = fock.FockSpace(spec, 3)
        trace = dense_trace(space, 0.8, sym)
        fast = verify.partition_trace(spec, sym, 0.8, 3)
        assert abs(trace - fast) < 1e-12 * max(1.0, abs(trace))

    @pytest.mark.parametrize("cutoff", [3, 5, 7])
    def test_antiunitary_trace_matches_enumeration(self, cutoff):
        # one swapped pair (a, b) and one fixed mode c
        spec = validate_spectrum([("a", 0.6), ("b", 0.6), ("c", 0.9)])
        sym = SymmetrySpec(
            kind="antiunitary",
            phases=(0.6 + 0.8j, 1j, -0.8 + 0.6j),
            pairing=(1, 0, 2),
        )
        for beta in (0.5, 1.3):
            enum = dense.enumerated_trace(spec, sym, beta, cutoff)
            fast = verify.partition_trace(spec, sym, beta, cutoff)
            assert abs(enum - fast) <= dense.trace_rounding(spec, beta, cutoff)

    @pytest.mark.parametrize("cutoff", [3, 5, 7])
    def test_unitary_trace_matches_enumeration(self, cutoff):
        # the identity permutation: every slot is its own cycle
        spec = validate_spectrum([("a", 0.6), ("b", 0.6), ("c", 0.9)])
        sym = SymmetrySpec(kind="unitary", phases=(0.6 + 0.8j, 1j, -0.8 + 0.6j))
        for beta in (0.5, 1.3):
            enum = dense.enumerated_trace(spec, sym, beta, cutoff)
            fast = verify.partition_trace(spec, sym, beta, cutoff)
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


def test_only_fock_slices_with_step_two():
    # the doubled-to-slot layout of a field table is known to fock alone
    for path in Path(fock.__file__).parent.glob("*.py"):
        if path.name == "fock.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            step = node.step if isinstance(node, ast.Slice) else None
            assert not (isinstance(step, ast.Constant) and step.value == 2), (path.name, node.lineno)
