import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twistkit import fock
from twistkit.errors import CapacityError, ConfigError
from twistkit.spectrum import SymmetrySpec, validate_spectrum

LN2 = math.log(2.0)


def single_mode(omega=LN2):
    return validate_spectrum([("k0", omega)])


class TestBuildSpace:
    def test_dimensions(self):
        assert fock.build_space(single_mode(), 1).dim == 4
        two = validate_spectrum([("a", 1.0), ("b", 2.0)])
        assert fock.build_space(two, 2).dim == 81
        assert fock.build_space(validate_spectrum([]), 5).dim == 1

    def test_vacuum_is_index_zero(self):
        space = fock.build_space(single_mode(), 3)
        assert space.occupations[0].tolist() == [0, 0]

    def test_lexicographic_enumeration_bijective(self):
        space = fock.build_space(validate_spectrum([("a", 1.0), ("b", 2.0)]), 2)
        seen = {tuple(row) for row in space.occupations}
        assert len(seen) == space.dim

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            fock.build_space(single_mode(), 10, budget=100)


class TestCreation:
    def test_matrix_elements(self):
        space = fock.build_space(single_mode(), 3)
        a_star = fock.creation(space, "+", "k0").matrix
        # |n+, n-> basis; alpha+* raises the + slot
        i0 = 0  # (0,0)
        i1 = int(np.flatnonzero((space.occupations == [1, 0]).all(axis=1))[0])
        i2 = int(np.flatnonzero((space.occupations == [2, 0]).all(axis=1))[0])
        assert a_star[i1, i0] == 1.0
        assert abs(a_star[i2, i1] - math.sqrt(2)) < 1e-15

    def test_truncation_annihilates_top_level(self):
        space = fock.build_space(single_mode(), 2)
        a_star = fock.creation(space, "+", "k0").matrix
        top = int(np.flatnonzero((space.occupations == [2, 0]).all(axis=1))[0])
        assert np.all(a_star[:, top] == 0)

    def test_unknown_mode(self):
        space = fock.build_space(single_mode(), 2)
        with pytest.raises(ConfigError):
            fock.creation(space, "+", "nope")

    def test_functional_reduces_to_single_mode(self):
        space = fock.build_space(single_mode(), 3)
        via_functional = fock.creation_functional(space, "+", [1.0]).matrix
        direct = fock.creation(space, "+", "k0").matrix
        assert np.array_equal(via_functional, direct)


class TestCCR:
    @pytest.mark.parametrize("charge", ["+", "-"])
    def test_ccr_subcutoff(self, charge):
        spec = validate_spectrum([("a", 1.0), ("b", 2.0)])
        space = fock.build_space(spec, 4)
        rng = np.random.default_rng(7)
        f = rng.normal(size=2) + 1j * rng.normal(size=2)
        g = rng.normal(size=2) + 1j * rng.normal(size=2)
        a = fock.annihilation_functional(space, charge, f)
        a_star = fock.creation_functional(space, charge, g)
        comm = a.matrix @ a_star.matrix - a_star.matrix @ a.matrix
        # [A+(f), A+*(g-bar)] = <g,f>; [A-(f-bar), A-*(g)] = <f,g>
        inner = complex(np.vdot(g, f)) if charge == "+" else complex(np.vdot(f, g))
        mask = space.subcutoff_mask()
        block = (comm - inner * np.eye(space.dim))[np.ix_(mask, mask)]
        assert np.abs(block).max() < 1e-12

    def test_opposite_charges_commute_exactly(self):
        spec = validate_spectrum([("a", 1.0)])
        space = fock.build_space(spec, 4)
        ap = fock.creation_functional(space, "+", [1.3 + 0.2j]).matrix
        am = fock.creation_functional(space, "-", [0.4 - 1.1j]).matrix
        assert np.abs(ap @ am - am @ ap).max() == 0.0


class TestHamiltonian:
    def test_vacuum_energy_zero(self):
        space = fock.build_space(single_mode(0.7), 2)
        assert fock.hamiltonian(space).matrix[0, 0] == 0.0

    def test_single_excitation_energy(self):
        space = fock.build_space(single_mode(0.7), 2)
        i1 = int(np.flatnonzero((space.occupations == [1, 0]).all(axis=1))[0])
        assert abs(fock.hamiltonian(space).matrix[i1, i1] - 0.7) < 1e-15

    def test_h_and_n_commute(self):
        spec = validate_spectrum([("a", 1.0), ("b", 2.0)])
        space = fock.build_space(spec, 2)
        h = fock.hamiltonian(space).matrix
        n = fock.number_operator(space).matrix
        assert np.abs(h @ n - n @ h).max() == 0.0


class TestImaginaryTimeField:
    def test_t0_single_mode_unit_omega(self):
        spec = single_mode(1.0)
        space = fock.build_space(spec, 3)
        phi = fock.imaginary_time_field(space, 0.0, [1.0]).matrix
        expected = (
            fock.creation(space, "+", "k0").matrix
            + fock.creation(space, "-", "k0").adjoint().matrix
        ) / math.sqrt(2)
        assert np.abs(phi - expected).max() < 1e-15

    def test_adjoint_flips_time(self):
        # phi(t, f-bar)^* = phibar(-t, f): the adjoint conjugates the real
        # decay factors in place, which is a time reflection.
        spec = single_mode(1.3)
        space = fock.build_space(spec, 6)
        t = 0.4
        f = [0.8 - 0.3j]
        lhs = fock.imaginary_time_field(space, t, f).adjoint().matrix
        rhs = fock.imaginary_time_field(space, -t, f, conjugate=True).matrix
        mask = space.subcutoff_mask()
        assert np.abs((lhs - rhs)[np.ix_(mask, mask)]).max() < 1e-12

    def test_dynamics_relation(self):
        spec = validate_spectrum([("a", 0.9), ("b", 1.7)])
        space = fock.build_space(spec, 4)
        t = 0.37
        f = np.array([0.3 + 1j, -0.8 + 0.2j])
        u = np.diag(np.exp(1j * t * space.energies()))
        evolved = u @ fock.creation_functional(space, "+", f).matrix @ u.conj().T
        shifted = fock.creation_functional(
            space, "+", f * np.exp(-1j * t * np.array(spec.omegas))
        ).matrix
        mask = space.subcutoff_mask()
        assert np.abs((evolved - shifted)[np.ix_(mask, mask)]).max() < 1e-10


class TestSymmetryImplementation:
    def test_vacuum_fixed(self):
        space = fock.build_space(single_mode(), 3)
        u = fock.implement_symmetry(space, SymmetrySpec(kind="unitary", phases=(1j,)))
        vac = np.zeros(space.dim)
        vac[0] = 1.0
        assert np.abs(u.apply(vac) - vac).max() == 0.0

    def test_phase_convention_on_plus_charge(self):
        # frozen convention: U alpha+* U* = rho alpha+*
        space = fock.build_space(single_mode(), 3)
        rho = 0.6 + 0.8j
        u = fock.implement_symmetry(space, SymmetrySpec(kind="unitary", phases=(rho,)))
        a_star = fock.creation(space, "+", "k0")
        conj = (u @ a_star @ u.adjoint()).matrix
        assert np.abs(conj - rho * a_star.matrix).max() < 1e-12

    def test_commutes_with_h(self):
        spec = validate_spectrum([("a", 1.0), ("b", 1.0)])
        sym = SymmetrySpec(
            kind="antiunitary",
            phases=(1j, -1j),
            labels=("a", "b"),
            partners=("b", "a"),
        )
        space = fock.build_space(spec, 2)
        u = fock.implement_symmetry(space, sym).matrix
        h = fock.hamiltonian(space).matrix
        assert np.abs(u @ h - h @ u).max() == 0.0

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
            space = fock.build_space(spec, 4 if n_modes == 1 else 3)
            u = fock.implement_symmetry(space, sym).matrix
            h = fock.hamiltonian(space).matrix
            assert np.abs(u @ h - h @ u).max() == 0.0

    def test_unitary_diagonal_unit_modulus(self):
        space = fock.build_space(single_mode(), 4)
        u = fock.implement_symmetry(space, SymmetrySpec(kind="unitary", phases=(1j,)))
        d = np.diag(u.matrix)
        assert np.abs(np.abs(d) - 1.0).max() < 1e-12

    def test_antiunitary_conjugation_rule(self):
        spec = validate_spectrum([("a", 1.0), ("b", 1.0)])
        eta = (0.6 + 0.8j, 1j)
        sym = SymmetrySpec(
            kind="antiunitary", phases=eta, labels=("a", "b"), partners=("b", "a")
        )
        space = fock.build_space(spec, 2)
        u = fock.implement_symmetry(space, sym)
        # U alpha+*(a) U* = eta_b alpha-*(b) since pi(a) = b
        conj = (u @ fock.creation(space, "+", "a") @ u.adjoint()).matrix
        expected = eta[1] * fock.creation(space, "-", "b").matrix
        assert np.abs(conj - expected).max() < 1e-12


class TestTC:
    def test_squares_to_identity(self):
        spec = validate_spectrum([("a", 1.0), ("b", 2.0)])
        space = fock.build_space(spec, 2)
        tc = fock.tc_operator(space)
        sq = tc @ tc
        assert not sq.antilinear
        assert np.abs(sq.matrix - np.eye(space.dim)).max() == 0.0

    def test_antiunitarity_on_random_vectors(self):
        space = fock.build_space(single_mode(), 4)
        tc = fock.tc_operator(space)
        rng = np.random.default_rng(3)
        x = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
        y = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
        lhs = np.vdot(tc.apply(x), tc.apply(y))
        assert abs(lhs - np.conj(np.vdot(x, y))) < 1e-12

    def test_charge_swap_on_creation_functionals(self):
        space = fock.build_space(single_mode(), 4)
        tc = fock.tc_operator(space)
        f = [0.7 - 0.4j]
        lhs = (tc @ fock.creation_functional(space, "+", f) @ tc).matrix
        rhs = fock.creation_functional(space, "-", f).matrix
        mask = space.subcutoff_mask()
        assert np.abs((lhs - rhs)[np.ix_(mask, mask)]).max() < 1e-12

    def test_conjugates_fields(self):
        space = fock.build_space(single_mode(1.1), 5)
        tc = fock.tc_operator(space)
        f = [0.9 + 0.5j]
        t = 0.3
        lhs = (tc @ fock.imaginary_time_field(space, t, f) @ tc).matrix
        rhs = fock.imaginary_time_field(space, t, f, conjugate=True).matrix
        mask = space.subcutoff_mask()
        assert np.abs((lhs - rhs)[np.ix_(mask, mask)]).max() < 1e-10

    def test_commutes_with_us(self):
        space = fock.build_space(single_mode(), 3)
        u = fock.implement_symmetry(space, SymmetrySpec(kind="unitary", phases=(1j,)))
        tc = fock.tc_operator(space)
        assert np.abs((u @ tc).matrix - (tc @ u).matrix).max() < 1e-12


class TestTwistedTrace:
    def test_untwisted_geometric_value(self):
        spec = single_mode()
        space = fock.build_space(spec, 40)
        z = fock.twisted_trace(space, [], 1.0, space.identity())
        assert abs(z - 4.0) < 1e-10

    def test_twisted_value_rho_minus_one(self):
        spec = single_mode()
        space = fock.build_space(spec, 40)
        u = fock.implement_symmetry(space, SymmetrySpec(kind="unitary", phases=(-1 + 0j,)))
        z = fock.twisted_trace(space, [], 1.0, u)
        tail = fock.truncation_tail_bound(spec, 1.0, 40)
        assert abs(z - 4.0 / 9.0) <= (4.0 / 9.0) * tail + 1e-12

    def test_zero_modes(self):
        space = fock.build_space(validate_spectrum([]), 3)
        assert fock.twisted_trace(space, [], 2.0, space.identity()) == 1.0


class TestTailBound:
    def test_reference_value(self):
        assert fock.truncation_tail_bound(single_mode(), 1.0, 40) < 1e-11

    def test_monotone_in_cutoff(self):
        spec = validate_spectrum([("a", 0.6), ("b", 1.2)])
        bounds = [fock.truncation_tail_bound(spec, 1.0, n) for n in range(2, 30)]
        assert all(b1 > b2 for b1, b2 in zip(bounds, bounds[1:]))

    def test_monotone_in_beta(self):
        spec = single_mode()
        assert fock.truncation_tail_bound(spec, 2.0, 10) < fock.truncation_tail_bound(
            spec, 1.0, 10
        )


class TestScalableTraces:
    def test_partition_trace_matches_dense(self):
        spec = validate_spectrum([("a", 0.8), ("b", 1.4)])
        sym = SymmetrySpec(kind="unitary", phases=(1j, -1 + 0j))
        space = fock.build_space(spec, 4)
        u = fock.implement_symmetry(space, sym)
        dense = fock.twisted_trace(space, [], 0.9, u)
        fast = fock.partition_trace(spec, sym, 0.9, 4)
        assert abs(dense - fast) < 1e-12 * abs(dense)

    def test_antiunitary_trace_matches_dense(self):
        spec = validate_spectrum([("a", 0.8), ("b", 0.8)])
        sym = SymmetrySpec(
            kind="antiunitary",
            phases=(0.6 + 0.8j, 1.0 + 0j),
            labels=("a", "b"),
            partners=("b", "a"),
        )
        space = fock.build_space(spec, 3)
        u = fock.implement_symmetry(space, sym)
        dense = fock.twisted_trace(space, [], 1.1, u)
        fast = fock.antiunitary_partition_trace(spec, sym, 1.1, 3)
        assert abs(dense - fast) < 1e-12 * max(1.0, abs(dense))

    def test_antiunitary_trace_fixed_modes_match_dense(self):
        spec = validate_spectrum([("a", 0.7), ("b", 1.2)])
        sym = SymmetrySpec(
            kind="antiunitary",
            phases=(0.6 + 0.8j, 1j),
            labels=("a", "b"),
            partners=("a", "b"),
        )
        space = fock.build_space(spec, 3)
        u = fock.implement_symmetry(space, sym)
        dense = fock.twisted_trace(space, [], 0.8, u)
        fast = fock.antiunitary_partition_trace(spec, sym, 0.8, 3)
        assert abs(dense - fast) < 1e-12 * max(1.0, abs(dense))

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
            enum = fock._enumerated_antiunitary_trace(spec, sym, beta, cutoff)
            fast = fock.antiunitary_partition_trace(spec, sym, beta, cutoff)
            assert abs(enum - fast) < 1e-12 * abs(enum)


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
