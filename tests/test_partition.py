import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twistkit import partition
from twistkit.errors import DomainError, RangeError
from twistkit.spectrum import SymmetrySpec, validate_spectrum

LN2 = math.log(2.0)

unit_phase = st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True).map(
    lambda t: cmath.exp(1j * t)
)


class TestUntwisted:
    def test_worked_example(self):
        s = validate_spectrum([("k0", LN2)])
        assert abs(partition.z_untwisted(s, 1.0) - 4.0) < 1e-14

    def test_empty_product(self):
        assert partition.z_untwisted(validate_spectrum([]), 1.0) == 1.0

    def test_monotone_in_beta(self):
        s = validate_spectrum([("a", 0.7), ("b", 1.3)])
        values = [partition.z_untwisted(s, b) for b in (0.5, 1.0, 2.0, 4.0, 8.0)]
        assert all(a > b > 1.0 for a, b in zip(values, values[1:]))

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(DomainError):
            partition.z_untwisted(validate_spectrum([("a", 1.0)]), 0.0)


class TestTwistedUnitary:
    def test_rho_one_reduces_to_untwisted(self):
        s = validate_spectrum([("k0", LN2)])
        sym = SymmetrySpec(kind="unitary", phases=(1.0 + 0j,))
        assert abs(partition.z_twisted(s, sym, 1.0) - 4.0) < 1e-14

    def test_rho_minus_one(self):
        s = validate_spectrum([("k0", LN2)])
        sym = SymmetrySpec(kind="unitary", phases=(-1.0 + 0j,))
        assert abs(partition.z_twisted(s, sym, 1.0) - 4.0 / 9.0) < 1e-14

    def test_rho_i(self):
        s = validate_spectrum([("k0", LN2)])
        sym = SymmetrySpec(kind="unitary", phases=(1j,))
        assert abs(partition.z_twisted(s, sym, 1.0) - 0.8) < 1e-14

    def test_antiunitary_fixed_mode_same_route(self):
        # one closed form serves both kinds: a fixed mode is one 2-cycle, r = 1
        s = validate_spectrum([("a", 1.0)])
        sym = SymmetrySpec(
            kind="antiunitary", phases=(1.0 + 0j,), labels=("a",), partners=("a",)
        )
        assert abs(partition.z_twisted(s, sym, 1.0) - 1.0 / -math.expm1(-2.0)) <= 1e-15

    @settings(max_examples=50, deadline=None)
    @given(unit_phase, st.floats(min_value=0.5, max_value=3.0))
    def test_single_mode_extremes(self, rho, omega):
        # |1 - rho x|^2 is extremized at rho = +-1 for x in (0, 1)
        s = validate_spectrum([("a", omega)])
        z = partition.z_twisted(s, SymmetrySpec(kind="unitary", phases=(rho,)), 1.0)
        z_hi = partition.z_twisted(
            s, SymmetrySpec(kind="unitary", phases=(1.0 + 0j,)), 1.0
        )
        z_lo = partition.z_twisted(
            s, SymmetrySpec(kind="unitary", phases=(-1.0 + 0j,)), 1.0
        )
        assert z_lo - 1e-14 <= z <= z_hi + 1e-14


class TestLowerBound:
    def test_worked_example(self):
        s = validate_spectrum([("k0", LN2)])
        assert abs(partition.positivity_lower_bound(s, 1.0) - 4.0 / 9.0) < 1e-14

    def test_equality_at_rho_minus_one(self):
        s = validate_spectrum([("k0", LN2)])
        sym = SymmetrySpec(kind="unitary", phases=(-1.0 + 0j,))
        z = partition.z_twisted(s, sym, 1.0)
        assert abs(z - partition.positivity_lower_bound(s, 1.0)) < 1e-14

    def test_empty_spectrum(self):
        assert partition.positivity_lower_bound(validate_spectrum([]), 1.0) == 1.0

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.tuples(unit_phase, st.floats(min_value=0.4, max_value=3.0)),
                 min_size=1, max_size=4),
        st.floats(min_value=0.3, max_value=3.0),
    )
    def test_bound_holds(self, mode_data, beta):
        s = validate_spectrum([(f"m{i}", w) for i, (_, w) in enumerate(mode_data)])
        sym = SymmetrySpec(kind="unitary", phases=tuple(p for p, _ in mode_data))
        z = partition.z_twisted(s, sym, beta)
        assert z > 0.0
        assert z >= partition.positivity_lower_bound(s, beta) * (1.0 - 1e-12)


class TestOracleAgreement:
    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_random_modes_vs_truncated_trace(self, beta):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n_modes = int(rng.integers(1, 3))
            omegas = rng.uniform(0.5, 3.0, size=n_modes)
            phases = tuple(cmath.exp(2j * math.pi * u) for u in rng.uniform(size=n_modes))
            s = validate_spectrum([(f"m{i}", w) for i, w in enumerate(omegas)])
            sym = SymmetrySpec(kind="unitary", phases=phases)
            cutoff = 90
            z = partition.z_twisted(s, sym, beta)
            oracle = partition.partition_trace(s, sym, beta, cutoff)
            tail = partition.truncation_tail_bound(s, beta, cutoff)
            assert abs(z - oracle) / z <= tail + 1e-10


class TestAntiunitary:
    def test_single_mode_conjugation(self):
        s = validate_spectrum([("k0", LN2)])
        sym = SymmetrySpec(
            kind="antiunitary", phases=(1.0 + 0j,), labels=("k0",), partners=("k0",)
        )
        z = partition.z_twisted(s, sym, 1.0)
        assert abs(z - 4.0 / 3.0) < 1e-14
        oracle = partition.partition_trace(s, sym, 1.0, 40)
        assert abs(z - oracle) < 1e-10

    def test_two_mode_swap(self):
        s = validate_spectrum([("a", LN2), ("b", LN2)])
        sym = SymmetrySpec(
            kind="antiunitary",
            phases=(1.0 + 0j, 1.0 + 0j),
            labels=("a", "b"),
            partners=("b", "a"),
        )
        z = partition.z_twisted(s, sym, 1.0)
        assert abs(z - 16.0 / 9.0) < 1e-14
        oracle = partition.partition_trace(s, sym, 1.0, 20)
        tail = partition.truncation_tail_bound(s, 1.0, 20)
        assert abs(z - oracle) / z <= tail + 1e-10

    def test_swap_with_phases_vs_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            w = float(rng.uniform(0.6, 2.0))
            etas = tuple(cmath.exp(2j * math.pi * u) for u in rng.uniform(size=2))
            s = validate_spectrum([("a", w), ("b", w)])
            sym = SymmetrySpec(
                kind="antiunitary", phases=etas, labels=("a", "b"), partners=("b", "a")
            )
            z = partition.z_twisted(s, sym, 1.0)
            oracle = partition.partition_trace(s, sym, 1.0, 25)
            tail = partition.truncation_tail_bound(s, 1.0, 25)
            assert abs(z - oracle) / z <= tail + 1e-8

    def test_empty_spectrum(self):
        s = validate_spectrum([])
        sym = SymmetrySpec(kind="antiunitary", phases=(), labels=(), partners=())
        assert partition.z_twisted(s, sym, 1.0) == 1.0


class TestTinyBetaOmega:
    """Z at beta*omega down to 1e-17, where 1 - e^{-y} cancels completely."""

    Y = (1e-4, 1e-6, 1e-8, 1e-12, 1e-17)

    @pytest.mark.parametrize("y", Y)
    def test_products_match_expm1_form(self, y):
        # every product is (-expm1(-y))^-2 here: one mode at beta*omega = y,
        # or a swapped pair with equal phases at 2*beta*omega = y
        want = (-math.expm1(-y)) ** -2
        one = validate_spectrum([("a", y)])
        pair = validate_spectrum([("a", y / 2), ("b", y / 2)])
        anti = SymmetrySpec(
            kind="antiunitary", phases=(1j, 1j), labels=("a", "b"), partners=("b", "a")
        )
        for z in (
            partition.z_untwisted(one, 1.0),
            partition.z_twisted(one, SymmetrySpec(kind="unitary", phases=(1.0 + 0j,)), 1.0),
            partition.z_twisted(pair, anti, 1.0),
        ):
            assert abs(z - want) <= 1e-14 * want

    def test_tail_bound_is_a_fraction(self):
        tail = partition.truncation_tail_bound(validate_spectrum([("a", 1e-20)]), 1.0, 40)
        assert isinstance(tail, float) and 0.0 <= tail <= 1.0


class TestRangeErrors:
    """400 modes at omega=0.01, beta=1: Z is about e^3688, beyond a float."""

    SPEC = validate_spectrum([(f"k{i}", 0.01) for i in range(400)])

    def test_untwisted_overflow_is_typed(self):
        with pytest.raises(RangeError):
            partition.z_untwisted(self.SPEC, 1.0)

    def test_unitary_overflow_is_typed(self):
        sym = SymmetrySpec(kind="unitary", phases=(1.0 + 0j,) * 400)
        with pytest.raises(RangeError):
            partition.z_twisted(self.SPEC, sym, 1.0)

    def test_antiunitary_overflow_is_typed_not_nan(self):
        labels = self.SPEC.labels
        sym = SymmetrySpec(
            kind="antiunitary", phases=(1.0 + 0j,) * 400, labels=labels, partners=labels
        )
        with pytest.raises(RangeError):
            partition.z_twisted(self.SPEC, sym, 1.0)

    def test_realfield_route_overflow_is_typed(self):
        from twistkit import realfield

        labels = self.SPEC.labels
        sym = SymmetrySpec(
            kind="antiunitary", phases=(1.0 + 0j,) * 400, labels=labels, partners=labels
        )
        with pytest.raises(RangeError):
            realfield.z_via_realfield(realfield.extend(self.SPEC, sym), 1.0)

    def test_large_but_representable_values_are_unchanged(self):
        # 100 of the modes give Z near e^392 (its square, the inner trace, e^784)
        spec = validate_spectrum([(f"k{i}", 0.01) for i in range(100)])
        labels = spec.labels
        sym = SymmetrySpec(
            kind="antiunitary", phases=(1.0 + 0j,) * 100, labels=labels, partners=labels
        )
        z = partition.z_twisted(spec, sym, 1.0)
        assert math.isfinite(z)
        assert abs(z - (1.0 - math.exp(-0.02)) ** -100) <= 1e-12 * z


class TestTinyZFlag:
    """A Z in (1e-308, TINY_Z_FLAG) is returned but flagged, for either kind."""

    def check(self, spec, sym, want):
        with pytest.warns(UserWarning, match="below") as record:
            z = partition.z_twisted(spec, sym, 1.0)
        assert 1e-308 < z < partition.TINY_Z_FLAG
        assert abs(z - want) <= 1e-10 * want  # a log-sum of 1010 terms near 0.69
        assert "antiunitary" not in str(record[0].message)

    def test_unitary(self):
        # 505 modes at rho = -1: Z = (1 + x)^-1010 with x = e^-0.001
        spec = validate_spectrum([(f"k{i}", 1e-3) for i in range(505)])
        sym = SymmetrySpec(kind="unitary", phases=(-1.0 + 0j,) * 505)
        self.check(spec, sym, (1.0 + math.exp(-1e-3)) ** -1010)

    def test_antiunitary(self):
        # 505 swapped pairs at r = eta_a conj(eta_b) = -1: Z = (1 + x^2)^-1010
        labels = [f"{c}{i}" for i in range(505) for c in "ab"]
        spec = validate_spectrum([(lbl, 1e-3) for lbl in labels])
        partners = [f"{'b' if lbl[0] == 'a' else 'a'}{lbl[1:]}" for lbl in labels]
        sym = SymmetrySpec(
            kind="antiunitary",
            phases=(1.0 + 0j, -1.0 + 0j) * 505,
            labels=tuple(labels),
            partners=tuple(partners),
        )
        self.check(spec, sym, (1.0 + math.exp(-2e-3)) ** -1010)
