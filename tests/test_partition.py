import cmath
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twistkit import correlation, partition, realfield, verify
from twistkit.cli import _load
from twistkit.errors import DomainError, RangeError
from twistkit.spectrum import SymmetrySpec, validate_spectrum

GOLDEN = Path(__file__).parent / "golden"

LN2 = math.log(2.0)

unit_phase = st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True).map(
    lambda t: cmath.exp(1j * t)
)


class TestUntwisted:
    def test_worked_example(self):
        s = validate_spectrum([("k0", LN2)])
        assert abs(partition.z_twisted(s, None, 1.0) - 4.0) < 1e-14

    def test_monotone_in_beta(self):
        s = validate_spectrum([("a", 0.7), ("b", 1.3)])
        values = [partition.z_twisted(s, None, b) for b in (0.5, 1.0, 2.0, 4.0, 8.0)]
        assert all(a > b > 1.0 for a, b in zip(values, values[1:]))

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(DomainError):
            partition.z_twisted(validate_spectrum([("a", 1.0)]), None, 0.0)

    @given(
        st.lists(st.floats(min_value=0.1, max_value=50.0), min_size=1, max_size=60),
        st.floats(min_value=0.2, max_value=10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_identity_twist_is_the_per_mode_product_bit_for_bit(self, omegas, beta):
        # the identity has one 1-cycle per slot, so its cycle sum is each
        # mode's term twice; a correctly rounded sum of that list is exactly
        # twice the per-mode sum, and the halving is exact
        s = validate_spectrum([(f"k{i}", w) for i, w in enumerate(omegas)])
        per_mode = math.fsum(partition._log_abs2_one_minus(beta * w, 1.0 + 0.0j) for w in omegas)
        assert partition.z_twisted(s, None, beta) == math.exp(-per_mode)

    def test_one_closed_form_of_z(self):
        # the untwisted Z is z_twisted at the identity, and every log-sum is
        # math.fsum, not a hand-written ordered sum
        for name in ("z_untwisted", "_add_in_order"):
            assert not hasattr(partition, name), name


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
            kind="antiunitary", phases=(1.0 + 0j,), pairing=(0,)
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
            oracle = verify.partition_trace(s, sym, beta, cutoff)
            tail = verify.truncation_tail_bound(s, beta, cutoff)
            assert abs(z - oracle) / z <= tail + 1e-10


class TestAntiunitary:
    def test_single_mode_conjugation(self):
        s = validate_spectrum([("k0", LN2)])
        sym = SymmetrySpec(
            kind="antiunitary", phases=(1.0 + 0j,), pairing=(0,)
        )
        z = partition.z_twisted(s, sym, 1.0)
        assert abs(z - 4.0 / 3.0) < 1e-14
        oracle = verify.partition_trace(s, sym, 1.0, 40)
        assert abs(z - oracle) < 1e-10

    def test_two_mode_swap(self):
        s = validate_spectrum([("a", LN2), ("b", LN2)])
        sym = SymmetrySpec(
            kind="antiunitary",
            phases=(1.0 + 0j, 1.0 + 0j),
            pairing=(1, 0),
        )
        z = partition.z_twisted(s, sym, 1.0)
        assert abs(z - 16.0 / 9.0) < 1e-14
        oracle = verify.partition_trace(s, sym, 1.0, 20)
        tail = verify.truncation_tail_bound(s, 1.0, 20)
        assert abs(z - oracle) / z <= tail + 1e-10

    def test_swap_with_phases_vs_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            w = float(rng.uniform(0.6, 2.0))
            etas = tuple(cmath.exp(2j * math.pi * u) for u in rng.uniform(size=2))
            s = validate_spectrum([("a", w), ("b", w)])
            sym = SymmetrySpec(
                kind="antiunitary", phases=etas, pairing=(1, 0)
            )
            z = partition.z_twisted(s, sym, 1.0)
            oracle = verify.partition_trace(s, sym, 1.0, 25)
            tail = verify.truncation_tail_bound(s, 1.0, 25)
            assert abs(z - oracle) / z <= tail + 1e-8


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
            kind="antiunitary", phases=(1j, 1j), pairing=(1, 0)
        )
        for z in (
            partition.z_twisted(one, None, 1.0),
            partition.z_twisted(one, SymmetrySpec(kind="unitary", phases=(1.0 + 0j,)), 1.0),
            partition.z_twisted(pair, anti, 1.0),
        ):
            assert abs(z - want) <= 1e-14 * want

    def test_tail_bound_is_a_fraction(self):
        tail = verify.truncation_tail_bound(validate_spectrum([("a", 1e-20)]), 1.0, 40)
        assert isinstance(tail, float) and 0.0 <= tail <= 1.0

    @pytest.mark.parametrize("modes, beta", [([("a", 1e3)], 1.0), ([("a", 1.0)], 1e308)])
    def test_tail_bound_with_nothing_dropped_is_positive_zero(self, modes, beta):
        # a tail beyond the float range, at a large omega or a large beta,
        # drops no mass: the bound is +0.0, which formats without a minus sign
        tail = verify.truncation_tail_bound(validate_spectrum(modes), beta, 40)
        assert tail == 0.0 and math.copysign(1.0, tail) == 1.0


class TestRangeErrors:
    """400 modes at omega=0.01, beta=1: Z is about e^3688, beyond a float."""

    SPEC = validate_spectrum([(f"k{i}", 0.01) for i in range(400)])

    def test_untwisted_overflow_is_typed(self):
        with pytest.raises(RangeError):
            partition.z_twisted(self.SPEC, None, 1.0)

    def test_unitary_overflow_is_typed(self):
        sym = SymmetrySpec(kind="unitary", phases=(1.0 + 0j,) * 400)
        with pytest.raises(RangeError):
            partition.z_twisted(self.SPEC, sym, 1.0)

    def test_antiunitary_overflow_is_typed_not_nan(self):
        sym = SymmetrySpec(
            kind="antiunitary", phases=(1.0 + 0j,) * 400, pairing=tuple(range(400))
        )
        with pytest.raises(RangeError):
            partition.z_twisted(self.SPEC, sym, 1.0)

    def test_det_route_overflow_is_typed(self):
        sym = SymmetrySpec(
            kind="antiunitary", phases=(1.0 + 0j,) * 400, pairing=tuple(range(400))
        )
        with pytest.raises(RangeError):
            verify.z_via_det(self.SPEC, sym, 1.0)

    def test_det_route_zero_factor_is_typed(self):
        # beta omega = 1e-400 underflows to 0 at r = 1, so the cycle's
        # 1 - r x^L is 0: RangeError, not the ValueError of cmath.log(0)
        with pytest.raises(RangeError, match="1 - r x"):
            verify.z_via_det(validate_spectrum([("a", 1e-200)]), None, 1e-200)

    def test_large_but_representable_values_are_unchanged(self):
        # 100 of the modes give Z near e^392 (its square, the inner trace, e^784)
        spec = validate_spectrum([(f"k{i}", 0.01) for i in range(100)])
        sym = SymmetrySpec(
            kind="antiunitary", phases=(1.0 + 0j,) * 100, pairing=tuple(range(100))
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
        sym = SymmetrySpec(
            kind="antiunitary",
            phases=(1.0 + 0j, -1.0 + 0j) * 505,
            pairing=tuple(k ^ 1 for k in range(1010)),  # a{i} <-> b{i}
        )
        self.check(spec, sym, (1.0 + math.exp(-2e-3)) ** -1010)


def log_uniform(lo, hi):
    return st.floats(min_value=math.log(lo), max_value=math.log(hi)).map(math.exp)


@st.composite
def energy_configs(draw):
    """Either kind, M <= 4 modes, omega log-uniform in [1e-4, 1e3], beta in
    [1e-2, 1e2], half the phases within 1e-3 of 1 (near-degenerate
    |1 - lambda x|), and for antiunitary twists a random omega-preserving
    involutive pairing."""
    m = draw(st.integers(min_value=1, max_value=4))
    omegas = [draw(log_uniform(1e-4, 1e3)) for _ in range(m)]
    near_one = st.floats(min_value=-1e-3, max_value=1e-3)
    anywhere = st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True)
    phases = [cmath.exp(1j * draw(near_one if draw(st.booleans()) else anywhere))
              for _ in range(m)]
    if draw(st.booleans()):
        sym = SymmetrySpec(kind="unitary", phases=tuple(phases))
    else:
        order = draw(st.permutations(range(m)))
        pairing = list(range(m))
        for i in range(draw(st.integers(min_value=0, max_value=m // 2))):
            a, b = order[2 * i], order[2 * i + 1]
            pairing[a], pairing[b] = b, a
            omegas[b] = omegas[a]
        sym = SymmetrySpec(kind="antiunitary", phases=tuple(phases), pairing=tuple(pairing))
    spectrum = validate_spectrum([(f"k{i}", w) for i, w in enumerate(omegas)])
    return spectrum, sym, draw(log_uniform(1e-2, 1e2))


class TestEnergyIdentity:
    """The per-cycle energy terms are -d/dbeta log Z, and the lag-0 values
    of every kernel layout sum to them within the check's threshold."""

    ENERGY = "lag-0 energy vs partition function"

    @pytest.mark.parametrize("config", [None, "anti_pair_fixed.json", "anti_two_pairs_fixed.json",
                                        "unitary_generic.json"])
    @pytest.mark.parametrize("beta", [0.25, 1.0, 4.0])
    def test_terms_are_minus_the_log_derivative_of_z(self, config, beta):
        # a central difference pins the sign and the factor of every term
        spectrum, sym = _load(None if config is None else str(GOLDEN / config))
        h = 1e-5 * beta
        slope = (math.log(partition.z_twisted(spectrum, sym, beta + h))
                 - math.log(partition.z_twisted(spectrum, sym, beta - h))) / (2.0 * h)
        energy = math.fsum(partition.energy_terms(spectrum, sym, beta))
        assert abs(energy + slope) <= 1e-8 * (1.0 + abs(energy))

    def test_terms_follow_the_cycles(self):
        # a unitary twist: term 2k is the 1-cycle of mode k's + slot, and the
        # - slot's conjugate phase gives the same real part
        spectrum = validate_spectrum([("a", 0.7), ("b", 1.3)])
        rho = (cmath.exp(0.4j), -1.0 + 0j)
        terms = partition.energy_terms(spectrum, SymmetrySpec(kind="unitary", phases=rho), 1.0)
        for k, (w, r) in enumerate(zip((0.7, 1.3), rho)):
            x = math.exp(-w)
            want = (w * r * x / (1.0 - r * x)).real
            assert abs(terms[2 * k] - want) <= 1e-15 and abs(terms[2 * k + 1] - want) <= 1e-15

    @settings(max_examples=200, deadline=None)
    @given(energy_configs())
    def test_every_layout_passes_within_eight_eps(self, config):
        spectrum, sym, beta = config
        ext = realfield.extend(spectrum, sym)
        sampled = realfield.sample_extended_kernel(ext, beta, 2)
        check = verify.energy_identity(sampled, spectrum, sym)
        assert check.name == self.ENERGY and check.passed
        # the threshold's constant is 8: 8 eps sum_j t_j / |1 - lambda_j x_j|
        slack = math.fsum(
            w * (w * abs(v) + 0.5) / abs(1.0 - lam * math.exp(-beta * w))
            for w, lam, v in zip(ext.doubled_omegas(), ext.phases, sampled.lags[0]))
        assert check.threshold <= 8 * sys.float_info.epsilon * slack * (1.0 + 1e-6)
        if sym.kind == "unitary":
            # the scalar layout of each mode, as kernel --verify samples it
            for k, (w, rho) in enumerate(zip(spectrum.omegas, sym.phases)):
                theta = correlation.kernel_twist_angle(rho)
                scalar = correlation.sample_kernels(beta, [w], [theta], 2)
                assert verify.energy_identity(scalar, spectrum, sym, 2 * k).passed


class TestDetRoute:
    """1/det(1 - XU), walked from the slot table, against the closed form:
    the threshold 8 eps sum_cycles (1 + |log |f|| + 7 L x^L / |f|^2) holds
    for correct code, and a relative error of 5e-11 exceeds it.  The power
    rows of ``tests/test_power.py`` show that a wrong cycle product fails
    it."""

    DET = "closed form vs 1/det(1 - XU)"

    @staticmethod
    def bound(spectrum, sym, beta):
        """The threshold from the cycles of the slot action."""
        terms = []
        for first, length, r in sym.action.cycles:
            x = math.exp(-length * beta * spectrum.omegas[first // 2])
            f = abs(1.0 - cmath.exp(1j * cmath.phase(r)) * x)
            terms.append(1.0 + abs(math.log(f)) + (7 * length * x / f ** 2 if x < 0.5 else 0.0))
        return 8 * sys.float_info.epsilon * math.fsum(terms)

    @pytest.mark.parametrize("config", ["anti_pair_fixed.json", "anti_two_pairs_fixed.json",
                                        "unitary_generic.json", None])
    def test_golden_configs_pass_below_1e_12(self, config):
        # a threshold at most 1e-12 fails a Z scaled by 1 + 5e-11
        spectrum, sym = _load(None if config is None else str(GOLDEN / config))
        for beta in (0.25, 0.5, 1.0, 2.0, 4.0):
            check = verify.partition_row(spectrum, sym, beta, 40)[1][-1]
            assert check.name == self.DET and check.passed
            assert check.deviation <= 4 * sys.float_info.epsilon and check.threshold <= 1e-12

    def test_z_near_1e300_does_not_overflow(self):
        # 176 fixed modes at omega = 0.01: Z = (1 - e^-0.02)^-176, about 1e300
        spectrum = validate_spectrum([(f"k{i}", 0.01) for i in range(176)])
        sym = SymmetrySpec(kind="antiunitary", phases=(1.0 + 0j,) * 176, pairing=tuple(range(176)))
        z = partition.z_twisted(spectrum, sym, 1.0)
        assert 1e299 < z < 1e301
        z_det, slack = verify.z_via_det(spectrum, sym, 1.0)
        assert abs(z_det - z) <= slack * z and z_det.imag == 0.0

    @settings(max_examples=300, deadline=None)
    @given(energy_configs(), st.floats(min_value=-0.99e-14, max_value=0.99e-14), st.booleans())
    def test_every_twist_passes_within_the_derived_threshold(self, config, off, scaled):
        # the draws of the energy identity, and the same with every phase off
        # unit modulus by up to 0.99e-14, which the closed form reads through
        # Re r where x^L < 1/2
        spectrum, sym, beta = config
        if scaled:
            sym = SymmetrySpec(sym.kind, tuple(p * (1.0 + off) for p in sym.phases), sym.pairing)
        z = partition.z_twisted(spectrum, sym, beta)
        z_det, slack = verify.z_via_det(spectrum, sym, beta)
        assert abs(z - z_det) <= slack * z
        # the threshold's constants are 8 and 7, and the last term counts
        # only where the closed form reads Re r
        assert slack <= self.bound(spectrum, sym, beta) * (1.0 + 1e-9)
