"""The one slot-action normal form that every route reads, for both kinds.

The expected rules here, in ``tests/dense.py`` and in the symmetry suite
are written from the raw ``phases``/``pairing``, never from the normal
form, so a broken normalization cannot pass by agreeing with itself.
"""

import cmath
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dense
from twistkit import correlation, fock, partition, realfield, verify
from twistkit.cli import _load, main
from twistkit.errors import ConfigError, KindError
from twistkit.spectrum import SlotAction, SymmetrySpec, slot_action, validate_spectrum

ANTI_GOLDEN = str(Path(__file__).parent / "golden" / "anti_pair_fixed.json")


def anti(phases, pairing):
    return SymmetrySpec(kind="antiunitary", phases=tuple(phases), pairing=tuple(pairing))


class TestNormalForm:
    def test_unitary_fixes_every_slot(self):
        rho = (1j, cmath.exp(0.4j))
        action = SymmetrySpec(kind="unitary", phases=rho).action
        assert action.source == (0, 1, 2, 3)
        assert action.phases == (1j, -1j, rho[1], rho[1].conjugate())
        assert action.cycles == list(zip(range(4), [1] * 4, action.phases))

    def test_antiunitary_moves_plus_slots_onto_minus_slots(self):
        # k0 <-> k1 swapped, k2 fixed
        eta = (0.6 + 0.8j, 1j, 0.8 - 0.6j)
        action = anti(eta, [1, 0, 2]).action
        assert action.source == (3, 2, 1, 0, 5, 4)
        assert all(s % 2 != t % 2 for t, s in enumerate(action.source))
        r = eta[0] * eta[1].conjugate()
        got = {(first, length): r for first, length, r in action.cycles}
        assert got.keys() == {(0, 2), (1, 2), (4, 2)}
        assert abs(got[(0, 2)] - r.conjugate()) < 1e-16
        assert abs(got[(1, 2)] - r) < 1e-16
        assert abs(got[(4, 2)] - 1.0) < 1e-16  # a fixed mode has r = |eta|^2

    def test_cycles_cover_every_slot_once(self):
        # a 3-cycle 0 <- 2 <- 1 <- 0 and a fixed slot 3
        action = SlotAction((2, 0, 1, 3), (1j, 1j, 1j, -1.0))
        assert action.cycles == [(0, 3, -1j), (3, 1, -1.0)]

    def test_no_symmetry_is_the_unitary_identity_of_the_normal_form(self, monkeypatch):
        spec = validate_spectrum([("k0", 0.8), ("k1", 1.3)])
        action = slot_action(spec, None)
        assert action.source == (0, 1, 2, 3)
        assert action.phases == (1.0,) * 4
        # the identity comes from SymmetrySpec.action, the form the symmetry suite checks
        built = []
        normal_form = SymmetrySpec.action.func
        monkeypatch.setattr(SymmetrySpec, "action", property(
            lambda sym: built.append(sym.phases) or normal_form(sym)))
        slot_action(spec, None)
        assert built == [(1.0,) * 2]

    def test_computed_once(self):
        sym = SymmetrySpec(kind="unitary", phases=(1j,))
        assert sym.action is sym.action

    def test_diagonal_is_one_phase_per_mode(self):
        spec = validate_spectrum([("k0", 0.8), ("k1", 0.8)])
        rho = (1j, cmath.exp(0.4j))
        assert slot_action(spec, SymmetrySpec(kind="unitary", phases=rho)).diagonal
        assert slot_action(spec, None).diagonal  # no symmetry: the identity
        assert not slot_action(spec, anti(rho, [1, 0])).diagonal
        assert not slot_action(spec, anti(rho, [0, 1])).diagonal  # fixed modes swap charges
        assert not SlotAction((2, 0, 1, 3), (1j,) * 4).diagonal


@st.composite
def twisted_configs(draw):
    """Either kind: M <= 4 modes, unit phases, and for antiunitary twists a
    random omega-preserving involutive pairing; beta log-uniform in [0.05, 5]."""
    m = draw(st.integers(min_value=1, max_value=4))
    omegas = [draw(st.floats(min_value=0.3, max_value=3.0)) for _ in range(m)]
    angle = st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True)
    phases = [cmath.exp(1j * draw(angle)) for _ in range(m)]
    if draw(st.booleans()):
        sym = SymmetrySpec(kind="unitary", phases=tuple(phases))
    else:
        order = draw(st.permutations(range(m)))
        pairing = list(range(m))
        for i in range(draw(st.integers(min_value=0, max_value=m // 2))):
            a, b = order[2 * i], order[2 * i + 1]
            pairing[a], pairing[b] = b, a
            omegas[b] = omegas[a]
        sym = anti(phases, pairing)
    spectrum = validate_spectrum([(f"k{i}", w) for i, w in enumerate(omegas)])
    beta = math.exp(draw(st.floats(min_value=math.log(0.05), max_value=math.log(5.0))))
    return spectrum, sym, beta


@settings(max_examples=80, deadline=None)
@given(twisted_configs(), st.integers(min_value=1, max_value=4))
def test_every_route_agrees_for_both_kinds(config, small_cutoff):
    spectrum, sym, beta = config
    z = partition.z_twisted(spectrum, sym, beta)
    # trace / z = prod_cycles (1 - (r x^L)^61), so its distance from 1 is at
    # most prod_k (1 + x_k^61)^2 - 1, the twisted tail bound; the untwisted
    # 1 - prod_k (1 - x_k^61)^2 is that only to first order, and r^61 = -1
    # exceeds it.
    tail = verify.twisted_tail_bound(spectrum, beta, 60)
    assert abs(z - verify.partition_trace(spectrum, sym, beta, 60)) / z <= tail + 1e-9
    enumerated = dense.enumerated_trace(spectrum, sym, beta, small_cutoff)
    factorized = verify.partition_trace(spectrum, sym, beta, small_cutoff)
    assert abs(enumerated - factorized) <= dense.trace_rounding(spectrum, beta, small_cutoff)
    z_rf = dense.z_via_realfield(realfield.extend(spectrum, sym), beta)
    assert abs(z - z_rf) <= 1e-10 * z
    z_det, slack = verify.z_via_det(spectrum, sym, beta)
    assert abs(z - z_det) <= slack * z
    # twist positivity, for antiunitary twists too: a fixed mode gives
    # 1/(1 - x^2) >= (1 + x)^-2 and a pair |1 - r x^2|^-2 >= (1 + x)^-4
    assert z >= partition.positivity_lower_bound(spectrum, beta)


class TestNormalFormIsNotCircular:
    """A broken normal form feeds the closed forms and the traces alike, so
    their agreement cannot catch it; the raw-rule references must."""

    @staticmethod
    def conjugate_slot_zero(monkeypatch):
        build = SymmetrySpec.action.func

        def broken(sym):
            action = build(sym)
            phases = list(action.phases)
            phases[0] = phases[0].conjugate()
            return SlotAction(action.source, tuple(phases))

        monkeypatch.setattr(SymmetrySpec, "action", property(broken))

    @staticmethod
    def untransposed_induced(monkeypatch):
        # e_{d(s)} goes to p_s e_{d(t)}: the slot action itself, not its transpose
        def broken(action, m):
            return {realfield._doubled(s, m): (realfield._doubled(t, m), action.phases[s])
                    for t, s in enumerate(action.source)}

        monkeypatch.setattr(realfield, "_images", broken)

    @staticmethod
    def suite_fails(path, suite="all"):
        spectrum, sym = _load(path)
        return not all(r.passed for r in verify.run_suite(suite, spectrum, sym))

    def test_conjugated_slot_phase_fails_dense_and_suites(self, monkeypatch):
        spec = validate_spectrum([("k0", 0.8), ("k1", 0.8), ("k2", 1.3)])
        eta = (0.6 + 0.8j, 1j, 0.8 - 0.6j)
        space = fock.FockSpace(spec, 2)
        cases = [
            (SymmetrySpec(kind="unitary", phases=eta), dense.unitary_symmetry(eta, 2)),
            (anti(eta, [1, 0, 2]), dense.antiunitary_symmetry([1, 0, 2], eta, 2)),
        ]

        def worst(sym, ref):
            got = dense.matrix_of(space.shape, lambda e: fock.apply_symmetry(space, sym, e))
            return np.abs(got - ref).max()

        assert all(worst(sym, ref) < 1e-15 for sym, ref in cases)
        assert not self.suite_fails(None) and not self.suite_fails(ANTI_GOLDEN)
        self.conjugate_slot_zero(monkeypatch)
        assert all(worst(sym, ref) > 0.1 for sym, ref in cases)
        for path in (None, ANTI_GOLDEN):  # the bundled unitary config, an antiunitary one
            assert self.suite_fails(path)
            assert self.suite_fails(path, "symmetry")  # its rules read the raw phases

    def test_untransposed_induced_fails_dense_and_suites(self, monkeypatch):
        eta = (0.6 + 0.8j, 1j, 0.8 - 0.6j)
        spec = validate_spectrum([("k0", 0.8), ("k1", 0.8), ("k2", 1.3)])
        sym = anti(eta, [1, 0, 2])
        ref = dense.induced_antiunitary([1, 0, 2], eta)
        assert np.array_equal(dense.induced(realfield.extend(spec, sym)), ref)
        self.untransposed_induced(monkeypatch)
        assert np.abs(dense.induced(realfield.extend(spec, sym)) - ref).max() > 0.1
        # a unitary twist has only 1-cycles, where the transpose changes nothing
        assert self.suite_fails(ANTI_GOLDEN)


class TestRoutesReadTheAction:
    """Routes choose their path from the slot action, not from the kind."""

    def test_scalar_kernel_routes_refuse_a_twist_that_moves_slots(self, tmp_path, capsys):
        single = validate_spectrum([("k0", 0.8)])
        sym = anti((1j,), [0])  # one fixed mode: + and - charges swap
        with pytest.raises(KindError):
            correlation.kernel_oracle(single, sym, 1.0, 0.3, 0.1, 40)
        with pytest.raises(KindError):
            dense.apply_inverse(single, sym, 1.0, np.ones((8, 1)))
        output = tmp_path / "k.csv"
        assert main(["kernel", "--config", ANTI_GOLDEN, "--beta", "1", "--output", str(output)]) == 2
        assert "requires --extended" in capsys.readouterr().err
        assert not output.exists()
        # the kernel suite samples the extended layout, so it runs on every action
        assert all(r.passed for r in verify.run_suite("kernel", single, sym))
        assert main(["verify", "--config", ANTI_GOLDEN, "--suite", "kernel"]) == 0

    def test_misaligned_spec_is_a_config_error_before_the_action_is_read(self):
        # The action exists only for a spec aligned with the spectrum, so a
        # misaligned one (two phases for one mode) is rejected as such,
        # whatever its kind; config files are already rejected at load time.
        single = validate_spectrum([("a", 0.8)])
        for sym in (anti((1j, 1j), [1, 0]), SymmetrySpec(kind="unitary", phases=(1j, 1j))):
            with pytest.raises(ConfigError):
                correlation.kernel_oracle(single, sym, 1.0, 0.3, 0.1, 40)
            with pytest.raises(ConfigError):
                dense.apply_inverse(single, sym, 1.0, np.ones((8, 1)))
            with pytest.raises(ConfigError):
                verify.run_suite("kernel", single, sym)
