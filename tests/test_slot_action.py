"""The one slot-action normal form that every route reads, for both kinds.

The expected rules here, in ``tests/dense.py`` and in the symmetry suite
are written from the raw ``phases``/``partners``, never from the normal
form, so a broken normalization cannot pass by agreeing with itself.
"""

import cmath
import math
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

import dense
from twistkit import fock, partition, realfield, verify
from twistkit.cli import _load
from twistkit.errors import InternalConsistencyError
from twistkit.spectrum import SlotAction, SymmetrySpec, validate_spectrum

ANTI_GOLDEN = str(Path(__file__).parent / "golden" / "anti_pair_fixed.json")


def anti(phases, partners):
    labels = tuple(f"k{i}" for i in range(len(phases)))
    return SymmetrySpec(
        kind="antiunitary",
        phases=tuple(phases),
        labels=labels,
        partners=tuple(labels[j] for j in partners),
    )


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

    def test_computed_once(self):
        sym = SymmetrySpec(kind="unitary", phases=(1j,))
        assert sym.action is sym.action


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
        partners = list(range(m))
        for i in range(draw(st.integers(min_value=0, max_value=m // 2))):
            a, b = order[2 * i], order[2 * i + 1]
            partners[a], partners[b] = b, a
            omegas[b] = omegas[a]
        sym = anti(phases, partners)
    spectrum = validate_spectrum(list(zip(sym.labels or [f"k{i}" for i in range(m)], omegas)))
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
    tail = partition.twisted_tail_bound(spectrum, beta, 60)
    assert abs(z - partition.partition_trace(spectrum, sym, beta, 60)) / z <= tail + 1e-9
    enumerated = dense.enumerated_trace(spectrum, sym, beta, small_cutoff)
    factorized = partition.partition_trace(spectrum, sym, beta, small_cutoff)
    assert abs(enumerated - factorized) <= dense.trace_rounding(spectrum, beta, small_cutoff)
    z_rf = realfield.z_via_realfield(realfield.extend(spectrum, sym), beta)
    assert abs(z - z_rf) <= 1e-10 * z
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
        def broken(action, m):
            induced = np.zeros((2 * m, 2 * m), dtype=complex)
            for t, s in enumerate(action.source):
                induced[realfield._doubled(t, m), realfield._doubled(s, m)] = action.phases[s]
            return induced

        monkeypatch.setattr(realfield, "_induced", broken)

    @staticmethod
    def suite_fails(path, suite="all"):
        spectrum, sym = _load(path)
        try:
            return not all(r.passed for r in verify.run_suite(suite, spectrum, sym))
        except InternalConsistencyError:
            return True  # extend's build-time check; the CLI exits 5

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
        assert np.array_equal(realfield.extend(spec, sym).induced, ref)
        self.untransposed_induced(monkeypatch)
        assert np.abs(realfield.extend(spec, sym).induced - ref).max() > 0.1
        # a unitary twist has only 1-cycles, where the transpose changes nothing
        assert self.suite_fails(ANTI_GOLDEN)
