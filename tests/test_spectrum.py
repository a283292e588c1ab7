import cmath
import json
import math

import pytest
from hypothesis import given, strategies as st

from twistkit.errors import AdmissibilityError, ConfigError
from twistkit.spectrum import (
    ModeSpectrum,
    SymmetrySpec,
    parse_config,
    principal_angle,
    restrict,
    spectrum_to_config,
    twisted_circle_spectrum,
    validate_spectrum,
)


class TestValidateSpectrum:
    def test_single_mode_keeps_its_omega(self):
        s = validate_spectrum([("k0", 0.693147)])
        assert s.omegas == (0.693147,)

    def test_negative_frequency_rejected(self):
        with pytest.raises(AdmissibilityError):
            validate_spectrum([("a", 1.0), ("b", -0.5)])

    def test_zero_frequency_rejected(self):
        with pytest.raises(AdmissibilityError):
            validate_spectrum([("a", 0.0)])

    @pytest.mark.parametrize(
        "build",
        [lambda: ModeSpectrum((), ()),
         lambda: validate_spectrum([]),
         lambda: twisted_circle_spectrum(1.0, 0.0, range(3, 3)),
         lambda: restrict(validate_spectrum([("a", 1.0)]), None, ())],
        ids=["constructor", "validate_spectrum", "twisted_circle_spectrum", "restrict"],
    )
    def test_empty_spectrum_refused(self, build):
        # one rule, in the constructor, which every other route reaches
        with pytest.raises(ConfigError) as exc:
            build()
        assert str(exc.value) == "a spectrum needs at least one mode"

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ConfigError):
            validate_spectrum([("a", 1.0), ("a", 2.0)])

    def test_idempotent(self):
        s = validate_spectrum([("a", 1.0), ("b", 2.5)])
        again = validate_spectrum(list(zip(s.labels, s.omegas)))
        assert again == s

    def test_equality_with_another_type_is_left_to_it(self):
        # __eq__ returns NotImplemented, so Python falls back to identity
        s = validate_spectrum([("a", 1.0)])
        assert s.__eq__((("a",), (1.0,))) is NotImplemented
        assert s != (("a",), (1.0,)) and s != validate_spectrum([("a", 2.0)])


class TestTwistedCircle:
    def test_half_twist_massless(self):
        # -f'' = lambda f with f(2pi) = e^{i rho} f(0): eigenvalues (n + rho/2pi)^2
        s = twisted_circle_spectrum(math.pi, 0.0, range(-1, 1))
        assert sorted(s.omegas) == [0.5, 0.5]

    def test_massive_untwisted(self):
        s = twisted_circle_spectrum(0.0, 1.0, [0])
        assert s.omegas == (1.0,)

    def test_massless_untwisted_rejected(self):
        with pytest.raises(AdmissibilityError):
            twisted_circle_spectrum(0.0, 0.0, range(-2, 3))


class TestSymmetrySpec:
    def test_nonunit_phase_rejected(self):
        with pytest.raises(ConfigError):
            SymmetrySpec(kind="unitary", phases=(0.5 + 0j,))

    def test_non_involutive_pairing_rejected(self):
        with pytest.raises(ConfigError):
            SymmetrySpec(
                kind="antiunitary",
                phases=(1.0 + 0j,) * 3,
                pairing=(1, 2, 0),
            )

    def test_angles_of_real_phases(self):
        sym = SymmetrySpec(kind="unitary", phases=(1.0 + 0j, -1.0 + 0j))
        thetas = [principal_angle(p) for p in sym.phases]
        assert thetas == [0.0, math.pi]

    def test_angles_branch(self):
        assert abs(principal_angle(cmath.exp(0.3j)) - 0.3) < 1e-12


@given(st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True))
def test_principal_angle_roundtrip(theta):
    assert abs(principal_angle(cmath.exp(1j * theta)) - theta) < 1e-12


def test_principal_angle_of_one_is_positive_zero():
    # cmath.phase gives -0.0 below the real axis, outside [0, 2*pi) as a signed zero
    assert math.copysign(1.0, principal_angle(complex(1.0, -0.0))) == 1.0


class TestConfig:
    def test_roundtrip(self):
        s = validate_spectrum([("a", 1.0), ("b", 2.0)])
        spectrum, sym = parse_config(spectrum_to_config(s))
        assert spectrum == s
        assert sym is None

    def test_unknown_field_rejected(self):
        doc = {"modes": [{"label": "a", "omega": 1.0}], "extra": 1}
        with pytest.raises(ConfigError):
            parse_config(doc)

    def test_unknown_mode_field_rejected(self):
        doc = {"modes": [{"label": "a", "omega": 1.0, "color": "red"}]}
        with pytest.raises(ConfigError):
            parse_config(doc)

    def test_unitary_symmetry_parsed(self):
        doc = {
            "modes": [{"label": "a", "omega": 1.0}],
            "symmetry": {"kind": "unitary", "phases": [{"re": 0.0, "im": 1.0}]},
        }
        _, sym = parse_config(doc)
        assert sym.kind == "unitary"
        assert sym.phases == (1j,)

    def test_antiunitary_symmetry_parsed(self):
        doc = {
            "modes": [{"label": "a", "omega": 1.0}, {"label": "b", "omega": 1.0}],
            "symmetry": {
                "kind": "antiunitary",
                "pairing": {"a": "b", "b": "a"},
                "phases": [{"re": 1.0, "im": 0.0}, {"re": 0.0, "im": 1.0}],
            },
        }
        _, sym = parse_config(doc)
        assert sym.pairing == (1, 0)

    def test_pairing_must_preserve_omega(self):
        doc = {
            "modes": [{"label": "a", "omega": 1.0}, {"label": "b", "omega": 2.0}],
            "symmetry": {
                "kind": "antiunitary",
                "pairing": {"a": "b", "b": "a"},
                "phases": [{"re": 1.0, "im": 0.0}, {"re": 1.0, "im": 0.0}],
            },
        }
        with pytest.raises(ConfigError):
            parse_config(doc)

    def test_bad_complex_shape_rejected(self):
        doc = {
            "modes": [{"label": "a", "omega": 1.0}],
            "symmetry": {"kind": "unitary", "phases": [[1.0, 0.0]]},
        }
        with pytest.raises(ConfigError):
            parse_config(doc)
