"""Mode spectra and symmetry specifications.

A :class:`ModeSpectrum` is a finite, nonempty list of labelled, strictly
positive oscillator frequencies, and nothing else: twist positivity and
the positivity of the pair correlation need no more, and a theory without
modes has nothing to prove.  Finiteness is what makes every downstream
trace and product unconditionally convergent, so all identities verified
elsewhere in the package hold without regularization.

A :class:`SymmetrySpec` describes a symmetry commuting with the frequency
operator, either as per-mode unit phases (unitary case) or as an involutive
mode pairing with unit phases (antiunitary case, acting as
``V(sum c_k e_k) = sum conj(c_k) eta_k e_{pi(k)}``).  The pairing is held
as mode indices, ``pairing[k]`` = pi(k): a config names modes by label,
and :func:`parse_config` maps each label to its index once.  Both kinds
are normalized once, here, into a :class:`SlotAction`, which is the only
form every route outside this module reads; a missing symmetry is the
unitary identity, normalized the same way.  :func:`restrict` cuts a
spectrum and its symmetry down to a set of modes that the pairing maps to
itself, such as one factor of the Fock oracle.

The classes of the package are plain classes whose ``__init__`` validates
its arguments.  No module imports ``dataclasses``, so that a CLI start
pays neither for importing it (and ``inspect``) nor for generating each
class's methods from source.
"""

from __future__ import annotations

import cmath
import json
import math
from functools import cached_property

from .errors import AdmissibilityError, ConfigError, DomainError

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Optional, Sequence

#: Largest ||p| - 1| of a phase: U moves an inner product of states of occupation
#: sum n by up to (1 + tol)^{2n} - 1 ~ 2 n tol, and the Fock oracle reaches n = 28
#: (M = 2, cutoff 8), so 2 * 28 * 1e-14 stays below the 1e-12 of the checks on U.
UNIT_MODULUS_TOL = 1e-14

UNITARY = "unitary"
ANTIUNITARY = "antiunitary"


class ModeSpectrum:
    """Finite admissible frequency spectrum of at least one mode.

    There is at least one mode, each label is a unique string, and each
    omega an int or a float, not a bool (ConfigError otherwise), held as
    a float.  Every omega is positive (AdmissibilityError otherwise) and
    finite (DomainError).
    """

    def __init__(self, labels: tuple[str, ...], omegas: tuple[float, ...]):
        if len(labels) != len(omegas):
            raise ConfigError("labels and omegas must have equal length")
        if not labels:
            raise ConfigError("a spectrum needs at least one mode")
        for lbl in labels:
            if not isinstance(lbl, str):
                raise ConfigError(f"mode label {lbl!r} is not a string")
        if len(set(labels)) != len(labels):
            raise ConfigError("mode labels must be unique")
        omegas = tuple(_parse_float(w, f"mode {lbl!r} omega") for lbl, w in zip(labels, omegas))
        for lbl, w in zip(labels, omegas):
            if not w > 0.0:
                raise AdmissibilityError(f"mode {lbl!r} has nonpositive frequency {w}")
            if not math.isfinite(w):
                raise DomainError(f"mode {lbl!r} has infinite frequency")
        self.labels, self.omegas = labels, omegas

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModeSpectrum):
            return NotImplemented
        return (self.labels, self.omegas) == (other.labels, other.omegas)

    def __repr__(self) -> str:
        return f"ModeSpectrum(labels={self.labels!r}, omegas={self.omegas!r})"

    def __len__(self) -> int:
        return len(self.omegas)


class SymmetrySpec:
    """Unitary or antiunitary symmetry commuting with the spectrum.

    ``phases[k]`` is the phase on mode k, in the spectrum's mode order:
    the eigenvalue rho_k of a unitary symmetry, eta_k of an antiunitary
    one.  Each is an int, a float or a complex, not a bool (ConfigError
    otherwise; numpy's float64 and complex128 are subclasses), of unit
    modulus, and is held as a complex.  An antiunitary symmetry also has a
    ``pairing``, an involutive permutation of the mode indices:
    ``pairing[k]`` is pi(k).  A unitary symmetry has none.
    """

    def __init__(
        self,
        kind: str,
        phases: tuple[complex, ...],
        pairing: Optional[tuple[int, ...]] = None,
    ):
        if kind not in (UNITARY, ANTIUNITARY):
            raise ConfigError(f"unknown symmetry kind {kind!r}")
        phases = tuple(_parse_phase(p) for p in phases)
        if kind == ANTIUNITARY:
            if pairing is None:
                raise ConfigError("antiunitary symmetry requires a pairing")
            if len(pairing) != len(phases):
                raise ConfigError("pairing and phases must align")
            if not all(_is_index(j) for j in pairing):
                raise ConfigError("pairing entries must be mode indices")
            if sorted(pairing) != list(range(len(pairing))):
                raise ConfigError("pairing is not a permutation of the mode labels")
            if any(pairing[j] != k for k, j in enumerate(pairing)):
                raise ConfigError("pairing must be an involution")
        elif pairing is not None:
            raise ConfigError("unitary symmetry takes phases only")
        self.kind, self.phases, self.pairing = kind, phases, pairing

    @cached_property
    def action(self) -> SlotAction:
        """The slot action of U_S or U_V.  U_S alpha+*(k) U_S* = rho_k alpha+*(k)
        fixes every slot; U_V alpha+*(k) U_V* = eta_{pi(k)} alpha-*(pi(k)) moves
        the + slot of mode k onto the - slot of pi(k) and its - slot, with the
        conjugate phase, onto the + slot.  A unitary twist is the identity
        pairing without that charge swap."""
        m = len(self.phases)
        swap = int(self.kind == ANTIUNITARY)
        source, phases = [0] * (2 * m), [1.0 + 0.0j] * (2 * m)
        for k, j in enumerate(range(m) if self.pairing is None else self.pairing):
            source[2 * j], source[2 * j + 1] = 2 * k + swap, 2 * k + 1 - swap
            eta = self.phases[j]
            phases[2 * k], phases[2 * k + 1] = eta, eta.conjugate()
        return SlotAction(tuple(source), tuple(phases))


class SlotAction:
    """A symmetry as a generalized permutation of the 2M (mode, charge) slots.

    Slot 2k is the + charge of mode k, slot 2k + 1 its - charge.  The basis
    state n goes to prod_s phases[s]**n[s] times the state whose slot t holds
    n[source[t]]; an antiunitary twist moves + slots onto - slots.  Only
    states constant on each cycle are fixed, so every trace is a product
    over the cycles.  A missing symmetry is the action of the unitary
    identity, all phases 1 (:func:`slot_action`).
    """

    def __init__(self, source: tuple[int, ...], phases: tuple[complex, ...]):
        self.source, self.phases = source, phases

    @property
    def diagonal(self) -> bool:
        """Each slot keeps its own occupation: the twist is one phase per
        mode, rho_k = phases[2k], as for a unitary symmetry or none."""
        return all(s == t for t, s in enumerate(self.source))

    @cached_property
    def cycles(self) -> list[tuple[int, int, complex]]:
        """(first slot, length L, phase product r) of each cycle, by smallest slot."""
        cycles = []
        for first, r in enumerate(self.phases):
            t, length = self.source[first], 1
            while t > first:
                t, r, length = self.source[t], r * self.phases[t], length + 1
            if t == first:
                cycles.append((first, length, r))
        return cycles


def slot_action(spectrum: ModeSpectrum, sym: Optional[SymmetrySpec]) -> SlotAction:
    """The slot action of ``sym`` after :func:`check_alignment`; for None, that
    of the unitary identity, built by the same normal form."""
    if sym is None:
        return SymmetrySpec(UNITARY, (1.0,) * len(spectrum)).action
    check_alignment(spectrum, sym)
    return sym.action


def restrict(
    spectrum: ModeSpectrum, sym: Optional[SymmetrySpec], modes: Sequence[int]
) -> tuple[ModeSpectrum, Optional[SymmetrySpec]]:
    """The spectrum and symmetry on the modes ``modes``, re-indexed in the
    order given; the labels, frequencies and phases are kept.

    ConfigError unless ``modes`` are distinct mode indices of ``spectrum``
    (a repeated mode repeats its label, which :class:`ModeSpectrum`
    refuses) that the pairing maps among themselves, and ``sym`` aligns
    with ``spectrum`` (:func:`check_alignment`).
    """
    for k in modes:
        if not (_is_index(k) and 0 <= k < len(spectrum)):
            raise ConfigError(f"{k!r} is not a mode index of {len(spectrum)} modes")
    labels = tuple(spectrum.labels[k] for k in modes)
    sub = ModeSpectrum(labels, tuple(spectrum.omegas[k] for k in modes))
    if sym is None:
        return sub, None
    check_alignment(spectrum, sym)
    index = {k: i for i, k in enumerate(modes)}
    if sym.pairing is not None and any(sym.pairing[k] not in index for k in modes):
        raise ConfigError(f"the pairing does not map the modes {tuple(modes)} to themselves")
    pairing = None if sym.pairing is None else tuple(index[sym.pairing[k]] for k in modes)
    return sub, SymmetrySpec(sym.kind, tuple(sym.phases[k] for k in modes), pairing)


def principal_angle(phase: complex) -> float:
    """Argument of a unit-modulus number mapped into [0, 2*pi)."""
    theta = cmath.phase(phase) + 0.0  # the -0.0 of phase(1 - 0j) becomes +0.0
    if theta < 0.0:
        theta += 2.0 * math.pi
    if theta >= 2.0 * math.pi:
        theta = 0.0
    return theta


def validate_spectrum(raw: Sequence[tuple[str, float]]) -> ModeSpectrum:
    """Build a ModeSpectrum from raw (label, omega) pairs; its constructor
    checks them, and refuses the empty sequence (ConfigError).
    """
    return ModeSpectrum(tuple(lbl for lbl, _ in raw), tuple(w for _, w in raw))


def twisted_circle_spectrum(
    rho_twist: float, mass: float, n_range: Sequence[int]
) -> ModeSpectrum:
    """Spectrum of the twisted circle Laplacian plus mass term.

    Frequencies are omega_n = sqrt((n + rho/2pi)^2 + m^2) for n in n_range,
    the eigenvalues of -d^2/dx^2 + m^2 on functions obeying
    f(2pi) = exp(i*rho) f(0).  The twist and the mass are ints or floats,
    not bools, and the mode numbers integers, not bools, at least one of
    them (ConfigError otherwise); the twist and the mass are finite
    (DomainError).  A zero mode, n + rho/2pi = 0 at zero mass, is refused
    by :class:`ModeSpectrum` as a nonpositive frequency (AdmissibilityError).
    """
    rho_twist, mass = _parse_float(rho_twist, "twist"), _parse_float(mass, "mass")
    if not (math.isfinite(rho_twist) and math.isfinite(mass)):
        raise DomainError(f"twist {rho_twist} and mass {mass} must be finite")
    if mass < 0.0:
        raise AdmissibilityError("mass must be nonnegative")
    shift = rho_twist / (2.0 * math.pi)
    pairs = []
    for n in n_range:
        if not _is_index(n):
            raise ConfigError(f"mode number {n!r} is not an integer")
        omega = math.hypot(n + shift, mass)
        pairs.append((f"n={n}", omega))
    return validate_spectrum(pairs)


def check_alignment(spectrum: ModeSpectrum, sym: SymmetrySpec) -> None:
    """Raise ConfigError unless ``sym`` is consistent with ``spectrum``.

    A pairing must preserve omega exactly as stored, since the symmetry
    commutes with the frequency operator.
    """
    if len(sym.phases) != len(spectrum):
        raise ConfigError("symmetry phase count does not match mode count")
    for k, j in enumerate(sym.pairing or ()):
        if spectrum.omegas[j] != spectrum.omegas[k]:
            labels = spectrum.labels
            raise ConfigError(f"pairing {labels[k]!r} <-> {labels[j]!r} does not preserve omega")


# ---------------------------------------------------------------------------
# Config file format (JSON).  Complex numbers are {re, im} pairs; unknown
# fields are rejected everywhere.
# ---------------------------------------------------------------------------


def _is_index(n) -> bool:
    """The one integer rule: an int or anything with ``__index__`` (numpy's
    integers), but not a bool."""
    return hasattr(n, "__index__") and not isinstance(n, bool)


def _parse_float(obj, where: str) -> float:
    """A JSON number, an int or a float, as a float; a string, a bool or
    anything else is refused: the config's number rule and the one
    :class:`ModeSpectrum` applies."""
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ConfigError(f"{where}: not a number")
    try:
        return float(obj)
    except OverflowError:  # an integer literal beyond the float range
        raise DomainError(f"{where}: {obj} is beyond the float range") from None


def _parse_phase(p) -> complex:
    """A symmetry phase as a complex: the number rule of :func:`_parse_float`,
    widened to complex values, then unit modulus (a NaN component fails it)."""
    c = complex(p) if isinstance(p, complex) else complex(_parse_float(p, f"phase {p!r}"))
    if not abs(abs(c) - 1.0) <= UNIT_MODULUS_TOL:
        raise ConfigError(f"phase {p!r} is not unit modulus")
    return c


def _parse_complex(obj, where: str) -> complex:
    if not isinstance(obj, dict) or set(obj) != {"re", "im"}:
        raise ConfigError(f"{where}: complex numbers must be {{re, im}} objects")
    return complex(_parse_float(obj["re"], f"{where}.re"), _parse_float(obj["im"], f"{where}.im"))


def _reject_unknown(obj: dict, allowed: set, where: str) -> None:
    extra = set(obj) - allowed
    if extra:
        raise ConfigError(f"{where}: unknown field(s) {sorted(extra)}")


def parse_config(doc: dict) -> tuple[ModeSpectrum, Optional[SymmetrySpec]]:
    """Parse a decoded config document into (spectrum, symmetry)."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be an object")
    _reject_unknown(doc, {"modes", "symmetry"}, "config")
    if "modes" not in doc:
        raise ConfigError("config: missing 'modes'")
    if not isinstance(doc["modes"], list):
        raise ConfigError("modes must be a list")
    raw = []
    for i, m in enumerate(doc["modes"]):
        if not isinstance(m, dict):
            raise ConfigError(f"modes[{i}] must be an object")
        _reject_unknown(m, {"label", "omega"}, f"modes[{i}]")
        if "label" not in m or "omega" not in m:
            raise ConfigError(f"modes[{i}]: requires label and omega")
        if not isinstance(m["label"], str):
            raise ConfigError(f"modes[{i}].label: not a string")
        raw.append((m["label"], _parse_float(m["omega"], f"modes[{i}].omega")))
    spectrum = validate_spectrum(raw)

    sym = None
    if "symmetry" in doc:
        s = doc["symmetry"]
        if not isinstance(s, dict):
            raise ConfigError("symmetry must be an object")
        kind = s.get("kind")
        if kind not in (UNITARY, ANTIUNITARY):
            raise ConfigError(f"symmetry.kind must be '{UNITARY}' or '{ANTIUNITARY}'")
        allowed = {"kind", "pairing", "phases"} if kind == ANTIUNITARY else {"kind", "phases"}
        _reject_unknown(s, allowed, "symmetry")
        pairing = None
        if kind == ANTIUNITARY:
            raw_pairing = s.get("pairing")
            if not isinstance(raw_pairing, dict):
                raise ConfigError("symmetry.pairing must be a label -> label object")
            for lbl in spectrum.labels:
                if lbl not in raw_pairing:
                    raise ConfigError(f"symmetry.pairing: missing mode {lbl!r}")
                if not isinstance(raw_pairing[lbl], str):
                    raise ConfigError(f"symmetry.pairing[{lbl!r}]: not a string")
            if set(raw_pairing) != set(spectrum.labels):
                raise ConfigError("symmetry.pairing mentions unknown modes")
            # the one place a pairing's labels become mode indices; an
            # unknown label becomes -1, which no permutation of them holds
            index = {lbl: k for k, lbl in enumerate(spectrum.labels)}
            pairing = tuple(index.get(raw_pairing[lbl], -1) for lbl in spectrum.labels)
        raw_phases = s.get("phases", [])
        if not isinstance(raw_phases, list):
            raise ConfigError("symmetry.phases must be a list")
        phases = tuple(_parse_complex(p, f"symmetry.phases[{i}]") for i, p in enumerate(raw_phases))
        sym = SymmetrySpec(kind=kind, phases=phases, pairing=pairing)
        check_alignment(spectrum, sym)
    return spectrum, sym


def load_config(path) -> tuple[ModeSpectrum, Optional[SymmetrySpec]]:
    """Load and validate a JSON config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc}") from None
    return parse_config(doc)


def spectrum_to_config(spectrum: ModeSpectrum) -> dict:
    """Serialize a spectrum to the config document shape."""
    return {
        "modes": [
            {"label": lbl, "omega": w}
            for lbl, w in zip(spectrum.labels, spectrum.omegas)
        ]
    }
