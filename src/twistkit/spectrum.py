"""Mode spectra and symmetry specifications.

A :class:`ModeSpectrum` is a finite list of strictly positive oscillator
frequencies together with the ground-state energy ``mu`` (the minimum
frequency).  Finiteness is what makes every downstream trace and product
unconditionally convergent, so all identities verified elsewhere in the
package hold without regularization.

A :class:`SymmetrySpec` describes a symmetry commuting with the frequency
operator, either as per-mode unit phases (unitary case) or as an involutive
mode pairing with unit phases (antiunitary case, acting as
``V(sum c_k e_k) = sum conj(c_k) eta_k e_{pi(k)}``).
Both kinds are normalized once, here, into a :class:`SlotAction`, which is
the only form every route outside this module reads.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from .errors import AdmissibilityError, ConfigError, DomainError

UNIT_MODULUS_TOL = 1e-12

UNITARY = "unitary"
ANTIUNITARY = "antiunitary"


@dataclass(frozen=True)
class ModeSpectrum:
    """Finite admissible frequency spectrum.

    ``mu`` is None only for the empty spectrum; otherwise every omega
    satisfies ``omega >= mu > 0``.
    """

    labels: tuple[str, ...]
    omegas: tuple[float, ...]
    mu: Optional[float]

    def __post_init__(self):
        if len(self.labels) != len(self.omegas):
            raise ConfigError("labels and omegas must have equal length")
        if len(set(self.labels)) != len(self.labels):
            raise ConfigError("mode labels must be unique")
        if self.omegas:
            if self.mu is None:
                raise ConfigError("nonempty spectrum requires mu")
            if not self.mu > 0:
                raise AdmissibilityError("ground-state energy mu must be positive")
            if min(self.omegas) < self.mu:
                raise AdmissibilityError("every omega must be >= mu")
        elif self.mu is not None:
            raise ConfigError("empty spectrum must not carry mu")

    def __len__(self) -> int:
        return len(self.omegas)

    def omega_of(self, label: str) -> float:
        try:
            return self.omegas[self.labels.index(label)]
        except ValueError:
            raise ConfigError(f"unknown mode label {label!r}") from None


@dataclass(frozen=True)
class SymmetrySpec:
    """Unitary or antiunitary symmetry commuting with the spectrum.

    Unitary: ``phases[k]`` is the eigenvalue rho_k on mode k (positional
    alignment with the spectrum's mode order).

    Antiunitary: ``labels`` names the modes, ``partners[k]`` is the label
    pi(labels[k]) of an involutive permutation, and ``phases[k]`` is eta_k.
    """

    kind: str
    phases: tuple[complex, ...]
    labels: Optional[tuple[str, ...]] = None
    partners: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        if self.kind not in (UNITARY, ANTIUNITARY):
            raise ConfigError(f"unknown symmetry kind {self.kind!r}")
        for p in self.phases:
            if not abs(abs(p) - 1.0) <= UNIT_MODULUS_TOL:  # a NaN component fails too
                raise ConfigError(f"phase {p!r} is not unit modulus")
        if self.kind == ANTIUNITARY:
            if self.labels is None or self.partners is None:
                raise ConfigError("antiunitary symmetry requires labels and partners")
            if not (len(self.labels) == len(self.partners) == len(self.phases)):
                raise ConfigError("labels, partners and phases must align")
            perm = dict(zip(self.labels, self.partners))
            if set(perm.values()) != set(self.labels):
                raise ConfigError("pairing is not a permutation of the mode labels")
            for a, b in perm.items():
                if perm[b] != a:
                    raise ConfigError("pairing must be an involution")
        elif self.labels is not None or self.partners is not None:
            raise ConfigError("unitary symmetry takes phases only")

    @cached_property
    def action(self) -> SlotAction:
        """The slot action of U_S or U_V.  U_S alpha+*(k) U_S* = rho_k alpha+*(k)
        fixes every slot; U_V alpha+*(k) U_V* = eta_{pi(k)} alpha-*(pi(k)) moves
        the + slot of mode k onto the - slot of pi(k) and its - slot, with the
        conjugate phase, onto the + slot."""
        m = len(self.phases)
        if self.kind == UNITARY:
            source = range(2 * m)
            phases = [p for rho in self.phases for p in (complex(rho), complex(rho).conjugate())]
        else:
            source, phases = [0] * (2 * m), [1.0 + 0.0j] * (2 * m)
            for k, partner in enumerate(self.partners):
                j = self.labels.index(partner)
                source[2 * j], source[2 * j + 1] = 2 * k + 1, 2 * k
                eta = complex(self.phases[j])
                phases[2 * k], phases[2 * k + 1] = eta, eta.conjugate()
        return SlotAction(tuple(source), tuple(phases))


@dataclass(frozen=True)
class SlotAction:
    """A symmetry as a generalized permutation of the 2M (mode, charge) slots.

    Slot 2k is the + charge of mode k, slot 2k + 1 its - charge.  The basis
    state n goes to prod_s phases[s]**n[s] times the state whose slot t holds
    n[source[t]]; an antiunitary twist moves + slots onto - slots.  Only
    states constant on each cycle are fixed, so every trace is a product
    over the cycles.  A missing symmetry is the identity action.
    """

    source: tuple[int, ...]
    phases: tuple[complex, ...]

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
    """The slot action of ``sym`` after :func:`check_alignment`; the identity for None."""
    if sym is None:
        return SlotAction(tuple(range(2 * len(spectrum))), (1.0 + 0.0j,) * (2 * len(spectrum)))
    check_alignment(spectrum, sym)
    return sym.action


def principal_angle(phase: complex) -> float:
    """Argument of a unit-modulus number mapped into [0, 2*pi)."""
    theta = cmath.phase(phase)
    if theta < 0.0:
        theta += 2.0 * math.pi
    if theta >= 2.0 * math.pi:
        theta = 0.0
    return theta


def validate_spectrum(
    raw: Sequence[tuple[str, float]], mu_hint: Optional[float] = None
) -> ModeSpectrum:
    """Validate raw (label, omega) pairs into a ModeSpectrum.

    The empty sequence is accepted and produces the trivial theory whose
    partition functions are empty products.  ``mu`` defaults to the minimum
    omega when no hint is given.
    """
    labels = tuple(str(lbl) for lbl, _ in raw)
    omegas = tuple(float(w) for _, w in raw)
    if len(set(labels)) != len(labels):
        raise ConfigError("duplicate mode labels")
    for lbl, w in zip(labels, omegas):
        if not w > 0.0:
            raise AdmissibilityError(f"mode {lbl!r} has nonpositive frequency {w}")
    if not omegas:
        if mu_hint is not None:
            raise ConfigError("mu_hint given for an empty spectrum")
        return ModeSpectrum(labels=(), omegas=(), mu=None)
    mu = min(omegas) if mu_hint is None else float(mu_hint)
    if not mu > 0.0:
        raise AdmissibilityError("mu must be positive")
    if mu > min(omegas):
        raise AdmissibilityError("mu exceeds the minimum frequency")
    return ModeSpectrum(labels=labels, omegas=omegas, mu=mu)


def twisted_circle_spectrum(
    rho_twist: float, mass: float, n_range: Sequence[int]
) -> ModeSpectrum:
    """Spectrum of the twisted circle Laplacian plus mass term.

    Frequencies are omega_n = sqrt((n + rho/2pi)^2 + m^2) for n in n_range,
    the eigenvalues of -d^2/dx^2 + m^2 on functions obeying
    f(2pi) = exp(i*rho) f(0).
    """
    if not (math.isfinite(rho_twist) and math.isfinite(mass)):
        raise DomainError(f"twist {rho_twist} and mass {mass} must be finite")
    if mass < 0.0:
        raise AdmissibilityError("mass must be nonnegative")
    shift = rho_twist / (2.0 * math.pi)
    if mass == 0.0 and abs(shift - round(shift)) == 0.0:
        raise AdmissibilityError(
            "massless untwisted circle has a zero mode; twist or add mass"
        )
    pairs = []
    for n in n_range:
        omega = math.hypot(n + shift, mass)
        pairs.append((f"n={n}", omega))
    return validate_spectrum(pairs)


def check_alignment(spectrum: ModeSpectrum, sym: SymmetrySpec) -> None:
    """Raise ConfigError unless ``sym`` is consistent with ``spectrum``.

    For antiunitary symmetries the pairing must preserve omega exactly as
    stored, since the symmetry commutes with the frequency operator.
    """
    if len(sym.phases) != len(spectrum):
        raise ConfigError("symmetry phase count does not match mode count")
    if sym.kind == ANTIUNITARY:
        if sym.labels != spectrum.labels:
            raise ConfigError("antiunitary symmetry labels must match the spectrum")
        for k, partner in enumerate(sym.partners):
            if spectrum.omega_of(partner) != spectrum.omegas[k]:
                raise ConfigError(
                    f"pairing {spectrum.labels[k]!r} <-> {partner!r} "
                    "does not preserve omega"
                )


# ---------------------------------------------------------------------------
# Config file format (JSON).  Complex numbers are {re, im} pairs; unknown
# fields are rejected everywhere.
# ---------------------------------------------------------------------------


def _parse_complex(obj, where: str) -> complex:
    if not isinstance(obj, dict) or set(obj) != {"re", "im"}:
        raise ConfigError(f"{where}: complex numbers must be {{re, im}} objects")
    try:
        return complex(float(obj["re"]), float(obj["im"]))
    except (TypeError, ValueError):
        raise ConfigError(f"{where}: non-numeric complex component") from None


def _reject_unknown(obj: dict, allowed: set, where: str) -> None:
    extra = set(obj) - allowed
    if extra:
        raise ConfigError(f"{where}: unknown field(s) {sorted(extra)}")


def parse_config(doc: dict) -> tuple[ModeSpectrum, Optional[SymmetrySpec]]:
    """Parse a decoded config document into (spectrum, symmetry)."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be an object")
    _reject_unknown(doc, {"modes", "mu", "symmetry"}, "config")
    if "modes" not in doc:
        raise ConfigError("config: missing 'modes'")
    raw = []
    for i, m in enumerate(doc["modes"]):
        if not isinstance(m, dict):
            raise ConfigError(f"modes[{i}] must be an object")
        _reject_unknown(m, {"label", "omega"}, f"modes[{i}]")
        if "label" not in m or "omega" not in m:
            raise ConfigError(f"modes[{i}]: requires label and omega")
        raw.append((m["label"], m["omega"]))
    spectrum = validate_spectrum(raw, mu_hint=doc.get("mu"))

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
        labels = partners = None
        if kind == ANTIUNITARY:
            pairing = s.get("pairing")
            if not isinstance(pairing, dict):
                raise ConfigError("symmetry.pairing must be a label -> label object")
            for lbl in spectrum.labels:
                if lbl not in pairing:
                    raise ConfigError(f"symmetry.pairing: missing mode {lbl!r}")
            if set(pairing) != set(spectrum.labels):
                raise ConfigError("symmetry.pairing mentions unknown modes")
            labels, partners = spectrum.labels, tuple(str(pairing[lbl]) for lbl in spectrum.labels)
        phases = tuple(
            _parse_complex(p, f"symmetry.phases[{i}]") for i, p in enumerate(s.get("phases", []))
        )
        sym = SymmetrySpec(kind=kind, phases=phases, labels=labels, partners=partners)
        check_alignment(spectrum, sym)
    return spectrum, sym


def load_config(path) -> tuple[ModeSpectrum, Optional[SymmetrySpec]]:
    """Load and validate a JSON config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from None
    return parse_config(doc)


def spectrum_to_config(spectrum: ModeSpectrum) -> dict:
    """Serialize a spectrum to the config document shape."""
    doc = {
        "modes": [
            {"label": lbl, "omega": w}
            for lbl, w in zip(spectrum.labels, spectrum.omegas)
        ]
    }
    if spectrum.mu is not None:
        doc["mu"] = spectrum.mu
    return doc
