"""Closed-form twisted partition functions and twist-positivity bounds.

All values are finite products over the mode list, accumulated in
log-space with log1p so that many near-unity factors do not lose
precision.  A product that is finite and positive but overflows or
underflows a float raises RangeError instead of returning inf, 0 or nan.
"""

from __future__ import annotations

import cmath
import math
from typing import Optional

from .errors import DomainError, InternalConsistencyError, KindError, RangeError
from .spectrum import (
    ANTIUNITARY,
    UNITARY,
    ModeSpectrum,
    SymmetrySpec,
    check_alignment,
)

#: Below this value an antiunitary partition function is reported as
#: suspiciously small (flagged, not failed): positivity holds for all
#: beta > 0 but degenerate constructions can approach zero.
TINY_Z_FLAG = 1e-300


def _require_beta(beta: float) -> None:
    if not beta > 0.0:
        raise DomainError(f"beta must be positive, got {beta}")


def _exp_in_range(log_z: float, what: str) -> float:
    """e^{log_z}, or RangeError where that is not a positive finite float."""
    try:
        z = math.exp(log_z)
    except OverflowError:
        z = math.inf
    if not 0.0 < z < math.inf:
        raise RangeError(f"{what} = exp({log_z!r}) is outside the float range")
    return z


def z_untwisted(spectrum: ModeSpectrum, beta: float) -> float:
    """Tr(e^{-beta H}) = prod_k (1 - e^{-beta omega_k})^{-2}."""
    _require_beta(beta)
    log_z = 0.0
    for w in spectrum.omegas:
        log_z -= 2.0 * math.log1p(-math.exp(-beta * w))
    return _exp_in_range(log_z, "untwisted partition function")


def z_twisted_unitary(spectrum: ModeSpectrum, sym: SymmetrySpec, beta: float) -> float:
    """Tr(U_S e^{-beta H}) = prod_k |1 - rho_k e^{-beta omega_k}|^{-2}.

    The result is structurally real and positive; it is returned as a
    float.
    """
    _require_beta(beta)
    if sym.kind != UNITARY:
        raise KindError("z_twisted_unitary requires a unitary symmetry")
    check_alignment(spectrum, sym)
    log_z = 0.0
    for w, rho in zip(spectrum.omegas, sym.phases):
        x = math.exp(-beta * w)
        # |1 - rho x|^2 = 1 - 2 Re(rho) x + x^2
        log_z -= math.log1p(x * (x - 2.0 * rho.real))
    return _exp_in_range(log_z, "unitary twisted partition function")


def _square_phases(sym: SymmetrySpec) -> SymmetrySpec:
    """Unitary S**2 of an antiunitary V, composed structurally.

    V(sum c_k e_k) = sum conj(c_k) eta_k e_{pi(k)} gives
    V^2 e_k = conj(eta_k) eta_{pi(k)} e_k, diagonal since pi is an
    involution.
    """
    if sym.kind != ANTIUNITARY:
        raise KindError("square is computed for antiunitary symmetries")
    phases = []
    for k in range(len(sym.phases)):
        j = sym.partner_index(k)
        phases.append(complex(sym.phases[k]).conjugate() * sym.phases[j])
    return SymmetrySpec(kind=UNITARY, phases=tuple(phases))


def z_twisted_antiunitary(
    spectrum: ModeSpectrum, sym: SymmetrySpec, beta: float
) -> float:
    """Tr(U_V e^{-beta H}) = sqrt(Tr(U_{V^2} e^{-2 beta H})).

    The inner value is a product of complex factors, accumulated as a
    log-modulus and a phase so that it cannot overflow midway; the
    conjugate-pair cancellation is checked numerically: a residual phase
    beyond 1e-10 raises InternalConsistencyError.
    """
    _require_beta(beta)
    if sym.kind != ANTIUNITARY:
        raise KindError("z_twisted_antiunitary requires an antiunitary symmetry")
    check_alignment(spectrum, sym)
    squared = _square_phases(sym)
    log_inner, phase = 0.0, 0.0
    for w, rho in zip(spectrum.omegas, squared.phases):
        x = math.exp(-2.0 * beta * w)
        factor = (1.0 - rho * x) * (1.0 - rho.conjugate() * x)
        log_inner -= math.log(abs(factor))
        phase -= cmath.phase(factor)
    if abs(math.sin(phase)) > 1e-10 or math.cos(phase) < 0.0:
        raise InternalConsistencyError(
            f"inner trace has phase {phase!r}, not 0; conjugate pairing violated"
        )
    z = _exp_in_range(0.5 * log_inner, "antiunitary partition function")
    if z < TINY_Z_FLAG:
        # Flag (do not fail): positivity is asserted for every beta > 0,
        # but degenerate eta choices can drive the value toward underflow.
        import warnings

        warnings.warn(f"antiunitary partition value {z} is below {TINY_Z_FLAG}")
    return z


def positivity_lower_bound(spectrum: ModeSpectrum, beta: float) -> float:
    """exp(-2 sum_k log(1 + e^{-beta omega_k})) <= Z for any unitary twist."""
    _require_beta(beta)
    s = 0.0
    for w in spectrum.omegas:
        s += math.log1p(math.exp(-beta * w))
    return math.exp(-2.0 * s)


def per_mode_factors(
    spectrum: ModeSpectrum, sym: Optional[SymmetrySpec], beta: float
) -> list[tuple[str, float]]:
    """Diagnostic breakdown: (label, |1 - rho e^{-beta omega}|^{-2})."""
    _require_beta(beta)
    if sym is None:
        phases = (1.0 + 0.0j,) * len(spectrum)
    elif sym.kind == UNITARY:
        check_alignment(spectrum, sym)
        phases = sym.phases
    else:
        raise KindError("per-mode factors are defined for unitary twists")
    rows = []
    for lbl, w, rho in zip(spectrum.labels, spectrum.omegas, phases):
        rows.append((lbl, 1.0 / abs(1.0 - rho * cmath.exp(-beta * w)) ** 2))
    return rows
