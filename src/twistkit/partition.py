"""Closed-form twisted partition functions and twist-positivity bounds.

All values are finite products over the mode list, accumulated in log
space from factors log |1 - rho e^{-beta omega}|^2 that do not cancel, so
that neither near-unity factors nor tiny beta*omega lose precision.  A product that is finite and positive but overflows or
underflows a float raises RangeError instead of returning inf, 0 or nan.
"""

from __future__ import annotations

import cmath
import math

from .errors import DomainError, KindError, RangeError
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


def _log_abs2_one_minus(y: float, rho: complex) -> float:
    """log |1 - rho e^{-y}|^2 for y > 0 and a unit phase rho = e^{i theta}.

    With x = e^{-y} the value is the log of D = expm1(-y)^2 +
    4x sin^2(theta/2), the denominator of
    :func:`twistkit.correlation.kernel_closed_form`, in which nothing
    cancels; hypot keeps the sum from underflowing.  For x < 1/2, where
    D >= 1/4, it is log1p(x (x - 2 cos theta)) instead, so that a tiny x is
    not rounded away.  Where even hypot is 0 (y underflowed to 0 at
    rho = 1) it is -inf, and the product it enters overflows into
    RangeError.
    """
    x = math.exp(-y)
    if x < 0.5:
        return math.log1p(x * (x - 2.0 * rho.real))
    root = math.hypot(math.expm1(-y), 2.0 * math.sqrt(x) * math.sin(0.5 * cmath.phase(rho)))
    return 2.0 * math.log(root) if root > 0.0 else -math.inf


def z_untwisted(spectrum: ModeSpectrum, beta: float) -> float:
    """Tr(e^{-beta H}) = prod_k (1 - e^{-beta omega_k})^{-2}."""
    _require_beta(beta)
    log_z = -sum(_log_abs2_one_minus(beta * w, 1.0 + 0.0j) for w in spectrum.omegas)
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
    log_z = -sum(_log_abs2_one_minus(beta * w, rho) for w, rho in zip(spectrum.omegas, sym.phases))
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

    The inner trace is the unitary product for V^2 at 2 beta, whose every
    factor |1 - rho x|^2 is real and positive, so Z is half its log-sum.
    """
    _require_beta(beta)
    if sym.kind != ANTIUNITARY:
        raise KindError("z_twisted_antiunitary requires an antiunitary symmetry")
    check_alignment(spectrum, sym)
    squared = _square_phases(sym)
    log_inner = -sum(
        _log_abs2_one_minus(2.0 * beta * w, rho) for w, rho in zip(spectrum.omegas, squared.phases)
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
