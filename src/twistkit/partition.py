"""Closed-form twisted partition functions and twist-positivity bounds.

All values are finite products, accumulated in log space from factors
log |1 - r e^{-y}|^2 that do not cancel, so that neither near-unity
factors nor tiny beta*omega lose precision.  A product that is finite and
positive but overflows or underflows a float raises RangeError instead of
returning inf, 0 or nan.  The twisted product runs over the cycles of the
symmetry's :class:`twistkit.spectrum.SlotAction`, for either kind.

The truncated traces, the oracle the closed forms are checked against, and
their truncation tail bounds are here too: they are scalar products over
the same cycles, so this module needs nothing beyond ``math`` and
``cmath``.
"""

from __future__ import annotations

import cmath
import math
from typing import Optional

from .errors import DomainError, RangeError
from .spectrum import ModeSpectrum, SymmetrySpec, slot_action

#: Below this value a twisted partition function is reported as
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


def z_twisted(spectrum: ModeSpectrum, sym: SymmetrySpec, beta: float) -> float:
    """Tr(U e^{-beta H}) = prod_cycles (1 - r x^L)^{-1}, x = e^{-beta omega},
    for either symmetry kind.

    The cycles of the slot action come in conjugate pairs or are
    self-conjugate, so Z = exp(-1/2 sum_cycles log |1 - r x^L|^2) > 0.  The
    1-cycles rho_k, conj(rho_k) of a unitary twist give prod_k |1 - rho_k
    x_k|^{-2}; the 2-cycles of an antiunitary one give the square-root
    identity Z = sqrt(Tr(U_{V^2} e^{-2 beta H})).
    """
    _require_beta(beta)
    log_z = -0.5 * sum(
        _log_abs2_one_minus(length * beta * spectrum.omegas[first // 2], r)
        for first, length, r in slot_action(spectrum, sym).cycles
    )
    z = _exp_in_range(log_z, "twisted partition function")
    if z < TINY_Z_FLAG:
        # Flag (do not fail): positivity is asserted for every beta > 0,
        # but degenerate phase choices can drive the value toward underflow.
        import warnings

        warnings.warn(f"twisted partition value {z} is below {TINY_Z_FLAG}")
    return z


def positivity_lower_bound(spectrum: ModeSpectrum, beta: float) -> float:
    """exp(-2 sum_k log(1 + e^{-beta omega_k})) <= Z for every twist.

    Each cycle of the slot action has |1 - r x^L|^{-1} >= (1 + x^L)^{-1}
    >= (1 + x)^{-L}, and the cycles cover every slot once.
    """
    _require_beta(beta)
    s = 0.0
    for w in spectrum.omegas:
        s += math.log1p(math.exp(-beta * w))
    return math.exp(-2.0 * s)


def _require_cutoff(cutoff: int) -> None:
    """DomainError unless the cutoff is a nonnegative integer (one with
    ``__index__``, so numpy integers pass and 2.0 does not)."""
    if not hasattr(cutoff, "__index__") or cutoff < 0:
        raise DomainError(f"occupation cutoff must be a nonnegative integer, got {cutoff}")


def truncation_tail_bound(spectrum: ModeSpectrum, beta: float, cutoff: int) -> float:
    """Relative error of the occupation-truncated untwisted trace.

    The truncated trace is Z prod_k (1 - exp(-beta*omega_k*(N+1)))**2, so
    its relative error is 1 minus that product.  Twisted traces need
    :func:`twisted_tail_bound`.
    """
    _require_beta(beta)
    _require_cutoff(cutoff)
    log_keep = sum(_log_abs2_one_minus(beta * w * (cutoff + 1), 1.0 + 0.0j) for w in spectrum.omegas)
    return -math.expm1(log_keep)


def twisted_tail_bound(spectrum: ModeSpectrum, beta: float, cutoff: int) -> float:
    """Relative-error bound for the occupation-truncated trace of any twist.

    The truncated trace is Z prod_cycles (1 - (r x^L)^{N+1}), and a cycle
    of length L has |r x^L|^{N+1} <= x^{N+1} for each of its L slots, so
    the trace lies within prod_k (1 + exp(-beta*omega_k*(N+1)))**2 - 1 of
    Z, relative.  A phase r^{N+1} = -1 reaches it.
    """
    _require_beta(beta)
    _require_cutoff(cutoff)
    return math.expm1(2.0 * sum(math.log1p(math.exp(-beta * w * (cutoff + 1))) for w in spectrum.omegas))


def _truncated_geometric(y: complex, cutoff: int) -> complex:
    """sum_{n=0}^{N} y^n by literal accumulation (Horner)."""
    acc = 0.0 + 0.0j
    for _ in range(cutoff + 1):
        acc = 1.0 + y * acc
    return acc


def geometric_log_derivative(y: complex, cutoff: int) -> complex:
    """S_N'(y)/S_N(y), S_N(y) = sum_{n=0}^{N} y^n, by one Horner pass that
    carries the derivative: <alpha alpha*> of one oscillator truncated at N
    with Boltzmann-and-twist weight y."""
    _require_cutoff(cutoff)
    acc = slope = 0.0 + 0.0j
    for _ in range(cutoff + 1):
        slope = acc + y * slope
        acc = 1.0 + y * acc
    return slope / acc


def partition_trace(
    spectrum: ModeSpectrum,
    sym: Optional[SymmetrySpec],
    beta: float,
    cutoff: int,
) -> complex:
    """Truncated Tr(U exp(-beta H)) for either symmetry kind (or none),
    factorized over the cycles of the slot action.

    Only basis states constant on each cycle are fixed, so with
    x = e^{-beta omega} and S_N the truncated geometric sum, a cycle of
    length L and phase product r contributes S_N(r x^L), accumulated term
    by term.  Equality with the basis sum and a dense trace is asserted in
    the tests.
    """
    _require_beta(beta)
    _require_cutoff(cutoff)
    total = 1.0 + 0.0j
    for first, length, r in slot_action(spectrum, sym).cycles:
        x = math.exp(-length * beta * spectrum.omegas[first // 2])
        total *= _truncated_geometric(r * x, cutoff)
    return complex(total)
