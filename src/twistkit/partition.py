"""Closed-form twisted partition functions, their thermal energy and
twist-positivity bounds.

Partition functions are finite products, accumulated in log space from
factors log |1 - r e^{-y}|^2 that do not cancel, so that neither
near-unity factors nor tiny beta*omega lose precision.  A product that is
finite and positive but overflows or underflows a float raises RangeError
instead of returning inf, 0 or nan.  One product, :func:`z_twisted`, runs
over the cycles of the symmetry's :class:`twistkit.spectrum.SlotAction`,
for either kind and for no symmetry (the identity, the untwisted Z); its
thermal energy -d/dbeta log Z, :func:`energy_terms`, is one term per
cycle.  Every log-sum is :func:`math.fsum`, correctly rounded, so that
printed values do not depend on the interpreter's float ``sum``.

The module holds closed forms and input guards only, on ``math`` and
``cmath``.  The oracles the closed forms are checked against, the
truncated traces with their tail bounds and 1/det(1 - XU) walked from the
slot table, live beside their one caller,
:func:`twistkit.verify.partition_row`.
"""

from __future__ import annotations

import cmath
import math

from .errors import DomainError, RangeError
from .spectrum import ModeSpectrum, SymmetrySpec, _is_index, slot_action

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Optional

#: Below this value a twisted partition function is reported as
#: suspiciously small (flagged, not failed): positivity holds for all
#: beta > 0 but degenerate constructions can approach zero.
TINY_Z_FLAG = 1e-300


def _require_beta(beta: float) -> None:
    """DomainError unless 0 < beta < inf; NaN fails the comparison."""
    if not beta > 0.0:
        raise DomainError(f"beta must be positive, got {beta}")
    if beta == math.inf:
        raise DomainError("beta must be finite")


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


def _one_minus(y: float, phi: float) -> complex:
    """1 - e^{i phi} e^{-y} for y >= 0, as -expm1(-y) + 2x sin^2(phi/2) -
    i x sin(phi) with x = e^{-y}, in which nothing cancels: at small y
    neither the rounding of x nor a phase's rounded modulus moves it."""
    x = math.exp(-y)
    return complex(2.0 * x * math.sin(0.5 * phi) ** 2 - math.expm1(-y), -x * math.sin(phi))


def z_twisted(spectrum: ModeSpectrum, sym: Optional[SymmetrySpec], beta: float) -> float:
    """Tr(U e^{-beta H}) = prod_cycles (1 - r x^L)^{-1}, x = e^{-beta omega},
    for either symmetry kind; ``sym=None`` is the identity, whose trace
    Tr(e^{-beta H}) = prod_k (1 - x_k)^{-2} is the untwisted Z.

    The cycles of the slot action come in conjugate pairs or are
    self-conjugate, so Z = exp(-1/2 sum_cycles log |1 - r x^L|^2) > 0.  The
    1-cycles rho_k, conj(rho_k) of a unitary twist give prod_k |1 - rho_k
    x_k|^{-2}; the 2-cycles of an antiunitary one give the square-root
    identity Z = sqrt(Tr(U_{V^2} e^{-2 beta H})).
    """
    _require_beta(beta)
    log_z = -0.5 * math.fsum(
        _log_abs2_one_minus(length * beta * spectrum.omegas[first // 2], r)
        for first, length, r in slot_action(spectrum, sym).cycles
    )
    what = "untwisted partition function" if sym is None else "twisted partition function"
    z = _exp_in_range(log_z, what)
    if z < TINY_Z_FLAG:
        # Flag (do not fail): positivity is asserted for every beta > 0,
        # but degenerate phase choices can drive the value toward underflow.
        import warnings

        warnings.warn(f"twisted partition value {z} is below {TINY_Z_FLAG}")
    return z


def energy_terms(spectrum: ModeSpectrum, sym: Optional[SymmetrySpec], beta: float) -> list[float]:
    """-d/dbeta log z_twisted, cycle by cycle: Re[L omega r x^L / (1 - r x^L)]
    for each cycle (length L, phase product r) of the slot action, in the
    order of ``SlotAction.cycles``, with x = e^{-beta omega}.  For a twist
    that keeps every slot, term 2k is the 1-cycle of mode k's + slot.

    Each r is read as the unit phase e^{i arg r}, as the kernel reads its
    twist angle, and 1 - r x^L is taken by :func:`_one_minus`, so nothing
    cancels.  The terms sum to the thermal energy of the twisted trace,
    the lag-0 identity the ``kernel`` checks tie the sampled kernel to
    (:func:`twistkit.verify.energy_identity`).
    """
    _require_beta(beta)
    terms = []
    for first, length, r in slot_action(spectrum, sym).cycles:
        w, phi = spectrum.omegas[first // 2], cmath.phase(r)
        y = length * beta * w
        terms.append(length * (w * cmath.rect(math.exp(-y), phi) / _one_minus(y, phi)).real)
    return terms


def positivity_lower_bound(spectrum: ModeSpectrum, beta: float) -> float:
    """exp(-2 sum_k log(1 + e^{-beta omega_k})) <= Z for every twist.

    Each cycle of the slot action has |1 - r x^L|^{-1} >= (1 + x^L)^{-1}
    >= (1 + x)^{-L}, and the cycles cover every slot once.
    """
    _require_beta(beta)
    return math.exp(-2.0 * math.fsum(math.log1p(math.exp(-beta * w)) for w in spectrum.omegas))


def _require_count(n: int, least: int, what: str) -> None:
    """DomainError unless n is an integer >= least by the one integer rule,
    :func:`twistkit.spectrum._is_index`: numpy integers pass, 2.0 and True
    do not."""
    if not _is_index(n) or n < least:
        raise DomainError(f"{what} must be an integer >= {least}, got {n}")
