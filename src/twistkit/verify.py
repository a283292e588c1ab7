"""Named verification suites over a (spectrum, symmetry) configuration.

:func:`run_suite` is the one entry to the suites.  One ordered table maps
each name of :data:`SUITES` to its body, and ``all`` runs every suite in
table order: ccr, tc, symmetry, partition, kernel, realfield.  Every suite
runs on every config: a missing symmetry is the unitary identity, whose
slot action :func:`~twistkit.spectrum.slot_action` builds by the one normal
form.

Each suite runs a fixed list of checks and returns structured results;
the CLI renders them and sets the exit code.  The ``partition`` suite is
:func:`partition_row` at beta = 1 and :data:`PARTITION_CUTOFF`, and the
``partition`` subcommand renders that function on each of its rows, so
both run one check list.  The kernel checks of a sampled layout of
either kind are one list too, :func:`kernel_checks`: the ``kernel`` suite
and ``kernel --verify``, on either route, render it.  The ``kernel``
suite is the one suite that checks a sampled kernel.  It samples one
layout, the one that ``kernel --extended`` exports, on a
32-point grid with one column per doubled eigenmode, for every action
(the identity included), and every one of its checks reads that layout.
It checks it through the closed-form spectra of its twisted-circulant
eigenmode grids, never a dense grid: positivity reads the closed form, a
pure-Python transform of the exported lag values ties them to it, every
column's lag-0 value must be real, which makes the whole grid Hermitian,
every column's lags must be twisted-circulant, so that the closed form is
the grid's spectrum, and the blocks the exporter writes must be the
kernel on each cycle's covering circle, walked from the induced unitary's
images, with no eigenbasis.  The lag-0 energy identity ties the layout to
Z with no cutoff, so it sees a common error of the lag values and the
closed-form spectrum that every other check but the oracle passes.  The
oracle reads column M, mode 0's + slot, whose phase is rho_0 for a
diagonal action.
The ``realfield`` suite checks the doubled theory only: its eigenphases
and the doubled-field oracle.

The oracles of the partition function live here, beside their one caller,
so no closed-form module reaches them: the truncated trace
:func:`partition_trace` with its tail bounds :func:`truncation_tail_bound`
and :func:`twisted_tail_bound`, read by :func:`partition_row` (at
:data:`PARTITION_CUTOFF` in the ``partition`` suite and by default in the
``partition`` subcommand, and capped at :data:`MAX_TRACE_STEPS` Horner
steps a trace), and 1/det(1 - XU), :func:`z_via_det`, which
:func:`partition_row` runs for every twist: it walks the slot table, not
the cycles the closed form reads, and takes no truncation, so a wrong
cycle product, or a relative error of Z far below the trace's tail bound,
fails its check.  The untwisted trace reads the frequencies alone.

The ``ccr``, ``tc`` and ``symmetry`` suites and the doubled-field checks
of ``realfield`` act with the matrix-free Fock oracle, once per factor of
the space and once more across the first two factors; their checks live
beside it in :mod:`twistkit.fock`, which one runner here, keyed by suite
name, imports only when one of them runs.  This module imports neither
numpy nor :mod:`twistkit.fock` at module level, so :class:`CheckResult`,
:data:`SUITES`, :func:`run_suite`, :func:`partition_row`, the ``kernel``
and ``partition`` suites and the checks of any sampled kernel
(``kernel --verify`` on either route) run on ``math`` alone, and a job
that runs none of the dense suites never compiles their source; the
``partition`` suite loads neither :mod:`twistkit.realfield` nor
:mod:`twistkit.correlation`.

Every deviation, and every threshold read from the data, is the
NaN-aware maximum :func:`_worst` of its defects, never a bare ``max`` or
``min``, which may drop a NaN, and every magnitude and sum of lag values
(:func:`_abs`, :func:`_fsum`) reads an overflow as NaN, where ``abs`` and
``math.fsum`` raise: a non-finite value, or finite ones whose size or sum
is not, fails its check and aborts nothing.  RangeError is kept for an
input or a closed form's own value beyond the float range.

Routes and checks choose their path from the symmetry's
:class:`~twistkit.spectrum.SlotAction`, not its kind, except the
``symmetry`` suite: its rules, read from the raw phases and pairing, are
what the normal form is checked against.

The oracle check, :func:`kernel_agreement`, reads one column of a sampled
kernel of any layout and compares its lag values with the Fock-trace
oracle at every one of its 2m - 1 lags: the one column of a scalar
layout, and column M of an extended one.  It derives its cutoff from the
oracle's truncation bound, takes as its threshold the bound that cutoff
certifies, truncation plus rounding, and refuses (CapacityError) a kernel
whose cutoff passes :data:`MAX_TRACE_STEPS` or whose bound passes 1e-8.
No Fourier partial sum is needed beside it:
the Hermitian, twisted-circulant and transform checks already tie every
lag value to the inverse transform of the full aliasing sums, the
closed-form grid spectrum, at rounding level.  This module evaluates no
closed form itself: the ``kernel`` suite builds its sampled kernels with
:func:`twistkit.realfield.sample_extended_kernel` and
:func:`twistkit.correlation.sample_kernels`, the routes the CLI exports,
and the block check samples its covering-circle references by the same
:func:`~twistkit.correlation.sample_kernels`; it reads its spectra from
:meth:`~twistkit.correlation.SampledKernel.spectrum`, and the energy of Z
from :func:`twistkit.partition.energy_terms`.
Only the dense suites read the seed, which draws their Fock-oracle states.
"""

from __future__ import annotations

import cmath
import math
import sys
from functools import partial

from . import partition
from .errors import CapacityError, ConfigError, RangeError
from .partition import _exp_in_range, _log_abs2_one_minus, _one_minus, _require_beta, _require_count
from .spectrum import UNITARY, ModeSpectrum, SymmetrySpec, slot_action, validate_spectrum

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Callable, Iterable, Optional

    from . import correlation, realfield

#: Machine epsilon, 2^-52.
_EPS = sys.float_info.epsilon


def _worst(defects: Iterable[float]) -> float:
    """The largest defect, or NaN if any is NaN (``max`` alone may drop it)."""
    return max(defects, key=lambda d: (d != d, d), default=0.0)


def _abs(v: complex) -> float:
    """|v|, or NaN where it lies beyond the float range (``abs`` raises there)."""
    try:
        return abs(v)
    except OverflowError:
        return math.nan


def _fsum(values: Iterable[float]) -> float:
    """``math.fsum``, or NaN where a partial sum overflows or meets inf - inf
    (``fsum`` raises there)."""
    try:
        return math.fsum(values)
    except (OverflowError, ValueError):
        return math.nan


class CheckResult:
    """One check: its suite, its name, the deviation found and the threshold
    it must not exceed.  A check of one mode names its index, ``mode``; a
    suite lists such checks last, in mode order."""

    def __init__(
        self, suite: str, name: str, deviation: float, threshold: float, mode: Optional[int] = None
    ):
        self.suite, self.name, self.deviation, self.threshold = suite, name, deviation, threshold
        self.mode = mode

    @property
    def passed(self) -> bool:
        return self.deviation <= self.threshold


def _dense(
    suite: str, spectrum: ModeSpectrum, sym: Optional[SymmetrySpec], seed: int
) -> list[CheckResult]:
    """The Fock-oracle checks of ``suite``, run factor by factor by
    :func:`twistkit.fock._factored`: the whole of the ``ccr``, ``tc`` and
    ``symmetry`` suites and the doubled-field checks of ``realfield``."""
    from . import fock

    checks = {"ccr": fock._ccr_checks, "tc": fock._tc_checks, "symmetry": fock._symmetry_checks,
              "realfield": fock.doubled_field_checks}[suite]
    return fock._factored(checks, spectrum, sym, seed)


#: Occupation cutoff of the truncated partition traces: the ``partition``
#: subcommand's default and the ``partition`` suite's.
PARTITION_CUTOFF = 40

#: The step cap of both geometric-sum oracles: the most Horner steps one
#: truncated partition trace takes, cutoff + 1 per cycle of the slot action,
#: and one sum of the kernel's Fock-trace oracle, cutoff + 1.  A step took
#: about 0.13 us on a 2-core x86-64 machine (Python 3.11), so a trace at the
#: cap takes about 1.3 s; a larger one is refused (CapacityError) before any
#: sum.
MAX_TRACE_STEPS = 10**7


def truncation_tail_bound(spectrum: ModeSpectrum, beta: float, cutoff: int) -> float:
    """Relative error of the occupation-truncated untwisted trace.

    The truncated trace is Z prod_k (1 - exp(-beta*omega_k*(N+1)))**2, so
    its relative error is 1 minus that product, +0.0 (never -0.0) where
    nothing is dropped.  Twisted traces need :func:`twisted_tail_bound`.
    """
    _require_beta(beta)
    _require_count(cutoff, 0, "occupation cutoff")
    keep = (_log_abs2_one_minus(beta * w * (cutoff + 1), 1.0 + 0.0j) for w in spectrum.omegas)
    return 0.0 - math.expm1(math.fsum(keep))


def twisted_tail_bound(spectrum: ModeSpectrum, beta: float, cutoff: int) -> float:
    """Relative-error bound for the occupation-truncated trace of any twist.

    The truncated trace is Z prod_cycles (1 - (r x^L)^{N+1}), and a cycle
    of length L has |r x^L|^{N+1} <= x^{N+1} for each of its L slots, so
    the trace lies within prod_k (1 + exp(-beta*omega_k*(N+1)))**2 - 1 of
    Z, relative.  A phase r^{N+1} = -1 reaches it.
    """
    _require_beta(beta)
    _require_count(cutoff, 0, "occupation cutoff")
    drop = (math.log1p(math.exp(-beta * w * (cutoff + 1))) for w in spectrum.omegas)
    return math.expm1(2.0 * math.fsum(drop))


def _truncated_geometric(y: complex, cutoff: int) -> complex:
    """sum_{n=0}^{N} y^n by literal accumulation (Horner)."""
    acc = 0.0 + 0.0j
    for _ in range(cutoff + 1):
        acc = 1.0 + y * acc
    return acc


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
    by term.  The untwisted trace (``sym=None``) reads the frequencies
    alone, never the identity's slot action: S_N(x_k) once per slot, in
    slot order, so each mode's sum enters twice.  Equality with the basis
    sum and a dense trace is asserted in the tests.  CapacityError where
    (cutoff + 1) times the number of cycles exceeds
    :data:`MAX_TRACE_STEPS`, before the first step.
    """
    _require_beta(beta)
    _require_count(cutoff, 0, "occupation cutoff")
    cycles = ([(slot, 1, 1.0) for slot in range(2 * len(spectrum))] if sym is None
              else slot_action(spectrum, sym).cycles)
    steps = (cutoff + 1) * len(cycles)
    if steps > MAX_TRACE_STEPS:
        raise CapacityError(
            f"a truncated trace of {steps} steps exceeds the cap of {MAX_TRACE_STEPS}")
    total = 1.0 + 0.0j
    for first, length, r in cycles:
        x = math.exp(-length * beta * spectrum.omegas[first // 2])
        total *= _truncated_geometric(r * x, cutoff)
    return complex(total)


def partition_row(
    spectrum: ModeSpectrum, sym: Optional[SymmetrySpec], beta: float, cutoff: int
) -> tuple[tuple[float, ...], list[CheckResult]]:
    """One partition table row and the checks on it.

    Columns: beta, z_untwisted, z_twisted, lower_bound, oracle_z, rel_err,
    tail_bound (the untwisted one).  Both Z columns are the one closed form
    :func:`twistkit.partition.z_twisted`, the first at ``sym=None``, the
    identity.  Checks: each closed-form Z against its truncated trace at
    ``cutoff`` (compared as complex numbers, within the route's tail bound
    plus 1e-10), and for every twist the positivity lower bound, which
    holds cycle by cycle, and the closed form against 1/det(1 - XU),
    :func:`z_via_det`, relative, within that route's rounding threshold.
    The twisted check is named "unitary product formula" for a diagonal
    slot action, "antiunitary square-root identity" otherwise.  These are
    the checks of the ``partition`` suite, which is this row at beta = 1
    and :data:`PARTITION_CUTOFF`, and of the ``partition`` subcommand on
    each of its rows.
    """
    z = z_plain = partition.z_twisted(spectrum, None, beta)
    bound = partition.positivity_lower_bound(spectrum, beta)
    tail = truncation_tail_bound(spectrum, beta, cutoff)
    trace = partition_trace(spectrum, None, beta, cutoff)
    # (route, closed form, truncated trace, threshold)
    routes = [("untwisted product formula", z, trace, tail + 1e-10)]
    if sym is not None:
        diagonal = slot_action(spectrum, sym).diagonal
        name = "unitary product formula" if diagonal else "antiunitary square-root identity"
        z = partition.z_twisted(spectrum, sym, beta)
        trace = partition_trace(spectrum, sym, beta, cutoff)
        routes.append((name, z, trace, twisted_tail_bound(spectrum, beta, cutoff) + 1e-10))
    checks = [
        CheckResult("partition", f"{name} vs truncated trace", abs(value - oracle) / value, threshold)
        for name, value, oracle, threshold in routes
    ]
    rel = checks[-1].deviation
    if sym is not None:
        positivity = _worst((0.0, bound - z))
        z_det, slack = z_via_det(spectrum, sym, beta)
        checks += [CheckResult("partition", "twist positivity lower bound", positivity, 1e-14 * z),
                   CheckResult("partition", "closed form vs 1/det(1 - XU)", abs(z - z_det) / z, slack)]
    return (beta, z_plain, z, bound, trace.real, rel, tail), checks


def z_via_det(spectrum: ModeSpectrum, sym: Optional[SymmetrySpec],
              beta: float) -> tuple[complex, float]:
    """(1/det(1 - XU), threshold): Z walked from the slot table, and the
    rounding threshold of its relative distance from
    :func:`twistkit.partition.z_twisted`.

    U is the doubled induced unitary, the transpose of the slot action, and
    X = e^{-beta Omega} the doubled Boltzmann factor.  The bosonic trace
    formula Tr Gamma(A) = 1/det(1 - A) for a strict one-particle
    contraction A (the ideal Bose gas: O. Bratteli and D. W. Robinson,
    Operator Algebras and Quantum Statistical Mechanics 2, 2nd ed., 1997,
    ch. 5) gives Z = 1/det(1 - XU).  U is a generalized permutation, so the
    determinant is a product over its cycles: a cycle of length L, phase
    product r and x = e^{-beta omega} is a block x times a weighted cyclic
    shift, whose eigenvalues x r^{1/L} e^{2 pi i q/L} give it the
    determinant f = 1 - r x^L.  The cycles are walked here from
    ``action.source`` and ``action.phases``, each slot once, never from
    ``SlotAction.cycles``, which the closed form and the traces read.  Each
    f is taken by :func:`twistkit.partition._one_minus`, in which nothing
    cancels, and no truncation enters.  The complex logs of the factors are
    summed by :func:`math.fsum`, real and imaginary parts apart, so the
    value is finite wherever Z is, and RangeError otherwise.  The value is
    complex: a slot table whose phases are not closed under conjugation
    gives it a phase, which the real closed form cannot show.

    The threshold is 8 eps sum_cycles (1 + |log |f|| + 7 L x^L / |f|^2),
    the last term only where x^L < 1/2.  It is a first-order rounding
    bound, counted here in units of u = eps/2:
    - Both routes take y = L beta omega and r by the same products in the
      same order (the walk's leading factor 1 is exact), so neither
      rounding differs between them.
    - The walk's |f| is within 7u: _one_minus adds two nonnegative terms,
      within 5u and u, and takes x sin(phi) within 3u.  The closed form's
      |f|, hypot(expm1(-y), 2 sqrt(x) sin(phi/2)) where x^L >= 1/2, is
      within 5.5u.  The exponentials, the fsums' last roundings and the
      comparison add a few u, shared by at least two cycles: under
      7.25 eps a cycle, against the 8.
    - Each log and each fsum adds u |log |f||, 2 eps |log |f|| in all.
    - Where x^L < 1/2 the closed form is log1p(x^L (x^L - 2 Re r)), whose
      argument is within 8u x^L, so log |f| is within 4u x^L / |f|^2.  It
      reads the modulus of r there, which the walk's unit phase e^{i phi}
      does not: ||r| - 1| <= L (UNIT_MODULUS_TOL + 1.12 eps), 46.2 L eps,
      moves log |f| by up to 46.2 L eps x^L / |f|^2, and the rounding of
      phi against Re r adds pi u x^L / |f|^2.  That is under
      50 L eps x^L / |f|^2, against the 56.
    In a slot table built from a symmetry spec, the r of conjugate cycles
    are exact conjugates and a self-conjugate cycle has a real r >= 0, so
    the imaginary parts cancel exactly.  Measured: at most 0.17 of the
    threshold over 40000 configs in the ranges of ROADMAP item 27, and 0.75
    over 30000 more with every phase off unit modulus by up to 0.99e-14.
    """
    _require_beta(beta)
    action = slot_action(spectrum, sym)
    logs, slack, seen = [], [], set()
    for first in range(len(action.source)):
        t, r, length = first, 1, 0
        while t not in seen:
            seen.add(t)
            t, r, length = action.source[t], r * action.phases[t], length + 1
        if length:
            y = length * beta * spectrum.omegas[first // 2]
            x, f = math.exp(-y), _one_minus(y, cmath.phase(r))
            if not f:
                raise RangeError(f"1/det(1 - XU) at beta={beta} is outside the float range: "
                                 "a cycle's 1 - r x^L is 0")
            logs.append(cmath.log(f))
            # the modulus term only where the closed form reads Re r
            slack += [1.0 + abs(logs[-1].real), 7 * length * x / abs(f) ** 2 if x < 0.5 else 0.0]
    modulus = _exp_in_range(-math.fsum(v.real for v in logs), "1/det(1 - XU)")
    return cmath.rect(modulus, -math.fsum(v.imag for v in logs)), 8 * _EPS * math.fsum(slack)


def _partition(spectrum: ModeSpectrum, sym: Optional[SymmetrySpec], seed: int) -> list[CheckResult]:
    return partition_row(spectrum, sym, 1.0, PARTITION_CUTOFF)[1]


def _oracle_cutoff(omega: float, beta: float, m: int) -> tuple[int, float]:
    """(N, B_N + R): the cutoff of :func:`kernel_agreement` on an m-point
    grid and the bound it certifies, or CapacityError where the Fock-trace
    oracle cannot resolve the kernel.

    With x = e^{-beta omega} the oracle's one-oscillator sums are
    S_N'/S_N at y = rho x and conj(rho) x, and
    S_N'/S_N - 1/(1 - y) = -(N + 1) y^N / (1 - y^{N+1}) exactly.  Each
    enters the oracle with a weight of modulus at most 1/(2 omega), so at
    every lag |oracle - K| <= B_N = (N + 1) x^N / ((1 - x^{N+1}) omega).
    With t = (N + 1) beta omega, B_N = e^{beta omega} (t / expm1(t)) /
    (beta omega^2), which falls with N.  N is the smallest N >= 800 with
    B_N <= 1e-9, a tenth of the largest bound it accepts, found by bisection on
    log B_N, so every grid whose B_800 fits keeps cutoff 800.  CapacityError
    where N + 1 exceeds :data:`MAX_TRACE_STEPS`, or beta omega is 0.

    The comparison's rounding is within
    R = eps (18/g + 32 + 2 min(beta omega, m)) / (omega g h^2), with
    g = 1 - x and h = 1 - x^{N+1}, to first order in u = eps/2 (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002, 3.1 and
    5.1; complex products within 2.83u):
    - Horner's rule for S_N has partial sums within 2/|1 - y| and adds at
      most 3.83u of one a step, damped by |y| = x a step, so it is within
      3.83 eps/(g h) of S_N, relative.  The derivative's partial sums are
      within 2.37/(|1 - y| g), which puts S_N' within 8.37 eps/(g^2 h) of
      |S_N|.  With |S_N'/S_N| <= 2/(g h) and the division, the ratio is
      within 16.1 eps/(g h)^2 + 2.83 eps/(g h); the rounding of y = rho x,
      at most eps x, moves it by eps/g^2 more.
    - The ratios enter with weights e^{-omega (beta - |tau|)} and
      e^{-omega |tau|} of at most 1.  The first one's exponent is a
      difference of two rounded products, off by up to 3u beta omega, but
      its value is below e^{-beta omega/m}, so that error is below
      1.5 eps min(beta omega, m).  With the four products and the sum, the
      oracle is within (17.1/g + 10.7 + 1.5 min(beta omega, m)) eps /
      (omega g h^2).
    - The closed form is within 16 eps/(omega g): its terms p, q <= 1 - x^2
      over 2 omega |1 - x e^{i theta}|^2 >= 2 omega g^2 bound every lag
      value by 2/(omega g), and each is taken to a few eps, exponents
      included.  The difference adds 2 eps/(omega g h).
    Measured against 50-digit values of both sides: at most 0.058 of R over
    2000 draws that the check accepts (omega log-uniform in [1e-6, 1e3], or
    near the refusal edge; beta log-uniform in [1e-3, 1e2]; rho = 1, -1,
    within 1e-3 of 1 or uniform; m in [2, 64]), and every deviation within
    B_N + R over 6000 more (at most 0.991 of it, where B_N, which is
    attained at rho = 1, dominates).  So a correct lag value is within
    B_N + R of the oracle, which is the check's threshold, and the check
    refuses with CapacityError where B_N + R exceeds 1e-8: at beta = 1
    below omega = 0.0077, at omega = 1 below beta = 6.7e-4, and at
    beta = 1e-300 below omega = 3.6e237.
    """
    y = beta * omega
    log_target = math.log(1e-9)

    def log_bound(n: int) -> float:  # log B_n
        return (math.log(n + 1) - n * y - math.log(-math.expm1(-(n + 1) * y))
                - math.log(omega))

    lo, hi = 799, MAX_TRACE_STEPS - 1  # the smallest n in (lo, hi] with B_n <= 1e-9
    if not (y > 0.0 and log_bound(hi) <= log_target):
        raise CapacityError(
            f"the Fock-trace oracle at omega={omega}, beta={beta} needs more than "
            f"{MAX_TRACE_STEPS} steps a sum to resolve the kernel")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if log_bound(mid) <= log_target else (mid, hi)
    g, h = -math.expm1(-y), -math.expm1(-(hi + 1) * y)
    rounding = _EPS * (18.0 / g + 32.0 + 2.0 * (y if y < m else m)) / omega / g / h / h
    bound = math.exp(log_bound(hi)) + rounding
    if not bound <= 1e-8:
        raise CapacityError(
            f"the Fock-trace oracle cannot resolve the kernel at omega={omega}, beta={beta}: "
            f"its rounding bound {rounding:.3e} leaves no room below 1e-8")
    return hi, bound


def kernel_agreement(sampled: correlation.SampledKernel, k: int, rho: complex) -> CheckResult:
    """Column ``k`` of a sampled kernel of any layout against the Fock-trace
    oracle, at every lag d in (-m, m) of its m-point grid: lags[d][k] at the
    point (d*(beta/m), 0) for d >= 0, and its conjugate, the adjoint the
    export writes, at (0, -d*(beta/m)) for d < 0.  Frequency, twist angle,
    beta and m are the layout's; ``rho`` is the phase the Fock trace is
    taken with, so a twist angle that does not belong to it fails the check.

    At each point the Fock trace at the cutoff :func:`_oracle_cutoff`
    derives must lie within the bound that cutoff certifies, its
    truncation bound plus its rounding bound, which is at most 1e-8 and
    scales with the kernel, so a kernel far below 1e-8 is compared at its
    own size.  The deviation is the worst disagreement.  Where that cutoff
    passes :data:`MAX_TRACE_STEPS`, or the bound passes 1e-8, the check
    raises CapacityError before any sum.  A ``rho`` that is no unit phase
    gives no unitary to take the trace with: the deviation is NaN, and the
    check fails.
    """
    from . import correlation

    omega, beta, m = sampled.omegas[k], sampled.beta, len(sampled.lags)
    cutoff, bound = _oracle_cutoff(omega, beta, m)
    try:
        single_sym = SymmetrySpec(kind=UNITARY, phases=(rho,))
    except ConfigError:
        return CheckResult("kernel", "closed form vs Fock-trace oracle", math.nan, bound)
    single, defects = validate_spectrum([("k", omega)]), []
    for d in range(1 - m, m):
        t, s = (d * (beta / m), 0.0) if d >= 0 else (0.0, -d * (beta / m))
        value = sampled.lags[d][k] if d >= 0 else sampled.lags[-d][k].conjugate()
        oracle = correlation.kernel_oracle(single, single_sym, beta, t, s, cutoff)
        defects.append(_abs(value - oracle))
    return CheckResult("kernel", "closed form vs Fock-trace oracle", _worst(defects), bound)


def _lag_transform(lags: list[complex], theta: float) -> list[float]:
    """Re sum_j v_j e^{-i theta j/m} e^{-2 pi i j n/m} for n = 0..m-1, by
    Horner's rule in z_n = e^{-2 pi i n/m}, taken at the signed index n - m
    for 2n > m so that its angle lies in [-pi, pi]."""
    m = len(lags)
    stripped = [v * cmath.rect(1.0, -theta * j / m) for j, v in enumerate(lags)]
    stripped.reverse()
    out = []
    for n in range(m):
        z = cmath.rect(1.0, -2.0 * math.pi * (n - m if 2 * n > m else n) / m)
        acc = 0j
        for c in stripped:
            acc = acc * z + c
        out.append(acc.real)
    return out


def sampled_kernel_checks(sampled: correlation.SampledKernel) -> list[CheckResult]:
    """The Hermitian and twisted-circulant symmetries of the exported grid,
    its lag values against the closed-form grid spectrum, and the
    positivity of that spectrum, as ``kernel`` checks, for a sampled kernel
    of any layout.  Together the first three pin every exported lag value
    to the inverse transform of the closed-form spectrum at rounding level.

    The grid stores the blocks at lags d >= 0 and takes each block above
    the diagonal as the adjoint of the one below, so it is Hermitian if and
    only if its lag-0 block W diag(v_0) W* is, that is, if every column's
    lag-0 value v_0 is real (W is unitary).  The deviation is
    2 max_k |Im v_0k|, the largest entry of B - B* for B = diag(v_0), at
    1e-10.

    Per eigenmode column with lag values v_0..v_{m-1}, frequency omega and
    twist theta, the grid is twisted-circulant, so that its eigenvalues are
    those of the transform below, only if conj(v_d) = e^{-i theta} v_{m-d}
    for d = 1..m-1: the quasi-periodicity K(beta - tau) = e^{i theta}
    conj K(tau) (R. M. Gray, Toeplitz and Circulant Matrices: A Review,
    2006).  The deviation is the largest |conj(v_d) - e^{-i theta} v_{m-d}|
    relative to max_d |v_d| (1 + omega beta).  The threshold 8 eps is a
    first-order rounding bound for the closed form, which evaluates v_d as
    (p + e^{i theta} q)/(2 omega D) with real p(tau) = q(beta - tau) <= p(0)
    and D the same float at every lag, so D cancels: the sampled times
    d (beta/m) and beta - (m - d)(beta/m) differ by about 2 eps beta, which
    moves p and q, whose slopes are at most (omega + 1/beta) p(0), by about
    2 (1 + omega beta) eps p(0) each; their rounded exponents, below
    omega beta, add omega beta eps / 2 each; exp, expm1, the products and
    the carrier e^{-i theta} add about 3 eps.  That is (7 + 5 omega beta)
    eps of p(0) = 2 omega D v_0 <= 2 omega D max|v|, within 8 (1 + omega
    beta) eps.  Measured: at most 3.1 eps over 3000 correct kernels (omega
    log-uniform in [1e-3, 316], beta in [0.1, 10], m from 2 to 384).

    Per column, the eigenvalues of the twisted-circulant grid those values
    define, Re sum_j v_j e^{-i theta j/m} e^{-2 pi i j n/m}, against
    :meth:`~twistkit.correlation.SampledKernel.spectrum` at the same n.
    The deviation is the largest difference relative to sum_j |v_j|.  The
    threshold 8 (m + 2) eps is a first-order rounding bound (Higham,
    Accuracy and Stability of Numerical Algorithms, 2002, 3.1 and 5.1):
    Horner's rule in complex arithmetic, about 3 m eps, on a z_n rounded by
    up to pi eps in angle, whose powers add up to pi m eps; the carrier
    product and the lag values themselves, a few eps; the closed form, at
    most 16 eps of max lambda <= sum_j |v_j|.

    Positive definiteness is max(0, -min lambda) over the same closed-form
    spectra, to which the sampled kernel is unitarily similar.

    Every deviation is the NaN-aware maximum :func:`_worst` of its defects,
    so a NaN or infinite lag value or eigenvalue gives a NaN or infinite
    deviation and fails its check; it aborts nothing.
    """
    m = len(sampled.lags)
    spectrum = sampled.spectrum()
    transform, circulant = [], []
    for k, (omega, theta) in enumerate(zip(sampled.omegas, sampled.thetas)):
        lags = [row[k] for row in sampled.lags]
        sizes = [_abs(v) for v in lags]
        total = _fsum(sizes) or 1.0
        transform += [abs(value - spectrum[n][k]) / total
                      for n, value in enumerate(_lag_transform(lags, theta))]
        carrier = cmath.rect(1.0, -theta)
        scale = _worst(sizes) * (1.0 + omega * sampled.beta) or 1.0
        circulant += [_abs(lags[d].conjugate() - carrier * lags[m - d]) / scale
                      for d in range(1, m)]
    hermitian = 2.0 * _worst(abs(v.imag) for v in sampled.lags[0])
    negative = _worst([0.0, *(-lam for row in spectrum for lam in row)])
    return [
        CheckResult("kernel", "sampled kernel Hermitian", hermitian, 1e-10),
        CheckResult("kernel", "sampled kernel twisted-circulant", _worst(circulant), 8 * _EPS),
        CheckResult("kernel", "sampled spectrum vs closed form", _worst(transform),
                    8 * (m + 2) * _EPS),
        CheckResult("kernel", "sampled kernel positive definite", negative, 0.0),
    ]


def energy_identity(sampled: correlation.SampledKernel, spectrum: ModeSpectrum,
                    sym: Optional[SymmetrySpec], slot: Optional[int] = None) -> CheckResult:
    """The lag-0 energy identity, a ``kernel`` check that ties the sampled
    kernel to Z with no cutoff: the thermal energy -d/dbeta log Z of the
    twisted trace is the sum of the equal-time pair correlations,

        sum_j omega_j (omega_j Re v_0j - 1/2) = sum_cycles Re[L omega r x^L / (1 - r x^L)],

    over the columns j of the layout (frequency omega_j, lag-0 value v_0j)
    on the left and over the cycles of the slot action on the right, the
    per-cycle terms :func:`twistkit.partition.energy_terms` at the
    layout's beta.  The extended layout has one column per slot, and the
    roots of each cycle's r are its columns' eigenphases.  A scalar layout
    has the one column of a mode whose twist keeps every slot; ``slot``
    names its + slot, 2k, whose 1-cycle it is compared with.  The left side
    is written omega (omega v - 1/2), never omega^2 v - omega/2, so that no
    intermediate overflows where omega^2 does (omega = 1e300).  Grounding:
    the energy equation and the equal-time free-field propagator (J. I.
    Kapusta and C. Gale, Finite-Temperature Field Theory, 2nd ed., 2006,
    ch. 2).

    The threshold 8 eps sum_j t_j / |1 - lambda_j x_j|, with
    t_j = omega_j (omega_j |v_0j| + 1/2), x_j = e^{-beta omega_j} and the
    eigenphase lambda_j = e^{-i theta_j}, is a first-order rounding bound
    that follows the conditioning of 1 - lambda x.  Both sides evaluate
    sum_j omega_j Re[lambda_j x_j / (1 - lambda_j x_j)] (a cycle's r x^L
    is (lambda x)^L for each of its L columns, whose terms sum to the
    cycle's), so each rounding is a perturbation of some lambda_j x_j.  An error delta in the angle a of
    lambda moves its column's term by at most
    delta omega x |sin a| (1 - x^2) / |1 - lambda x|^4, which is at most
    delta / (4 eps) of that column's share 8 eps t_j / |1 - lambda_j x_j|
    (since omega |v_0| = (1 - x^2) / (2 |1 - lambda x|^2)).  The exported
    twist angle theta in [0, 2 pi) is rounded by up to about 3 eps near
    2 pi (half an ulp there, and float(2 pi)'s own 1.1 eps), so this term
    takes at most 0.78 of the threshold.  The other roundings are
    relative: the closed form's v_0j = (1 - x^2)/(2 omega D) and the left
    side's products and difference, a few eps of t_j, and the right
    side's 1 - r x^L, taken by :func:`~twistkit.partition._one_minus`
    without cancellation, a few eps of itself; where the angle term is
    large, |1 - lambda x| is small and these are far below the share.
    Measured: at most 0.77 of the threshold on a scalar layout and 0.54
    on an extended one over 220000 random configs (up to 4 modes, either
    kind, omega log-uniform in [1e-4, 1e3], beta in [1e-2, 1e2], half the
    phases within 1e-3 of 1).

    The identity is computed relative to its largest term, T, the largest
    t_j or |right-side term|, rounded up to a power of two so that the
    scaling is exact: no sum and no threshold overflows where a term does
    not, and the deviation |left - right| and the threshold are reported
    as the same floats an unscaled sum gives.  Where the relative
    threshold reaches 1, the threshold is not below the largest term, and
    the identity cannot resolve the layout: CapacityError, before any
    other check is reported, as the oracle refuses a kernel it cannot
    resolve.  A NaN lag value gives a NaN deviation, and an infinite one an
    infinite threshold, which is read as NaN, so that either fails the
    check.
    """
    terms = partition.energy_terms(spectrum, sym, sampled.beta)
    terms = terms if slot is None else [terms[slot]]
    columns = list(zip(sampled.omegas, sampled.thetas, sampled.lags[0]))
    sizes = [w * (w * _abs(v) + 0.5) for w, _, v in columns]  # t_j
    scale = math.ldexp(1.0, math.frexp(_worst([*sizes, *map(abs, terms)]))[1])
    energy = _fsum(w / scale * (w * v.real - 0.5) for w, _, v in columns)
    slack = _fsum(8 * _EPS * t / scale / abs(_one_minus(sampled.beta * w, -theta))
                  for t, (w, theta, _) in zip(sizes, columns))
    if 1.0 <= slack < math.inf:
        raise CapacityError(
            f"the lag-0 energy identity cannot resolve the kernel at beta={sampled.beta}: "
            "its rounding bound reaches its largest term")
    deviation = abs(energy - _fsum(t / scale for t in terms)) * scale
    return CheckResult("kernel", "lag-0 energy vs partition function", deviation,
                       slack * scale if slack < math.inf else math.nan)


def kernel_checks(sampled: correlation.SampledKernel, spectrum: ModeSpectrum,
                  sym: Optional[SymmetrySpec], ext: Optional[realfield.ExtendedSpectrum] = None,
                  slot: Optional[int] = None) -> list[CheckResult]:
    """Every ``kernel`` check of one sampled layout, in order: the Fock-trace
    oracle on the layout's oracle column (:func:`kernel_agreement`), the
    blocks against the covering-circle kernel where the layout is extended
    (:func:`block_agreement`), :func:`sampled_kernel_checks` and
    :func:`energy_identity`.

    The extended layout of ``ext`` has its oracle column at M, mode 0's +
    slot, whose phase ``ext.phases[M]`` is rho_0 for a diagonal action.  A
    scalar layout (``ext=None``) is the one column of the mode whose + slot
    is ``slot``, read with that slot's phase.

    The oracle and the block check run after :func:`sampled_kernel_checks`
    and :func:`energy_identity`, so a layout whose closed-form spectrum is
    beyond the float range is refused as such (RangeError) before the
    oracle can refuse it for want of a cutoff (CapacityError), and an
    identity that cannot resolve the layout is refused before either."""
    checks = [*sampled_kernel_checks(sampled), energy_identity(sampled, spectrum, sym, slot)]
    if ext is None:
        return [kernel_agreement(sampled, 0, slot_action(spectrum, sym).phases[slot]), *checks]
    k = len(spectrum)
    return [kernel_agreement(sampled, k, ext.phases[k]), block_agreement(ext, sampled), *checks]


def _kernel(spectrum: ModeSpectrum, sym: Optional[SymmetrySpec], seed: int) -> list[CheckResult]:
    from . import realfield

    ext = realfield.extend(spectrum, sym)
    sampled = realfield.sample_extended_kernel(ext, 1.0, 32)  # beta = 1, m = 32
    return kernel_checks(sampled, spectrum, sym, ext)


def block_agreement(ext: realfield.ExtendedSpectrum,
                    sampled: correlation.SampledKernel) -> CheckResult:
    """Every entry of the extended layout's blocks, the values the exporter
    writes (:meth:`~twistkit.correlation.SampledKernel.blocks`), against the
    kernel on the L-fold covering circle: one ``kernel`` check that needs no
    eigenbasis, no root r^{1/L} and no inverse, and holds for any slot
    permutation.

    U e_{c_j} = u_j e_{c_{j+1}} is walked from ``ext.images``, from each
    column c = c_0 round its cycle (length L, phase product r, frequency
    omega).  The layout is the image sum sum_n U^n g(tau + n beta), with
    g(tau) = e^{-omega |tau|}/(2 omega), and U^n takes e_{c_j} to c_{j+k}
    only for n = k + p L, with the factor u_j...u_{j+k-1} r^p.  So the
    entry (c_{j+k}, c_j) at lag d is u_j...u_{j+k-1} K(d beta/m + k beta),
    with K the kernel of frequency omega, period L beta and the twist angle
    of r (:func:`~twistkit.correlation.kernel_twist_angle`).  It is sampled
    by the exporter's own route, :func:`~twistkit.correlation.sample_kernels`,
    on the L m-point grid of the covering circle, whose lag d + k m is that
    point.  Every entry between two cycles must be 0.  The deviation is the
    largest |entry - reference|, relative to the largest value of the
    covering-circle kernels, the largest reference entry to within eta.

    The threshold is the largest, over the columns, of
    L (144 eps / |1 - lambda x| + 4 eps min(y, m) + 3 eta), with
    y = beta omega, lambda x = e^{-i theta} e^{-y} for the column's twist
    angle theta, and eta = max_c ||u_c| - 1|.  It follows the worst
    column's conditioning, as :func:`energy_identity` does.  A 1-cycle's
    reference is its own column, bit for bit.  For L >= 2 the threshold
    is a first-order rounding bound relative to the cycle's lag-0 diagonal
    entry V = (1/L) sum_q v_q(0), which is at most the largest entry.
    Counted in eps:
    - Every closed-form value, on either side, is within 10 of 2 v(0), the
      bound of its terms p + q: 20 V a side.  The mixing's coefficients
      take L - 1 steps u a / lambda, of 3.5 each.  With the products, the
      sum and the phase error of lambda^{-k}, the mixing is within
      22 L - 8 of V.  That is (32 + 22 L) V in all, and
      1 <= 2 / |1 - lambda x|.
    - |dK/dtheta| <= 6 v(0) / |1 - lambda x| at every lag, because the two
      terms of the closed form cancel as x -> 1 (at most 2 measured at 40
      digits).  Each column's twist angle is within 10, and the
      reference's, after L - 1 products, within 5 + 1.5 L.  For L = 2,
      |1 - r x^2| >= min_q |1 - lambda_q x|, since the other factor,
      |1 + lambda x|, is at least 1.  That is (90 + 9 L) V / |1 - lambda x|,
      and the two items sum to at most 144 L V / |1 - lambda x|.
    - The rounded times move the exponent of e^{-omega (L beta - t)} by up
      to 2 omega L beta, where its value is below e^{-y/m}:
      4 L min(y, m) V.
    - A phase off unit modulus moves the modulus of an entry, not its
      twist.  The coefficients carry |a_{j+k}| |a_j| where the reference
      carries |u_j...u_{j+k-1}|, and these differ by at most
      3 sum_cycle ||u| - 1| <= 3 L eta, relative.
    Measured: at most 0.04 of the threshold over 1500 random layouts, at
    most 0.11 over 1000 more with every phase off unit modulus by up to
    0.99e-14, and 0.034 at m = 2048 with y near m.  The layouts had both
    kinds and slot cycles of length 1 to 12, omega log-uniform over
    [1e-2, 1e2], beta omega log-uniform over [1e-3, 2e3] at the largest or
    the smallest omega, m from 2 to 64, and half the phases within 1e-3
    of 1.
    A NaN or infinite entry on either side gives a NaN deviation, which
    fails the check.
    """
    from . import correlation

    beta, m, n, got = sampled.beta, len(sampled.lags), len(sampled.thetas), sampled.blocks()
    slack, top, eta = [], [], _worst(abs(abs(u) - 1.0) for _, u in ext.images.values()) / _EPS
    for c, (omega, theta) in enumerate(zip(ext.doubled_omegas(), sampled.thetas)):
        walk = [(c, 1.0)]  # (c_k, u_0...u_{k-1}) round the cycle of c_0 = c
        # an index with no image, or a walk that does not close within n
        # steps, ends it with a wrong factor, so the check fails, not raises
        while (step := ext.images.get(walk[-1][0], (c, 0j)))[0] != c and len(walk) < n:
            walk.append((step[0], walk[-1][1] * step[1]))
        y, size = beta * omega, len(walk)
        twist = correlation.kernel_twist_angle(walk[-1][1] * step[1])  # of r = u_0...u_{L-1}
        cover = correlation.sample_kernels(size * beta, [omega], [twist], size * m).lags
        for j, (v,) in enumerate(cover):  # entry (c_k, c) at lag d, for j = d + k m
            got[j % m][walk[j // m][0] * n + c] -= walk[j // m][1] * v
        top.append(_worst(_abs(v) for v, in cover))
        slack.append(size * (144 / abs(_one_minus(y, -theta)) + 4 * (y if y < m else m) + 3 * eta))
    deviation = _worst(_abs(z) for block in got for z in block) / (_worst(top) or 1.0)
    return CheckResult("kernel", "exported blocks vs covering-circle kernel", deviation,
                       _EPS * _worst(slack))


def _realfield(spectrum: ModeSpectrum, sym: Optional[SymmetrySpec], seed: int) -> list[CheckResult]:
    from . import realfield

    phases = realfield.extend(spectrum, sym).phases
    # each phase's conjugate against its nearest phase: a NaN-aware min, -max(-d)
    conj_defect = _worst(-_worst(-abs(q - p.conjugate()) for q in phases) for p in phases)
    return [
        CheckResult("realfield", "induced eigenphases closed under conjugation", conj_defect, 1e-10),
        *_dense("realfield", spectrum, sym, seed),
    ]


#: Each suite's body, in the order ``all`` runs them.
_SUITES: dict[str, Callable] = {
    "ccr": partial(_dense, "ccr"),
    "tc": partial(_dense, "tc"),
    "symmetry": partial(_dense, "symmetry"),
    "partition": _partition,
    "kernel": _kernel,
    "realfield": _realfield,
}
SUITES = (*_SUITES, "all")


def run_suite(
    name: str, spectrum: ModeSpectrum, sym: Optional[SymmetrySpec], seed: int = 0
) -> list[CheckResult]:
    """Run one named suite, or every suite in table order for 'all', on any
    config; ``sym=None`` is the unitary identity."""
    if name not in SUITES:
        raise ConfigError(f"unknown suite {name!r}; choose from {SUITES}")
    _require_count(seed, 0, "seed")
    if name != "all":
        return _SUITES[name](spectrum, sym, seed)
    return [check for body in _SUITES.values() for check in body(spectrum, sym, seed)]
