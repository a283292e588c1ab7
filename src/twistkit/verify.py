"""Named verification suites over a (spectrum, symmetry) configuration.

:func:`run_suite` is the one entry to the suites.  One ordered table maps
each name of :data:`SUITES` to its body.  The ``symmetry`` and
``realfield`` suites need a symmetry: an explicit run of one on a config
without it raises ConfigError, and ``all`` skips it and runs the others in
table order: ccr, tc, symmetry, partition, kernel, realfield.  Every other
suite runs on every action.

Each suite runs a fixed list of checks and returns structured results;
the CLI renders them and sets the exit code.  The ``partition`` suite is
:func:`partition_row` at beta = 1 and :data:`PARTITION_CUTOFF`, and the
``partition`` subcommand renders that function on each of its rows, so
both run one check list.  ``kernel --verify`` renders
:func:`kernel_agreement`, :func:`eigenbasis_checks` and
:func:`sampled_kernel_checks`, some of the checks the ``kernel`` suite
runs: never the resolvent residual, whose bound holds on the suite's grid
only (ROADMAP item 11), and on the extended route no oracle, which must
first refuse the frequencies it cannot resolve (item 13).  The ``kernel``
suite is the one suite that checks a sampled kernel.  It samples one layout, the
one that ``kernel --extended`` exports, on a 32-point grid with one column
per doubled eigenmode, for every action (the identity included), and every
one of its checks reads that layout.  It checks it through the
closed-form spectra of its twisted-circulant eigenmode grids, never a
dense grid: positivity reads the closed form, a pure-Python transform of
the exported lag values ties them to it, every column's lag-0 value must
be real, which makes the whole grid Hermitian, every column's lags must be
twisted-circulant, so that the closed form is the grid's spectrum, and the
exported eigenbasis must diagonalize the induced unitary.  Its oracle and
resolvent checks read column M, mode 0's + slot, whose phase is rho_0 for
a diagonal action; the resolvent check reads the eigenmode residual of
that column from one sum of its lag values, and it is two-sided: the
residual must match its closed form, not merely stay below it.  The
``realfield`` suite checks the doubled theory only: its eigenphases and
the doubled-field oracle.

The oracles of the partition function live here, beside their one caller,
so no closed-form module reaches them: the truncated trace
:func:`partition_trace` with its tail bounds :func:`truncation_tail_bound`
and :func:`twisted_tail_bound`, read by :func:`partition_row` (at
:data:`PARTITION_CUTOFF` in the ``partition`` suite and by default in the
``partition`` subcommand, and capped at :data:`MAX_TRACE_STEPS` Horner
steps a trace), and the doubled-theory route :func:`z_via_realfield`,
which :func:`partition_row` runs for a twist that moves slots: its route
check compares the complex product with the closed form, so a non-real
value fails that check.

The ``ccr``, ``tc`` and ``symmetry`` suites and the doubled-field checks
of ``realfield`` act with the matrix-free Fock oracle, once per factor of
the space and once more across the first two factors; their checks live
beside it in :mod:`twistkit.fock`, which one runner here, keyed by suite
name, imports only when one of them runs.  This module imports neither
numpy nor :mod:`twistkit.fock` at module level, so :class:`CheckResult`,
:data:`SUITES`, :func:`run_suite`, :func:`partition_row`, the ``kernel``
and ``partition`` suites (the latter's doubled-theory route, which loads
:mod:`twistkit.realfield` but not :mod:`twistkit.correlation`, included)
and the checks of any sampled kernel
(``kernel --verify`` on either route) run on ``math`` alone, and a job
that runs none of the dense suites never compiles their source.

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
oracle at every one of its 2m - 1 lags: scalar ``kernel --verify`` on the
grid it exports, and the ``kernel`` suite on column M of its layout.  No
Fourier partial sum is needed beside it:
the Hermitian, twisted-circulant and transform checks already tie every
lag value to the inverse transform of the full aliasing sums, the
closed-form grid spectrum, at rounding level.  This module evaluates no
closed form itself: the ``kernel`` suite builds its sampled kernels with
:func:`twistkit.realfield.sample_extended_kernel` and
:func:`twistkit.correlation.sample_kernels`, the routes the CLI exports,
and reads its spectra from :meth:`~twistkit.correlation.SampledKernel.spectrum`.
Only the dense suites read the seed, which draws their Fock-oracle states.
"""

from __future__ import annotations

import cmath
import math
import sys
from functools import partial

from . import partition
from .errors import CapacityError, ConfigError, RangeError
from .partition import _log_abs2_one_minus, _require_beta, _require_count
from .spectrum import UNITARY, ModeSpectrum, SymmetrySpec, slot_action, validate_spectrum

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Callable, Iterable, Optional

    from . import correlation, realfield
    from .realfield import ExtendedSpectrum

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

#: The most Horner steps one truncated partition trace takes, cutoff + 1 per
#: cycle of the slot action.  A step took about 0.13 us on a 2-core x86-64
#: machine (Python 3.11), so a trace at the cap takes about 1.3 s; a larger
#: one is refused (CapacityError) before any sum.
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
    by term.  Equality with the basis sum and a dense trace is asserted in
    the tests.  CapacityError where (cutoff + 1) times the number of
    cycles exceeds :data:`MAX_TRACE_STEPS`, before the first step.
    """
    _require_beta(beta)
    _require_count(cutoff, 0, "occupation cutoff")
    cycles = slot_action(spectrum, sym).cycles
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
    plus 1e-10), for every twist the positivity lower bound, which holds
    cycle by cycle, and for a twist that moves slots the square-root route
    against the doubled-theory route :func:`z_via_realfield`, relative, at
    1e-10.  The twisted check is named "unitary product formula" for a
    diagonal slot action, "antiunitary square-root identity" otherwise.
    These are the checks of the ``partition`` suite, which is this row at
    beta = 1 and :data:`PARTITION_CUTOFF`, and of the ``partition``
    subcommand on each of its rows.
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
        twisted_tail = twisted_tail_bound(spectrum, beta, cutoff)
        routes.append((name, z, trace, twisted_tail + 1e-10))
    checks = [
        CheckResult("partition", f"{name} vs truncated trace", abs(value - oracle) / value, threshold)
        for name, value, oracle, threshold in routes
    ]
    rel = checks[-1].deviation
    if sym is not None:
        positivity = _worst((0.0, bound - z))
        checks.append(CheckResult("partition", "twist positivity lower bound", positivity, 1e-14 * z))
        if not diagonal:
            from . import realfield

            z_rf = z_via_realfield(realfield.extend(spectrum, sym), beta)
            checks.append(CheckResult("partition", "square-root route vs doubled-theory route",
                                      abs(z - z_rf) / abs(z), 1e-10))
    return (beta, z_plain, z, bound, trace.real, rel, tail), checks


def z_via_realfield(ext: ExtendedSpectrum, beta: float) -> complex:
    """Partition function through the doubled-theory product formula.

    One factor (1 - lambda_j e^{-beta omega_j})^{-1} per doubled mode.
    Each eigenphase is read as the unit phase lambda = e^{i phi}, as
    :func:`twistkit.partition.z_twisted` reads the slot phases, and with
    x = e^{-beta omega} the denominator is taken as
    -expm1(-beta omega) + 2 x sin^2(phi/2) - i x sin(phi), in which nothing
    cancels: at small beta omega neither a phase's rounded modulus nor the
    rounding of x moves the product.
    For a unitary input the eigenphases are {conj(rho_k), rho_k} and this
    reproduces the |1 - rho e^{-beta omega}|^{-2} product; for an
    antiunitary input it is an independent route to the square-root
    formula.  The product is returned as it is, complex: it is real only
    if the eigenphases are closed under conjugation, and the route check
    of :func:`partition_row` reads its imaginary part as a deviation.
    """
    _require_beta(beta)
    z = 1.0 + 0.0j
    for w, lam in zip(ext.doubled_omegas(), ext.phases):
        x, phi = math.exp(-beta * w), cmath.phase(lam)
        z /= complex(2.0 * x * math.sin(0.5 * phi) ** 2 - math.expm1(-beta * w), -x * math.sin(phi))
    if z == 0.0 or not cmath.isfinite(z):
        raise RangeError(f"real-field partition value {z} is outside the float range")
    return z


def _partition(spectrum: ModeSpectrum, sym: Optional[SymmetrySpec], seed: int) -> list[CheckResult]:
    return partition_row(spectrum, sym, 1.0, PARTITION_CUTOFF)[1]


def kernel_agreement(sampled: correlation.SampledKernel, k: int, rho: complex) -> CheckResult:
    """Column ``k`` of a sampled kernel of any layout against the Fock-trace
    oracle, at every lag d in (-m, m) of its m-point grid: lags[d][k] at the
    point (d*(beta/m), 0) for d >= 0, and its conjugate, the adjoint the
    export writes, at (0, -d*(beta/m)) for d < 0.  Frequency, twist angle,
    beta and m are the layout's; ``rho`` is the phase the Fock trace is
    taken with, so a twist angle that does not belong to it fails the check.

    At each point the Fock trace at cutoff 800 must lie within its tail
    bound + 1e-8; the deviation is the worst disagreement.
    """
    from . import correlation

    omega, beta, m = sampled.omegas[k], sampled.beta, len(sampled.lags)
    single = validate_spectrum([("k", omega)])
    single_sym = SymmetrySpec(kind=UNITARY, phases=(rho,))
    cutoff = 800
    defects = []
    for d in range(1 - m, m):
        t, s = (d * (beta / m), 0.0) if d >= 0 else (0.0, -d * (beta / m))
        value = sampled.lags[d][k] if d >= 0 else sampled.lags[-d][k].conjugate()
        oracle = correlation.kernel_oracle(single, single_sym, beta, t, s, cutoff)
        defects.append(_abs(value - oracle))
    tail = truncation_tail_bound(single, beta, cutoff)
    return CheckResult("kernel", "closed form vs Fock-trace oracle", _worst(defects), tail + 1e-8)


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


def _kernel(spectrum: ModeSpectrum, sym: Optional[SymmetrySpec], seed: int) -> list[CheckResult]:
    from . import realfield

    beta, m = 1.0, 32
    ext = realfield.extend(spectrum, sym)
    sampled = realfield.sample_extended_kernel(ext, beta, m)
    # column M is mode 0's + slot, with the phase rho_0 of a diagonal action;
    # the oracle and the resolvent read it
    k = len(spectrum)
    theta = sampled.thetas[k]
    results = [kernel_agreement(sampled, k, ext.phases[k])]
    results += eigenbasis_checks(ext, sampled) + sampled_kernel_checks(sampled)
    # On the eigenmode e^{i nu t}, nu = theta/beta, the quadrature residual of
    # the resolvent is exactly |h lambda_hat_0 (nu^2 + omega^2) - 1|, h = beta/m,
    # with lambda_hat_0 = Re sum_j v_j e^{-i theta j/m} over the lag values.
    # Aliasing only adds positive terms, so a correct kernel has h lambda_0
    # (nu^2 + omega^2) > 1 (lambda_0 from the closed form), and the residual's
    # distance from its closed form is h (nu^2 + omega^2) |lambda_hat_0 -
    # lambda_0|; that distance also fails the mirror scale, whose residual
    # flips sign.  Its bound is 16 eps h max lambda (nu^2 + omega^2), which
    # covers the rounding of the lag values (chiefly their sampled times), the
    # sum and the closed form: over 15000 correct kernels at this (m, beta),
    # omega in [1e-3, 1e3] and theta uniform, the distance stayed below 0.26
    # of it.  The factor h (nu^2 + omega^2) divides both sides, so the check
    # compares |lambda_hat_0 - lambda_0| with 16 eps max lambda, and omega^2
    # never has to be a float.
    lam_hat = _fsum(
        (row[k] * cmath.rect(1.0, -theta * j / m)).real for j, row in enumerate(sampled.lags))
    lam = [row[k] for row in sampled.spectrum()]
    results.append(
        CheckResult(
            "kernel",
            "resolvent residual on twisted eigenmode",
            abs(lam_hat - lam[0]),
            16 * _EPS * _worst(lam),
        )
    )
    return results


def eigenbasis_checks(
    ext: realfield.ExtendedSpectrum, sampled: correlation.SampledKernel
) -> list[CheckResult]:
    """U W = W Lambda and W* W = I on each block (indices, columns) of the
    exported basis ``sampled.basis``, with lambda_c = e^{-i theta_c} from
    ``sampled.thetas`` and U e_b = u_b e_sigma(b) from ``ext.images``: the
    largest |U w - lambda w| entry per column and |W* W - I| entry per block,
    at 1e-12, far above an L-term rounding and far below a wrong coefficient.
    A column in no block or in two adds 1.0 to W* W = I, the |<w, w> - 1|
    of a missing column, so a basis that misses columns cannot pass.  Both
    are ``kernel`` checks, of the layout the ``kernel`` suite and ``kernel
    --extended --verify`` read."""
    eigenpairs, gram = [], []
    blocks_of = [0] * len(sampled.thetas)
    for indices, columns in sampled.basis:
        for c, w in zip(indices, columns):
            blocks_of[c] += 1
            lam = cmath.rect(1.0, -sampled.thetas[c])
            residual = {b: -lam * w_b for b, w_b in zip(indices, w)}  # U w may leave the block
            for b, w_b in zip(indices, w):
                target, u = ext.images[b]
                residual[target] = residual.get(target, 0j) + u * w_b
            eigenpairs += map(abs, residual.values())
            gram += [abs(sum([a.conjugate() * b for a, b in zip(w, x)], 0j) - (x is w))
                     for x in columns]  # <w, x> - delta
    gram += [1.0 for count in blocks_of if count != 1]
    return [CheckResult("kernel", "U W = W Lambda", _worst(eigenpairs), 1e-12),
            CheckResult("kernel", "W* W = I", _worst(gram), 1e-12)]


def _realfield(spectrum: ModeSpectrum, sym: SymmetrySpec, seed: int) -> list[CheckResult]:
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


#: The suites that need a symmetry in the config.
_NEED_SYMMETRY = ("symmetry", "realfield")


def run_suite(
    name: str, spectrum: ModeSpectrum, sym: Optional[SymmetrySpec], seed: int = 0
) -> list[CheckResult]:
    """Run one named suite, or every suite that applies, in table order, for
    'all'.  The ``symmetry`` and ``realfield`` suites need a symmetry: an
    explicit run of one on a config without it raises ConfigError, and 'all'
    skips it."""
    if name not in SUITES:
        raise ConfigError(f"unknown suite {name!r}; choose from {SUITES}")
    _require_count(seed, 0, "seed")
    if sym is None and name in _NEED_SYMMETRY:
        raise ConfigError(f"{name} suite requires a symmetry in the config")
    if name != "all":
        return _SUITES[name](spectrum, sym, seed)
    return [check for n, body in _SUITES.items() if sym is not None or n not in _NEED_SYMMETRY
            for check in body(spectrum, sym, seed)]
