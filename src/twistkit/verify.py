"""Named verification suites over a (spectrum, symmetry) configuration.

Each suite runs a fixed list of checks and returns structured results;
the CLI renders them and sets the exit code; ``partition`` and ``kernel
--verify`` render :func:`partition_row`, :func:`kernel_agreement` and
:func:`sampled_kernel_checks`, the checks the ``partition``, ``kernel``
and ``realfield`` suites run.  Sampled kernels are checked through the
closed-form spectra of their twisted-circulant eigenmode grids, never a
dense grid: positivity reads the closed form (an empty layout is
vacuously positive), and a pure-Python transform of the exported lag
values ties them to it.  The ``realfield`` suite reads its sector-mixing
blocks and its eigenbasis (:func:`eigenbasis_checks`) from the same
layout.  The ``kernel`` suite's resolvent check reads the eigenmode
residual of the 128-point grid from one sum of its lag values, and it is
two-sided: the residual must match its closed form, not merely stay below
it.

The oracles of the partition function live here, beside their one caller,
so no closed-form module reaches them: the truncated trace
:func:`partition_trace` with its tail bounds :func:`truncation_tail_bound`
and :func:`twisted_tail_bound`, read by :func:`partition_row` (at
:data:`PARTITION_CUTOFF` in the ``partition`` suite and by default in the
``partition`` subcommand), and the doubled-theory route
:func:`z_via_realfield` of the ``partition`` suite, whose realness guard
raises InternalConsistencyError (exit 5).

The ``ccr``, ``tc`` and ``symmetry`` suites and the doubled-field checks
of ``realfield`` act with the matrix-free Fock oracle, once per factor of
the space and once more across the first two factors; their checks live
in :mod:`twistkit.fock_suites`, which the ``suite_*`` entry points here
import only when one of them runs.  This module imports neither numpy nor
:mod:`twistkit.fock`, so :class:`CheckResult`, :data:`SUITES`,
:func:`run_suite`, :func:`partition_row`, the ``kernel`` and ``partition``
suites (the latter's doubled-theory route on a non-diagonal action
included) and the sampled kernel checks of any sampled kernel (``kernel
--extended --verify``) run on ``math`` alone, and a job that runs none of
the dense suites never compiles their source.

Routes and checks choose their path from the symmetry's
:class:`~twistkit.spectrum.SlotAction`, not its kind (the scalar kernel
needs a diagonal one), except the ``symmetry`` suite: its rules, read from
the raw phases and pairing, are what the normal form is checked against.

The oracle checks of the closed form, :func:`kernel_agreement`, take a
frequency and the symmetry phase rho, derive the twist angle from rho, and
compare at integer lags of a grid, where the Fourier partial sum is one
fold per kernel: ``kernel --verify`` at all 2m - 1 lags of its
m = min(grid, 8) grid, and the ``kernel`` suite at 20 lags of its
128-point grid drawn from ``random.Random(seed)``.  The suites build
their sampled kernels with :func:`twistkit.correlation.sample_kernels`,
the route the CLI exports.
"""

from __future__ import annotations

import cmath
import math
import sys

from . import partition
from .errors import ConfigError, DomainError, InternalConsistencyError, KindError, RangeError
from .partition import _log_abs2_one_minus, _require_beta, _require_count
from .spectrum import UNITARY, ModeSpectrum, SymmetrySpec, slot_action, validate_spectrum

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Callable, Iterable, Optional

    from . import correlation, realfield
    from .realfield import ExtendedSpectrum

#: Machine epsilon, 2^-52.
_EPS = sys.float_info.epsilon

SUITES = ("ccr", "tc", "symmetry", "partition", "kernel", "realfield", "all")


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


def suite_ccr(spectrum: ModeSpectrum, sym, seed: int = 0) -> list[CheckResult]:
    from . import fock_suites

    return fock_suites._factored(fock_suites._ccr_checks, spectrum, sym, seed)


def suite_tc(spectrum: ModeSpectrum, sym: Optional[SymmetrySpec], seed: int = 0) -> list[CheckResult]:
    from . import fock_suites

    return fock_suites._factored(fock_suites._tc_checks, spectrum, sym, seed)


def suite_symmetry(
    spectrum: ModeSpectrum, sym: Optional[SymmetrySpec], seed: int = 0
) -> list[CheckResult]:
    if sym is None:
        raise ConfigError("symmetry suite requires a symmetry in the config")
    from . import fock_suites

    return fock_suites._factored(fock_suites._symmetry_checks, spectrum, sym, seed)


#: Occupation cutoff of the truncated partition traces: the ``partition``
#: subcommand's default and the ``partition`` suite's.
PARTITION_CUTOFF = 40


def truncation_tail_bound(spectrum: ModeSpectrum, beta: float, cutoff: int) -> float:
    """Relative error of the occupation-truncated untwisted trace.

    The truncated trace is Z prod_k (1 - exp(-beta*omega_k*(N+1)))**2, so
    its relative error is 1 minus that product, +0.0 (never -0.0) where
    nothing is dropped.  Twisted traces need :func:`twisted_tail_bound`.
    """
    _require_beta(beta)
    _require_count(cutoff, 0, "occupation cutoff")
    log_keep = sum(_log_abs2_one_minus(beta * w * (cutoff + 1), 1.0 + 0.0j) for w in spectrum.omegas)
    return 0.0 - math.expm1(log_keep)


def twisted_tail_bound(spectrum: ModeSpectrum, beta: float, cutoff: int) -> float:
    """Relative-error bound for the occupation-truncated trace of any twist.

    The truncated trace is Z prod_cycles (1 - (r x^L)^{N+1}), and a cycle
    of length L has |r x^L|^{N+1} <= x^{N+1} for each of its L slots, so
    the trace lies within prod_k (1 + exp(-beta*omega_k*(N+1)))**2 - 1 of
    Z, relative.  A phase r^{N+1} = -1 reaches it.
    """
    _require_beta(beta)
    _require_count(cutoff, 0, "occupation cutoff")
    return math.expm1(2.0 * sum(math.log1p(math.exp(-beta * w * (cutoff + 1))) for w in spectrum.omegas))


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
    the tests.
    """
    _require_beta(beta)
    _require_count(cutoff, 0, "occupation cutoff")
    total = 1.0 + 0.0j
    for first, length, r in slot_action(spectrum, sym).cycles:
        x = math.exp(-length * beta * spectrum.omegas[first // 2])
        total *= _truncated_geometric(r * x, cutoff)
    return complex(total)


def partition_row(
    spectrum: ModeSpectrum, sym: Optional[SymmetrySpec], beta: float, cutoff: int
) -> tuple[tuple[float, ...], list[CheckResult]]:
    """One partition table row and the checks on it.

    Columns: beta, z_untwisted, z_twisted, lower_bound, oracle_z, rel_err,
    tail_bound (the untwisted one).  Checks: each closed-form Z against its
    truncated trace at ``cutoff`` (compared as complex numbers, within the
    route's tail bound plus 1e-10), and for every twist the positivity
    lower bound, which holds cycle by cycle.  The twisted check is named
    "unitary product formula" for a diagonal slot action, "antiunitary
    square-root identity" otherwise.
    """
    z = z_plain = partition.z_untwisted(spectrum, beta)
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
        positivity = max(0.0, bound - z)
        checks.append(CheckResult("partition", "twist positivity lower bound", positivity, 1e-14 * z))
    return (beta, z_plain, z, bound, trace.real, rel, tail), checks


def z_via_realfield(ext: ExtendedSpectrum, beta: float) -> float:
    """Partition function through the doubled-theory product formula.

    One factor (1 - lambda_j e^{-beta omega_j})^{-1} per doubled mode.
    For a unitary input the eigenphases are {conj(rho_k), rho_k} and this
    reproduces the |1 - rho e^{-beta omega}|^{-2} product; for an
    antiunitary input it is an independent route to the square-root
    formula.
    """
    _require_beta(beta)
    z = 1.0 + 0.0j
    for w, lam in zip(ext.doubled_omegas(), ext.phases):
        z /= 1.0 - lam * math.exp(-beta * w)
    if z == 0.0 or not cmath.isfinite(z):
        raise RangeError(f"real-field partition value {z} is outside the float range")
    if abs(z) > 0.0 and abs(z.imag) > 1e-10 * abs(z):
        raise InternalConsistencyError(
            f"real-field partition value {z} is not real; "
            "eigenphases are not conjugation-closed"
        )
    return z.real


def suite_partition(
    spectrum: ModeSpectrum, sym: Optional[SymmetrySpec], seed: int = 0
) -> list[CheckResult]:
    beta = 1.0
    columns, results = partition_row(spectrum, sym, beta, cutoff=PARTITION_CUTOFF)
    z = columns[2]
    if not slot_action(spectrum, sym).diagonal:
        from . import realfield

        ext = realfield.extend(spectrum, sym)
        z_rf = z_via_realfield(ext, beta)
        results.append(
            CheckResult(
                "partition",
                "square-root route vs doubled-theory route",
                abs(z - z_rf) / abs(z),
                1e-10,
            )
        )
    return results


def kernel_agreement(
    omega: float, rho: complex, beta: float, m: int, lags: Iterable[int]
) -> tuple[float, list[CheckResult]]:
    """The closed-form kernel of frequency ``omega`` and phase ``rho``
    against both oracles, at integer lags d in (-m, m) of the m-point grid:
    the point (d*(beta/m), 0) for d >= 0 and (0, -d*(beta/m)) for d < 0,
    the times the export samples.  Its twist angle is read from ``rho``
    (:func:`~twistkit.correlation.kernel_twist_angle`), the phase the Fock
    trace is taken with, so the two cannot disagree.

    At each point: the Fock trace at cutoff 800 (within its tail bound +
    1e-8) and the 4000-term Fourier sum (within its tail bound), which
    :func:`~twistkit.correlation.kernel_fourier` gives at every lag of the
    grid at once.  Also returns the worst disagreement the truncations do
    not explain: the largest Fock deviation or Fourier excess over its tail
    bound.
    """
    from . import correlation

    theta = correlation.kernel_twist_angle(rho)
    single = validate_spectrum([("k", omega)])
    single_sym = SymmetrySpec(kind=UNITARY, phases=(rho,))
    cutoff = 800
    fourier, fourier_tail = correlation.kernel_fourier(omega, theta, beta, m, 4000)
    worst_oracle = worst_fourier = 0.0
    for d in lags:
        _require_count(d, 1 - m, "lag")
        t, s = (d * (beta / m), 0.0) if d >= 0 else (0.0, -d * (beta / m))
        closed = correlation.kernel_closed_form(omega, theta, beta, t, s)
        oracle = correlation.kernel_oracle(single, single_sym, beta, t, s, cutoff)
        worst_oracle = max(worst_oracle, abs(closed - oracle))
        worst_fourier = max(worst_fourier, abs(closed - fourier[d]))
    tail = truncation_tail_bound(single, beta, cutoff)
    checks = [
        CheckResult("kernel", "closed form vs Fock-trace oracle", worst_oracle, tail + 1e-8),
        CheckResult("kernel", "closed form vs Fourier partial sum", worst_fourier, fourier_tail),
    ]
    return max(worst_oracle, worst_fourier - fourier_tail), checks


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
    """The exported lag values against the closed-form grid spectrum, and
    the positivity of that spectrum, in the ``kernel`` suite for a scalar
    kernel and the ``realfield`` suite otherwise.

    Per eigenmode column with lag values v_0..v_{m-1} and twist theta, the
    eigenvalues of the twisted-circulant grid those values define, Re sum_j
    v_j e^{-i theta j/m} e^{-2 pi i j n/m}, against
    :meth:`~twistkit.correlation.SampledKernel.spectrum` at the same n.
    The deviation is the largest difference relative to sum_j |v_j|.  The
    threshold 8 (m + 2) eps is a first-order rounding bound (Higham,
    Accuracy and Stability of Numerical Algorithms, 2002, 3.1 and 5.1):
    Horner's rule in complex arithmetic, about 3 m eps, on a z_n rounded by
    up to pi eps in angle, whose powers add up to pi m eps; the carrier
    product and the lag values themselves, a few eps; the closed form, at
    most 16 eps of max lambda <= sum_j |v_j|.

    Positive definiteness is max(0, -min lambda) over the same closed-form
    spectra, to which the sampled kernel is unitarily similar; a kernel
    with no modes is vacuously positive (deviation 0).
    """
    if len(sampled.thetas) == 1:
        suite, noun = "kernel", "sampled kernel"
    else:
        suite, noun = "realfield", "sampled extended kernel"
    m = len(sampled.lags)
    spectrum = sampled.spectrum()
    worst = 0.0
    for k, theta in enumerate(sampled.thetas):
        lags = [row[k] for row in sampled.lags]
        total = math.fsum(abs(v) for v in lags)
        if not math.isfinite(total):
            raise RangeError("sampled kernel lag values sum beyond the float range")
        for n, value in enumerate(_lag_transform(lags, theta)):
            err = abs(value - spectrum[n][k])
            worst = max(worst, err / total if total else err)
    lowest = min((value for row in spectrum for value in row), default=0.0)
    return [
        CheckResult(suite, "sampled spectrum vs closed form", worst, 8 * (m + 2) * _EPS),
        CheckResult(suite, f"{noun} positive definite", max(0.0, -lowest), 0.0),
    ]


def suite_kernel(
    spectrum: ModeSpectrum, sym: Optional[SymmetrySpec], seed: int = 0
) -> list[CheckResult]:
    import random

    from . import correlation

    if len(spectrum) == 0:
        return [CheckResult("kernel", "empty-spectrum (vacuous)", 0.0, 0.0)]
    action = slot_action(spectrum, sym)
    if not action.diagonal:
        raise KindError("kernel suite needs one phase per mode, not a symmetry that moves slots")
    rho = action.phases[0]
    beta = 1.0
    omega, theta = spectrum.omegas[0], correlation.kernel_twist_angle(rho)
    m = 128
    rng = random.Random(seed)
    _, results = kernel_agreement(omega, rho, beta, m, [rng.randrange(1 - m, m) for _ in range(20)])
    sampled = correlation.sample_kernels(beta, [omega], [theta], 32)
    # the gathered grid is conjugate-symmetric off the diagonal by construction
    hermitian = 2.0 * abs(sampled.lags[0][0].imag)
    results.append(CheckResult("kernel", "sampled kernel Hermitian", hermitian, 1e-10))
    results += sampled_kernel_checks(sampled)
    # On the eigenmode e^{i nu t}, nu = theta/beta, the quadrature residual of
    # the resolvent is exactly |h lambda_hat_0 (nu^2 + omega^2) - 1|, with
    # lambda_hat_0 = Re sum_j v_j e^{-i theta j/m} over the lag values.  Aliasing
    # only adds positive terms, so a correct kernel has h lambda_0 (nu^2 +
    # omega^2) > 1 (lambda_0 from the closed form), and the residual's distance
    # from its closed form is h (nu^2 + omega^2) |lambda_hat_0 - lambda_0|; that
    # distance also fails the mirror scale, whose residual flips sign.  16 eps R,
    # R = h max lambda (nu^2 + omega^2), covers the rounding of the lag values
    # (chiefly their sampled times), the sum and the closed form: over 15000
    # correct kernels at this (m, beta), omega in [1e-3, 1e3], it stayed within
    # 3.9 eps sum_j |v_j|, and sum_j |v_j| within 1.24 max lambda.
    nu = theta / beta
    h, w2 = beta / m, nu * nu + omega * omega
    if not math.isfinite(w2):
        raise RangeError(f"resolvent residual at omega={omega} is outside the float range")
    lags = correlation.sample_kernels(beta, [omega], [theta], m).lags
    lam_hat = math.fsum(
        (row[0] * cmath.rect(1.0, -theta * j / m)).real for j, row in enumerate(lags)
    )
    lam = correlation.grid_spectrum(omega, theta, beta, m)
    results.append(
        CheckResult(
            "kernel",
            "resolvent residual on twisted eigenmode",
            h * w2 * abs(lam_hat - lam[0]),
            16 * _EPS * h * max(lam) * w2,
        )
    )
    return results


def _worst(defects: Iterable[float]) -> float:
    """The largest defect, or NaN if any is NaN (``max`` alone may drop it)."""
    return max(defects, key=lambda d: (d != d, d), default=0.0)


def eigenbasis_checks(
    ext: realfield.ExtendedSpectrum, sampled: correlation.SampledKernel
) -> list[CheckResult]:
    """U W = W Lambda and W* W = I on each block (indices, columns) of the
    exported basis ``sampled.basis``, with lambda_c = e^{-i theta_c} from
    ``sampled.thetas`` and U e_b = u_b e_sigma(b) from ``ext.images``: the
    largest |U w - lambda w| entry per column and |W* W - I| entry per block,
    at 1e-12, far above an L-term rounding and far below a wrong coefficient."""
    eigenpairs, gram = [], []
    for indices, columns in sampled.basis:
        for c, w in zip(indices, columns):
            lam = cmath.rect(1.0, -sampled.thetas[c])
            residual = {b: -lam * w_b for b, w_b in zip(indices, w)}  # U w may leave the block
            for b, w_b in zip(indices, w):
                target, u = ext.images[b]
                residual[target] = residual.get(target, 0j) + u * w_b
            eigenpairs += map(abs, residual.values())
            gram += [abs(sum([a.conjugate() * b for a, b in zip(w, x)], 0j) - (x is w))
                     for x in columns]  # <w, x> - delta
    return [CheckResult("realfield", "U W = W Lambda", _worst(eigenpairs), 1e-12),
            CheckResult("realfield", "W* W = I", _worst(gram), 1e-12)]


def suite_realfield(
    spectrum: ModeSpectrum, sym: Optional[SymmetrySpec], seed: int = 0
) -> list[CheckResult]:
    from . import realfield

    if sym is None:
        raise ConfigError("realfield suite requires a symmetry in the config")
    if len(spectrum) == 0:
        return [CheckResult("realfield", "empty-spectrum (vacuous)", 0.0, 0.0)]
    results: list[CheckResult] = []
    ext = realfield.extend(spectrum, sym)
    phases = ext.phases
    conj_defect = max(min(abs(q - p.conjugate()) for q in phases) for p in phases)
    results.append(
        CheckResult(
            "realfield", "induced eigenphases closed under conjugation", conj_defect, 1e-10
        )
    )
    sampled = realfield.sample_extended_kernel(ext, 1.0, 12)
    if slot_action(spectrum, sym).diagonal:
        m, n = len(spectrum), ext.n_doubled
        off = max(
            abs(block[a * n + b]) for block in sampled.blocks()
            for a in range(n) for b in range(n) if (a < m) != (b < m)
        )
        results.append(
            CheckResult("realfield", "unitary input: sector-mixing blocks vanish", off, 1e-12)
        )
    results += eigenbasis_checks(ext, sampled) + sampled_kernel_checks(sampled)
    from . import fock_suites

    return results + fock_suites._factored(fock_suites._doubled_checks, spectrum, sym, seed)


_SUITE_FUNCS: dict[str, Callable] = {
    "ccr": suite_ccr,
    "tc": suite_tc,
    "symmetry": suite_symmetry,
    "partition": suite_partition,
    "kernel": suite_kernel,
    "realfield": suite_realfield,
}


def run_suite(
    name: str, spectrum: ModeSpectrum, sym: Optional[SymmetrySpec], seed: int = 0
) -> list[CheckResult]:
    """Run one named suite (or 'all'); skips kind-mismatched suites under 'all'."""
    if name not in SUITES:
        raise ConfigError(f"unknown suite {name!r}; choose from {SUITES}")
    if seed < 0:
        raise DomainError(f"seed must be nonnegative, got {seed}")
    if name != "all":
        return _SUITE_FUNCS[name](spectrum, sym, seed=seed)
    results: list[CheckResult] = []
    for suite_name, func in _SUITE_FUNCS.items():
        if sym is None and suite_name in ("symmetry", "realfield"):
            continue
        if suite_name == "kernel" and not slot_action(spectrum, sym).diagonal:
            continue
        results.extend(func(spectrum, sym, seed=seed))
    return results
