"""Twisted pair-correlation kernels.

The per-mode kernel K(t,s) is the Green's function of (-d^2/dtau^2 +
omega^2) on [0, beta) with the quasi-periodic boundary condition
g(beta) = e^{i*theta} g(0).  Three independent evaluation routes are
implemented and cross-checked in the tests: a closed form obtained as a
geometric image sum, a twisted Fourier partial sum with an explicit tail
bound, and a normalized twisted Fock trace of the time-ordered two-field
product.

On the uniform grid t_j = j*beta/m the sampled kernel depends only on
the lag: K(t_i, t_j) = v[i - j] for i >= j, with v[d] = K(d*beta/m, 0),
and K(t_j, t_i) = conj K(t_i, t_j).  It is twisted-circulant, D C D*
with C circulant and D = diag(e^{i*theta*t/beta}) (R. M. Gray, Toeplitz
and Circulant Matrices: A Review, 2006).  A :class:`SampledKernel` holds
these m closed-form values per eigenmode kernel, plus the basis that
mixes them (a scalar kernel has none), and the grid, the CSV export and
the spectrum derive from that layout.  One twisted FFT (strip the
carrier, multiply the FFT coefficients, restore the carrier) gives the
spectrum and applies the grid in :func:`verify_resolvent` and C_beta in
:func:`apply_inverse`.

Range errors: values outside the float range raise RangeError, which the
CLI maps to exit code 4 (here: a closed-form value that overflows, e.g.
at theta = 0 once beta*omega^2 < ~1e-308); a representable near-degenerate
kernel (|1 - e^{-beta*omega} e^{+-i*theta}| < 1e-8) warns instead.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, DomainError, KindError, PreconditionError, RangeError
from .partition import geometric_log_derivative
from .spectrum import (
    UNITARY,
    ModeSpectrum,
    SymmetrySpec,
    check_alignment,
    principal_angle,
)

#: Frozen twist-sign convention: the kernel produced by a unitary symmetry
#: phase rho is K_theta with theta = (-arg rho) mod 2pi.  This is pinned by
#: the Fock-trace oracle (the t >= s branch places the conjugate field
#: first) and enforced by a dedicated test; flipping it breaks the
#: three-way agreement for every nonreal rho.
KERNEL_TWIST_SIGN = -1


def kernel_twist_angle(rho: complex) -> float:
    """Kernel twist angle in [0, 2pi) for a unitary symmetry phase."""
    return principal_angle(cmath.exp(1j * KERNEL_TWIST_SIGN * cmath.phase(rho)))


@dataclass(frozen=True)
class TwistedKernel:
    """Per-mode twisted thermal Green's function on [0, beta)^2."""

    omega: float
    theta: float
    beta: float

    def __post_init__(self):
        if not self.omega > 0.0:
            raise DomainError("omega must be positive")
        if not self.beta > 0.0:
            raise DomainError("beta must be positive")
        if not 0.0 <= self.theta < 2.0 * math.pi:
            raise DomainError("theta must lie in [0, 2*pi)")

    def __call__(self, t: float, s: float) -> complex:
        return kernel_closed_form(self.omega, self.theta, self.beta, t, s)


def kernel_closed_form(omega: float, theta: float, beta: float, t: float, s: float) -> complex:
    """Exact Green's function value K(t, s) for t, s in [0, beta).

    Image-sum derivation: summing e^{-omega|tau + n*beta|}/(2*omega)
    translates weighted by e^{-i*n*theta} gives, for tau = t - s >= 0,

        K = (1/2w) [ e^{-w*tau}/(1 - x*e^{-i*theta})
                     + e^{-w*(beta-tau)} * e^{i*theta}/(1 - x*e^{i*theta}) ]

    with x = e^{-beta*omega}, evaluated without cancellation as
    (p + e^{i*theta} q)/(2w*D): D = |1 - x*e^{i*theta}|^2 = expm1(-beta*w)^2
    + 4x*sin^2(theta/2), p = -e^{-w*tau}*expm1(-2w(beta-tau)) and
    q = -e^{-w(beta-tau)}*expm1(-2w*tau).  RangeError where D underflows or
    K overflows; the tau < 0 value follows from K(t,s) = conj(K(s,t)).
    """
    if not (0.0 <= t < beta and 0.0 <= s < beta):
        raise DomainError("t and s must lie in [0, beta)")
    tau = t - s
    if tau < 0.0:
        return kernel_closed_form(omega, theta, beta, s, t).conjugate()
    x = math.exp(-beta * omega)
    denom = math.expm1(-beta * omega) ** 2 + 4.0 * x * math.sin(0.5 * theta) ** 2
    p = -math.exp(-omega * tau) * math.expm1(-2.0 * omega * (beta - tau))
    q = -math.exp(-omega * (beta - tau)) * math.expm1(-2.0 * omega * tau)
    value = (p + cmath.exp(1j * theta) * q) / (2.0 * omega) / denom if denom else math.inf
    if not cmath.isfinite(value):
        raise RangeError(
            f"kernel at omega={omega}, theta={theta}, beta={beta} is outside the float range"
        )
    if denom < 1e-16:
        warnings.warn(
            f"kernel is ill-conditioned: |1 - e^(-beta*omega) e^(+-i*theta)| "
            f"< 1e-8 at omega={omega}, theta={theta}, beta={beta}"
        )
    return value


def kernel_fourier(
    omega: float, theta: float, beta: float, t: float, s: float, n_cutoff: int
) -> tuple[complex, float]:
    """Partial twisted-Fourier sum and a rigorous tail bound.

    Returns (1/beta) * sum_{|n| <= n_cutoff} e^{i*nu_n*(t-s)}/(nu_n^2 +
    omega^2) together with beta/(2*pi^2*(n_cutoff - 1)), an upper bound on
    the dropped |n| > n_cutoff terms (valid for n_cutoff >= 2).  This is
    an independent oracle for the closed form (the ``kernel`` verify suite
    and ``twistkit kernel --verify``); no production path evaluates it.
    A term whose nu_n^2 + omega^2 overflows (omega above about 1e154) is
    below the float range and counts as 0, not as an OverflowError.
    """
    if n_cutoff < 1:
        raise DomainError("n_cutoff must be >= 1")
    ns = np.arange(-n_cutoff, n_cutoff + 1)
    nu = (theta + 2.0 * math.pi * ns) / beta
    with np.errstate(over="ignore"):
        denominators = nu**2 + np.float64(omega) ** 2
    value = complex(np.sum(np.exp(1j * nu * (t - s)) / denominators) / beta)
    tail = beta / (2.0 * math.pi**2 * max(n_cutoff - 1, 1))
    return value, tail


def kernel_oracle(
    spectrum: ModeSpectrum,
    sym: Optional[SymmetrySpec],
    beta: float,
    t: float,
    s: float,
    cutoff: int,
) -> complex:
    """Normalized truncated Fock trace of the time-ordered two-field product.

    Single mode only.  Time ordering per the frozen convention: t >= s
    places the conjugate field first (phibar(s) phi(t)); t < s gives
    phi(t) phibar(s).  The trace factorizes over the two charge
    oscillators, so each expectation is a truncated geometric sum ratio,
    :func:`twistkit.partition.geometric_log_derivative`; the result is
    identical to building dense matrices at the same cutoff (asserted in
    tests), but scales to the large cutoffs the tail bound needs.

    The growing factor e^{omega |tau|} multiplies an expectation
    <alpha* alpha> = c x <alpha alpha*>, with x = e^{-beta omega} and c the
    oscillator's twist eigenvalue, so it is folded in as
    c e^{-omega (beta - |tau|)}: no intermediate leaves the float range,
    and RangeError is raised only where the value itself does.
    """
    if len(spectrum) != 1:
        raise ConfigError("kernel_oracle is defined for single-mode spectra")
    if sym is not None and sym.kind != UNITARY:
        raise KindError("kernel_oracle takes a unitary (or absent) twist")
    if sym is not None:
        check_alignment(spectrum, sym)
        rho = complex(sym.phases[0])
    else:
        rho = 1.0 + 0.0j
    if not (0.0 <= t <= beta and 0.0 <= s <= beta):
        raise DomainError("t and s must lie in [0, beta]")
    omega = spectrum.omegas[0]
    x = math.exp(-beta * omega)
    # + oscillator carries twist eigenvalues rho^n, - oscillator conj(rho)^n.
    plus, minus = (geometric_log_derivative(c * x, cutoff) for c in (rho, rho.conjugate()))
    # t >= s: phibar(s) phi(t), where alpha-* alpha- and alpha+ alpha+* survive;
    # t < s: phi(t) phibar(s), where alpha+* alpha+ and alpha- alpha-* survive.
    twist, grown, decayed = (rho.conjugate(), minus, plus) if t >= s else (rho, plus, minus)
    lag = abs(t - s)
    val = twist * math.exp(omega * lag - beta * omega) * grown + math.exp(-omega * lag) * decayed
    value = complex(val) / (2.0 * omega)
    if not cmath.isfinite(value):
        raise RangeError(f"kernel oracle at omega={omega}, beta={beta} is outside the float range")
    return value


@dataclass(frozen=True)
class SampledKernel:
    """A Hermitian kernel on the grid t_j = j*beta/m, as the lag values of
    its eigenmode kernels: lags[d, k] = K_k(d*beta/m, 0), with twist angle
    thetas[k].  The block K(t_i, t_j) at lag d = i - j >= 0 is
    basis diag(lags[d]) basis*, its adjoint above the diagonal.  A scalar
    kernel has one column and the basis [[1]]; the extended kernel has one
    per doubled eigenmode and the basis ``ext.eigenbasis``."""

    beta: float
    thetas: np.ndarray = field(repr=False)  # (n,)
    lags: np.ndarray = field(repr=False)  # (m, n)
    basis: np.ndarray = field(repr=False)  # (n, n) unitary

    def times(self) -> np.ndarray:
        m = self.lags.shape[0]
        return np.arange(m) * (self.beta / m)

    def blocks(self) -> np.ndarray:
        """The (m, n, n) blocks at lags d >= 0."""
        return np.einsum("aj,dj,bj->dab", self.basis, self.lags, self.basis.conj())

    def grid(self) -> np.ndarray:
        """The dense (m*n, m*n) matrix, index (time, sector), gathered by one
        copy from a strided view of the 2m - 1 distinct blocks."""
        blocks = self.blocks()
        m, n = blocks.shape[:2]
        # both[m-1 + d] is the block at lag d = i - j, for -m < d < m
        both = np.concatenate([blocks[:0:-1].conj().swapaxes(1, 2), blocks])
        view = np.lib.stride_tricks.sliding_window_view(both, m, axis=0)[..., ::-1]
        return np.ascontiguousarray(view.transpose(0, 1, 3, 2)).reshape(m * n, m * n)

    def spectrum(self) -> np.ndarray:
        """The grid's eigenvalues, shape (m, n): the grid is unitarily similar
        to the direct sum of the eigenmode grids D C D*, and column k is the
        FFT of the k-th one's carrier-stripped lag values."""
        return _twisted_fft(self.lags, self.thetas).real


def _twisted_fft(
    values: np.ndarray, thetas: np.ndarray, multiplier: Optional[np.ndarray] = None
) -> np.ndarray:
    """fft(values / carrier) down the columns, carrier[j, k] = e^{i*thetas[k]*j/m};
    given a multiplier, carrier * ifft(multiplier * fft(values / carrier))."""
    carrier = np.exp(1j * np.outer(np.arange(values.shape[0]) / values.shape[0], thetas))
    coeffs = np.fft.fft(values / carrier, axis=0)
    if multiplier is None:
        return coeffs
    return carrier * np.fft.ifft(multiplier * coeffs, axis=0)


def sample_kernels(
    kernels: Sequence[TwistedKernel], beta: float, m: int, basis: Optional[np.ndarray] = None
) -> SampledKernel:
    """The direct sum of ``kernels`` (all at ``beta``), mixed by ``basis``
    (default: the identity), from m closed-form lag values per kernel."""
    if m < 1:
        raise DomainError("grid size must be >= 1")
    lags = [[kernel_closed_form(k.omega, k.theta, beta, d * (beta / m), 0.0) for k in kernels]
            for d in range(m)]
    thetas = np.array([k.theta for k in kernels])
    basis = np.eye(len(kernels)) if basis is None else basis
    return SampledKernel(beta, thetas, np.array(lags, dtype=complex), basis)


def kernel_grid(kernel: TwistedKernel, m: int) -> np.ndarray:
    """The m x m sampled kernel, gathered from its m lag values."""
    return sample_kernels([kernel], kernel.beta, m).grid()


def apply_inverse(
    spectrum: ModeSpectrum,
    sym: Optional[SymmetrySpec],
    beta: float,
    samples: np.ndarray,
) -> np.ndarray:
    """Apply C_beta = (-D^2 + Omega^2)^{-1} on the discretized path space.

    ``samples`` has shape (M, #modes): mode-coefficient functions sampled
    on the uniform grid t_j = j*beta/M.  Per mode the twist angle is
    :func:`kernel_twist_angle` of the symmetry phase, and the twisted FFT
    multiplies coefficient n by 1/(nu_n^2 + omega^2).
    """
    if sym is not None and sym.kind != UNITARY:
        raise KindError("apply_inverse takes a unitary (or absent) twist")
    samples = np.asarray(samples, dtype=complex)
    if samples.ndim != 2 or samples.shape[1] != len(spectrum):
        raise ConfigError("samples must have shape (grid, #modes)")
    if sym is not None:
        check_alignment(spectrum, sym)
        thetas = np.array([kernel_twist_angle(p) for p in sym.phases])
    else:
        thetas = np.zeros(len(spectrum))
    m = samples.shape[0]
    if m < 1:
        raise ConfigError("grid must be nonempty")
    nu = (thetas + 2.0 * math.pi * np.fft.fftfreq(m, d=1.0 / m)[:, None]) / beta
    # a nu^2 + omega^2 beyond the float range makes a multiplier below it:
    # 0; one that underflows to 0 makes a value beyond it, caught below
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        multiplier = 1.0 / (nu**2 + np.asarray(spectrum.omegas, dtype=np.float64) ** 2)
        out = _twisted_fft(samples, thetas, multiplier)
    if not np.isfinite(out).all():
        raise RangeError(f"C_beta applied at beta={beta} is outside the float range")
    return out


#: Largest relative twisted-boundary defect :func:`verify_resolvent` accepts.
BOUNDARY_TOL = 1e-6


def verify_resolvent(
    kernel: TwistedKernel,
    g: Callable[[float], complex],
    g_second: Callable[[float], complex],
    m: int = 256,
) -> float:
    """Quadrature check that the kernel inverts (-d^2/ds^2 + omega^2): the
    largest residual |C_beta(-g'' + omega^2 g) - g| on the m-point grid.

    ``g`` must satisfy the twisted boundary condition g(beta) =
    e^{i*theta} g(0) together with the same condition on g'; compliance is
    what cancels the boundary terms of the double integration by parts, so
    a noncompliant test function raises PreconditionError.  g' is probed
    by one-sided second-order finite differences.  Uses the uniform
    rectangle rule (the trapezoid rule for the twisted-periodic
    integrand), so eigenmode residuals scale as (beta/m)^2.  The grid acts
    as carrier * ifft(lambda * fft(source / carrier)), lambda its spectrum.
    """
    beta, theta, omega = kernel.beta, kernel.theta, kernel.omega
    twist = cmath.exp(1j * theta)
    scale = max(abs(g(0.0)), abs(g(0.5 * beta)), 1e-30)
    defect = abs(g(beta) - twist * g(0.0))
    h = beta * 1e-6

    def deriv(t0: float, sign: float) -> complex:
        return (
            -3.0 * g(t0) + 4.0 * g(t0 + sign * h) - g(t0 + 2.0 * sign * h)
        ) / (2.0 * sign * h)

    d_defect = abs(deriv(beta, -1.0) - twist * deriv(0.0, 1.0)) * h
    defect = max(defect / scale, d_defect / scale)
    if defect > BOUNDARY_TOL:
        raise PreconditionError(
            f"test function violates the twisted boundary condition "
            f"(relative defect {defect:.3e})"
        )
    sampled = sample_kernels([kernel], beta, m)
    times = sampled.times()
    source = np.array([[-g_second(s) + omega**2 * g(s)] for s in times])
    target = np.array([g(float(t)) for t in times])
    values = (beta / m) * _twisted_fft(source, sampled.thetas, sampled.spectrum())[:, 0]
    return float(np.abs(values - target).max())


#: A CSV row with "\0" standing for its t and s columns, then the sector
#: columns (if any), re_k, im_k and a zero tail_bound.
_ROW = "\0%s,%.16e,%.16e," + f"{0.0:.16e}" + "\n"


def write_kernel_csv(path, sampled: SampledKernel, sectors: bool = False) -> None:
    """Stream a sampled kernel as CSV, formatting each of its 2m - 1
    distinct blocks once, as text with a placeholder for (t, s).  A scalar
    kernel is written one t-row per write; with ``sectors`` every row
    carries row_sector and col_sector, and each (t, s) block is one write.
    Output is deterministic: fixed row order, 17-significant-digit
    lowercase scientific floats, LF line endings."""
    blocks = sampled.blocks()
    m, n = blocks.shape[:2]
    keys = [f",{a},{b}" if sectors else "" for a in range(n) for b in range(n)]

    def text(block: np.ndarray) -> str:
        return "".join([_ROW % (k, z.real, z.imag) for k, z in zip(keys, block.ravel().tolist())])

    lower = [text(b) for b in blocks]
    upper = [text(b.conj().T) for b in blocks]
    stamps = [f"{t:.16e}" for t in sampled.times().tolist()]
    columns = "t,s,row_sector,col_sector," if sectors else "t,s,"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(columns + "re_k,im_k,tail_bound\n")
        for i, t in enumerate(stamps):
            row = zip(stamps, lower[i::-1] + upper[1 : m - i])
            if not sectors:
                fh.write("".join([b.replace("\0", f"{t},{s}") for s, b in row]))
                continue
            for s, b in row:
                fh.write(b.replace("\0", f"{t},{s}"))


def export_kernel_csv(path, kernel: TwistedKernel, m: int) -> SampledKernel:
    """Write the closed-form kernel on the m-point grid as CSV and return
    it: columns t, s, re_k, im_k, tail_bound (always 0), streamed from the m
    lag values by :func:`write_kernel_csv`; the m x m grid is never formed."""
    sampled = sample_kernels([kernel], kernel.beta, m)
    write_kernel_csv(path, sampled)
    return sampled
