"""Twisted pair-correlation kernels.

The per-mode kernel K(t,s) is the Green's function of (-d^2/dtau^2 +
omega^2) on [0, beta) with the quasi-periodic boundary condition
g(beta) = e^{i*theta} g(0).  Three independent evaluation routes are
implemented and cross-checked in the tests: a closed form obtained as a
geometric image sum, a twisted Fourier partial sum with an explicit tail
bound, and a normalized twisted Fock trace of the time-ordered two-field
product.  The two oracles serve the kernel checks, which compare at the
lags of a grid: :func:`kernel_fourier` gives the partial sum at every lag
of the m-point grid at once, folding its coefficients by n mod m, and
:func:`kernel_oracle` keeps the truncated geometric sums of the last
kernel it evaluated, so a kernel's oracle work is done once, not once per
point.

On the uniform grid t_j = j*beta/m the sampled kernel depends only on
the lag: K(t_i, t_j) = v[i - j] for i >= j, with v[d] = K(d*beta/m, 0),
and K(t_j, t_i) = conj K(t_i, t_j).  It is twisted-circulant, D C D*
with C circulant and D = diag(e^{i*theta*t/beta}) (R. M. Gray, Toeplitz
and Circulant Matrices: A Review, 2006).  A :class:`SampledKernel` holds
these m closed-form values per eigenmode kernel as Python numbers, with
each kernel's omega and theta, plus the basis that mixes them (a scalar
kernel has none); the blocks, the CSV export and the spectrum derive from
that layout.  The spectrum has a closed form, :func:`grid_spectrum`,
positive for every twist.

No numpy is imported here.  The closed form, the Fourier and Fock-trace
oracles, the sampled layout, its spectrum, the mixing of a sparse basis
(:meth:`SampledKernel.blocks`) and the CSV writer run on ``math`` and
``cmath`` alone.  No route here forms a dense grid or runs an FFT; the
dense references of the tests (the grids and the resolvent quadrature)
are built from the same layout.

Range errors: values outside the float range raise RangeError, which the
CLI maps to exit code 4 (here: a closed-form value that overflows, e.g.
at theta = 0 once beta*omega^2 < ~1e-308); a representable near-degenerate
kernel (|1 - e^{-beta*omega} e^{+-i*theta}| < 1e-8) warns instead.
"""

from __future__ import annotations

import cmath
import math
import operator
import warnings
from typing import Optional, Sequence

from .errors import ConfigError, DomainError, KindError, RangeError
from .partition import geometric_log_derivative
from .spectrum import ModeSpectrum, SymmetrySpec, principal_angle, slot_action

#: A sparse unitary basis: per block, (indices, columns); see :class:`SampledKernel`.
Basis = tuple[tuple[tuple[int, ...], tuple[tuple[complex, ...], ...]], ...]

#: Frozen twist-sign convention: the kernel produced by a unitary symmetry
#: phase rho is K_theta with theta = (-arg rho) mod 2pi.  This is pinned by
#: the Fock-trace oracle (the t >= s branch places the conjugate field
#: first) and enforced by a dedicated test; flipping it breaks the
#: three-way agreement for every nonreal rho.
KERNEL_TWIST_SIGN = -1


def kernel_twist_angle(rho: complex) -> float:
    """Kernel twist angle in [0, 2pi) for a unitary symmetry phase."""
    return principal_angle(cmath.exp(1j * KERNEL_TWIST_SIGN * cmath.phase(rho)))


def _require_kernel(beta: float, m: int = 1, omega: float = 1.0, theta: float = 0.0) -> None:
    """DomainError unless omega > 0, beta > 0, 0 <= theta < 2*pi and the
    grid has m >= 1 points; NaN fails each comparison."""
    if not omega > 0.0:
        raise DomainError("omega must be positive")
    if not beta > 0.0:
        raise DomainError("beta must be positive")
    if not 0.0 <= theta < 2.0 * math.pi:
        raise DomainError("theta must lie in [0, 2*pi)")
    if m < 1:
        raise DomainError("grid size must be >= 1")


class TwistedKernel:
    """Per-mode twisted thermal Green's function on [0, beta)^2."""

    def __init__(self, omega: float, theta: float, beta: float):
        _require_kernel(beta, omega=omega, theta=theta)
        self.omega, self.theta, self.beta = omega, theta, beta

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
    DomainError outside omega > 0, beta > 0, 0 <= theta < 2*pi.
    """
    _require_kernel(beta, omega=omega, theta=theta)
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
    omega: float, theta: float, beta: float, m: int, n_cutoff: int
) -> tuple[list[complex], float]:
    """Partial twisted-Fourier sums at the lags of the m-point grid, and a
    rigorous tail bound.

    Returns the values (1/beta) * sum_{|n| <= n_cutoff} e^{i*nu_n*tau} /
    (nu_n^2 + omega^2) at tau = d*beta/m for d = -(m-1)..m-1, as a list
    indexed by d (Python's negative indices give the lags d < 0), together
    with beta/(2*pi^2*(n_cutoff - 1)), an upper bound on the dropped
    |n| > n_cutoff terms (valid for n_cutoff >= 2).  This is an
    independent oracle for the closed form (the ``kernel`` verify suite and
    ``twistkit kernel --verify``); no production path evaluates it.

    At these lags e^{i*nu_n*tau} = e^{i theta d/m} e^{2 pi i n d/m} depends
    on n only through n mod m, so the 2*n_cutoff + 1 real coefficients
    a_n = 1/(nu_n^2 + omega^2) fold into m residue-class sums A_r of
    positive terms, each by one ``math.fsum``.  Lag d >= 0 is then
    e^{i theta d/m}/beta * sum_r e^{2 pi i r d/m} A_r, a direct m-term sum
    (real and imaginary parts by ``math.fsum``) over a table of m unit
    roots, each taken at an angle in [-pi, pi]; lag -d is its conjugate,
    as the coefficients are real.  It is the same finite sum as the
    term-by-term one, regrouped, and it rounds each term by a few eps,
    where the term-by-term sum rounds term n's phase by about |n| eps.  A
    term whose nu_n^2 + omega^2 overflows (omega above about 1e154) is
    below the float range and counts as 0, not as an OverflowError; one
    whose denominator underflows to 0 raises RangeError.
    """
    _require_kernel(beta, m, omega, theta)
    if n_cutoff < 1:
        raise DomainError("n_cutoff must be >= 1")
    w2 = omega * omega  # not **: a square beyond the float range is inf, its term 0
    coeffs = []
    for n in range(-n_cutoff, n_cutoff + 1):
        nu = (theta + 2.0 * math.pi * n) / beta
        denom = nu * nu + w2
        if not denom:
            raise RangeError(
                f"Fourier term at omega={omega}, beta={beta} is outside the float range"
            )
        coeffs.append(1.0 / denom)
    # coeffs[i] is a_{i - n_cutoff}, so class r starts at the first i = r + n_cutoff mod m
    classes = [math.fsum(coeffs[(r + n_cutoff) % m :: m]) for r in range(m)]
    roots = [cmath.rect(1.0, 2.0 * math.pi * (k - m if 2 * k > m else k) / m) for k in range(m)]
    values = []
    for d in range(m):
        terms = [roots[r * d % m] for r in range(m)]
        total = complex(
            math.fsum([w.real * a for w, a in zip(terms, classes)]),
            math.fsum([w.imag * a for w, a in zip(terms, classes)]),
        )
        values.append(total * cmath.rect(1.0, theta * d / m) / beta)
    values += [v.conjugate() for v in values[:0:-1]]
    tail = beta / (2.0 * math.pi**2 * max(n_cutoff - 1, 1))
    return values, tail


#: The last Fock-trace pair of :func:`kernel_oracle`, keyed by (rho, x,
#: cutoff): a check evaluates one kernel at many points.
_oracle_memo: list = [None, None]


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
    tests), but scales to the large cutoffs the tail bound needs.  The two
    sums depend on (rho, x, cutoff) only, and the last pair is kept, so
    repeated points of one kernel cost no further sums.

    The growing factor e^{omega |tau|} multiplies an expectation
    <alpha* alpha> = c x <alpha alpha*>, with x = e^{-beta omega} and c the
    oscillator's twist eigenvalue, so it is folded in as
    c e^{-omega (beta - |tau|)}: no intermediate leaves the float range,
    and RangeError is raised only where the value itself does.
    """
    if len(spectrum) != 1:
        raise ConfigError("kernel_oracle is defined for single-mode spectra")
    action = slot_action(spectrum, sym)
    if not action.diagonal:
        raise KindError("kernel_oracle takes one phase per mode, not a symmetry that moves slots")
    rho = action.phases[0]
    if not (0.0 <= t <= beta and 0.0 <= s <= beta):
        raise DomainError("t and s must lie in [0, beta]")
    omega = spectrum.omegas[0]
    x = math.exp(-beta * omega)
    key = (rho, x, cutoff)
    if _oracle_memo[0] != key:
        # + oscillator carries twist eigenvalues rho^n, - oscillator conj(rho)^n.
        pair = [geometric_log_derivative(c * x, cutoff) for c in (rho, rho.conjugate())]
        _oracle_memo[:] = [key, pair]
    plus, minus = _oracle_memo[1]
    # t >= s: phibar(s) phi(t), where alpha-* alpha- and alpha+ alpha+* survive;
    # t < s: phi(t) phibar(s), where alpha+* alpha+ and alpha- alpha-* survive.
    twist, grown, decayed = (rho.conjugate(), minus, plus) if t >= s else (rho, plus, minus)
    lag = abs(t - s)
    val = twist * math.exp(omega * lag - beta * omega) * grown + math.exp(-omega * lag) * decayed
    value = complex(val) / (2.0 * omega)
    if not cmath.isfinite(value):
        raise RangeError(f"kernel oracle at omega={omega}, beta={beta} is outside the float range")
    return value


#: 2*pi - float(2*pi): with it, theta - 2*pi near 0 keeps its relative accuracy.
_TWO_PI_LO = 2.4492935982947064e-16


def grid_spectrum(omega: float, theta: float, beta: float, m: int) -> list[float]:
    """The m eigenvalues of K_theta sampled on the m-point grid, in closed form.

    The grid is twisted-circulant; its n-th eigenvalue, n = 0..m-1, is the
    aliasing sum (1/h) sum_{k = n mod m} 1/(nu_k^2 + omega^2), h = beta/m,
    which the partial-fraction expansion of coth sums to

        lambda_n = sinh(omega h) / (4 omega (sinh^2(omega h/2) + s_n^2)),
        s_n = sin((theta + 2 pi n)/(2m)),

    positive for every twist.  s_n is taken at the signed index n - m where
    2n + theta/pi > m, which leaves s_n^2 unchanged and keeps the argument
    in (-pi/2, pi/2], away from the cancellation near pi; at index -1,
    theta - 2*pi is formed with the low part of 2*pi.  With a = omega h/2 it
    is evaluated as (h/4) (sinh(2a)/2a) / (sinh(a)^2 + s_n^2) for a <= 1 and
    as coth(a) / (2 omega (1 + (s_n/sinh a)^2)) above, where sinh(2a) may
    overflow; every step adds or multiplies positive terms.  RangeError
    where an eigenvalue is beyond the float range.
    """
    _require_kernel(beta, m, omega, theta)
    h = beta / m
    a = 0.5 * omega * h
    if a <= 1.0:
        scale = 0.25 * h * (math.sinh(2.0 * a) / (2.0 * a) if a else 1.0)
        sinh2 = math.sinh(a) * math.sinh(a)
    else:
        grow = -math.expm1(-2.0 * a)  # 1 - e^{-2a}
        coth, inv_sinh = (2.0 - grow) / grow, 2.0 * math.exp(-a) / grow
    out = []
    for n in range(m):
        k = n - m if 2 * n + theta / math.pi > m else n
        s = math.sin((theta + 2.0 * math.pi * k + _TWO_PI_LO * k) / (2 * m))
        if a <= 1.0:
            denom = sinh2 + s * s
            value = scale / denom if denom else math.inf
        else:
            r = s * inv_sinh
            value = coth / (2.0 * omega * (1.0 + r * r))
        if not math.isfinite(value):
            raise RangeError(
                f"sampled spectrum at omega={omega}, theta={theta}, beta={beta} "
                "is outside the float range"
            )
        out.append(value)
    return out


class SampledKernel:
    """A Hermitian kernel on the grid t_j = j*beta/m, as the lag values of
    its eigenmode kernels: lags[d][k] = K_k(d*beta/m, 0), the kernel of
    frequency omegas[k] and twist angle thetas[k].  The block K(t_i, t_j)
    at lag d = i - j >= 0 is basis diag(lags[d]) basis*, its adjoint above
    the diagonal.  A scalar kernel has one column and no basis (the
    identity); the extended kernel has one per doubled eigenmode and the
    per-cycle eigenbasis ``ext.basis`` of its induced unitary.  A basis is
    block-diagonal up to a permutation, and kept sparse: one (indices,
    columns) pair per block, where column q sits at indices[q] and holds
    its coefficients on the rows indices[0], indices[1], ..."""

    def __init__(
        self,
        beta: float,
        omegas: tuple[float, ...],
        thetas: tuple[float, ...],
        lags: tuple[tuple[complex, ...], ...],  # m rows of n
        basis: Optional[Basis] = None,
    ):
        self.beta, self.omegas, self.thetas = beta, omegas, thetas
        self.lags, self.basis = lags, basis

    def times(self) -> list[float]:
        m = len(self.lags)
        return [j * (self.beta / m) for j in range(m)]

    def blocks(self) -> list[list[complex]]:
        """The n x n blocks at lags d >= 0, each flattened row by row.  With
        a basis W, entry (a, b) is sum_k (W_ak v_k) conj(W_bk) over the
        columns k of the block that holds a and b, and 0 off the blocks."""
        n = len(self.thetas)
        if self.basis is None:
            return [[row[a] if a == b else 0j for a in range(n) for b in range(n)]
                    for row in self.lags]
        # (flat index, [(column, W_ak, conj W_bk), ...]) per nonzero entry
        plan = [
            (a * n + b, [(k, col[i], col[j].conjugate()) for k, col in zip(indices, columns)])
            for indices, columns in self.basis
            for i, a in enumerate(indices)
            for j, b in enumerate(indices)
        ]
        out = []
        for row in self.lags:
            block = [0j] * (n * n)
            for at, terms in plan:
                block[at] = sum([w_a * row[k] * w_b for k, w_a, w_b in terms], 0j)
            out.append(block)
        return out

    def spectrum(self) -> list[list[float]]:
        """The grid's eigenvalues, m rows of n: the grid is unitarily similar
        to the direct sum of the eigenmode grids D C D*, and column k is the
        closed form :func:`grid_spectrum` of the k-th one."""
        m = len(self.lags)
        columns = [grid_spectrum(w, th, self.beta, m) for w, th in zip(self.omegas, self.thetas)]
        return [list(row) for row in zip(*columns)]


def sample_kernels(
    kernels: Sequence[TwistedKernel], beta: float, m: int, basis: Optional[Basis] = None
) -> SampledKernel:
    """The direct sum of ``kernels`` (all at ``beta``), mixed by ``basis``
    (default: none, the identity), from m closed-form lag values per kernel."""
    _require_kernel(beta, m)
    lags = tuple(
        tuple(kernel_closed_form(k.omega, k.theta, beta, d * (beta / m), 0.0) for k in kernels)
        for d in range(m)
    )
    omegas = tuple(k.omega for k in kernels)
    return SampledKernel(beta, omegas, tuple(k.theta for k in kernels), lags, basis)


#: The tail of a CSV row after its t and s columns (and its sector columns,
#: if any): re_k, im_k and a zero tail_bound.
_ROW = "%s,%.16e,%.16e," + f"{0.0:.16e}" + "\n"


def write_kernel_csv(path, sampled: SampledKernel) -> None:
    """Stream a sampled kernel as CSV, formatting each of its 2m - 1
    distinct blocks once, as the row texts after the t and s columns.  A
    scalar kernel (no basis) is written one t-row per write, joined as
    t,s_0 + body_0 + t,s_1 + body_1 ...; a kernel with a basis carries
    row_sector and col_sector on every row, and each (t, s) block is one
    write, t,s + row_0 + t,s + row_1 ...  Output is deterministic: fixed
    row order, 17-significant-digit lowercase scientific floats, LF line
    endings."""
    sectors = sampled.basis is not None
    blocks = sampled.blocks()
    m, n = len(blocks), len(sampled.thetas)
    keys = [f",{a},{b}" if sectors else "" for a in range(n) for b in range(n)]
    transpose = [b * n + a for a in range(n) for b in range(n)]

    def rows(block: list[complex]) -> list[str]:
        return [_ROW % (k, z.real, z.imag) for k, z in zip(keys, block)]

    lower = [rows(b) for b in blocks]
    upper = [rows([b[i].conjugate() for i in transpose]) for b in blocks]
    stamps = [f"{t:.16e}" for t in sampled.times()]
    columns = "t,s,row_sector,col_sector," if sectors else "t,s,"
    # an extended (t, s) block is a few kB: a 64 KiB buffer makes one system
    # call per few blocks, not one per block
    with open(path, "w", encoding="utf-8", newline="", buffering=1 << 16) as fh:
        fh.write(columns + "re_k,im_k,tail_bound\n")
        if not sectors:
            lower_rows, upper_rows = [r[0] for r in lower], [r[0] for r in upper]
            for i, t in enumerate(stamps):
                pre = t + ","
                bodies = lower_rows[i::-1] + upper_rows[1 : m - i]
                fh.write(pre + pre.join(map(operator.add, stamps, bodies)))
        elif n:  # a layout without modes has no rows
            for i, t in enumerate(stamps):
                for s, block in zip(stamps, lower[i::-1] + upper[1 : m - i]):
                    pre = f"{t},{s}"
                    fh.write(pre + pre.join(block))


def export_kernel_csv(path, kernel: TwistedKernel, m: int) -> SampledKernel:
    """Write the closed-form kernel on the m-point grid as CSV and return
    it: columns t, s, re_k, im_k, tail_bound (always 0), streamed from the m
    lag values by :func:`write_kernel_csv`; the m x m grid is never formed."""
    sampled = sample_kernels([kernel], kernel.beta, m)
    write_kernel_csv(path, sampled)
    return sampled
