"""Twisted pair-correlation kernels.

The per-mode kernel K(t,s) is the Green's function of (-d^2/dtau^2 +
omega^2) on [0, beta) with the quasi-periodic boundary condition
g(beta) = e^{i*theta} g(0).  Two independent evaluation routes are
implemented: a closed form obtained as a geometric image sum, and a
normalized twisted Fock trace of the time-ordered two-field product,
:func:`kernel_oracle`, which keeps the truncated geometric sums of the
last kernel it evaluated, so a kernel's oracle work is done once, not once
per point.  Only :mod:`twistkit.verify` and the benchmark's checks call
the oracle.  Its one-oscillator sum, :func:`geometric_log_derivative`,
sits beside its one caller.  The kernel's twisted Fourier series is a
test reference only (``tests/dense.py``): on a grid, its coefficients
summed by n mod m are the eigenvalues that :func:`grid_spectrum` gives in
closed form, and the ``kernel`` checks tie those to the sampled lag
values.

On the uniform grid t_j = j*beta/m the sampled kernel depends only on
the lag: K(t_i, t_j) = v[i - j] for i >= j, with v[d] = K(d*beta/m, 0),
and K(t_j, t_i) = conj K(t_i, t_j).  It is twisted-circulant, D C D*
with C circulant and D = diag(e^{i*theta*t/beta}) (R. M. Gray, Toeplitz
and Circulant Matrices: A Review, 2006).  A :class:`SampledKernel` holds
these m closed-form values per eigenmode kernel as Python numbers, with
each kernel's omega and theta, plus the basis that mixes them (a scalar
kernel has none).  :func:`sample_kernels` builds it from its (omega,
theta) columns, for the scalar kernel and the extended one alike; the
blocks, the spectrum and the one CSV exporter, :func:`export_kernel_csv`,
derive from that layout.  The blocks of an extended layout are checked
against the kernel on each cycle's covering circle
(:func:`twistkit.verify.block_agreement`), which is sampled by
:func:`sample_kernels` too.  The spectrum has a closed form,
:func:`grid_spectrum`, positive for every twist.

No numpy is imported here.  The closed form, the Fock-trace oracle, the
sampled layout, its spectrum, the mixing of a sparse basis
(:meth:`SampledKernel.blocks`) and the CSV writer run on ``math`` and
``cmath`` alone.  No route here forms a dense grid or runs an FFT; the
dense references of the tests (the grids and the resolvent quadrature)
are built from the same layout.  The CSV writer formats rows as ASCII
``bytes`` and writes them in binary mode, holding at most m of the 2m - 1
distinct formatted blocks at a time, each one ``bytes`` text with a
placeholder for its t and s columns (:func:`export_kernel_csv`).

Range errors: values outside the float range raise RangeError, which the
CLI maps to exit code 4 (here: a closed-form value that overflows, e.g.
at theta = 0 once beta*omega^2 < ~1e-308); a representable near-degenerate
kernel (|1 - e^{-beta*omega} e^{+-i*theta}| < 1e-8) warns instead.  A
sampled block with a non-finite entry, which only a broken basis gives, is
refused by the exporter with InternalConsistencyError (exit 5).
"""

from __future__ import annotations

import cmath
import math
import warnings
from functools import lru_cache

from .errors import (CapacityError, ConfigError, DomainError, InternalConsistencyError, KindError,
                     RangeError)
from .partition import _require_beta, _require_count
from .spectrum import ModeSpectrum, SymmetrySpec, principal_angle, slot_action

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Optional, Sequence

#: A sparse unitary basis: per block, (indices, columns); see :class:`SampledKernel`.
Basis = tuple[tuple[tuple[int, ...], tuple[tuple[complex, ...], ...]], ...]

#: Frozen twist-sign convention: the kernel produced by a unitary symmetry
#: phase rho is K_theta with theta = (-arg rho) mod 2pi.  This is pinned by
#: the Fock-trace oracle (the t >= s branch places the conjugate field
#: first) and enforced by a dedicated test; flipping it breaks the
#: agreement with that oracle for every nonreal rho.
KERNEL_TWIST_SIGN = -1


def kernel_twist_angle(rho: complex) -> float:
    """Kernel twist angle in [0, 2pi) for a unitary symmetry phase."""
    return principal_angle(cmath.exp(1j * KERNEL_TWIST_SIGN * cmath.phase(rho)))


#: The largest grid size m: the scalar CSV of an m-point grid has m^2 rows,
#: 16.8M rows and about 1.9 GB at m = 4096.  MAX_GRID**2 also caps the
#: m^2 n^2 rows of a layout of n columns.
MAX_GRID = 4096


def _require_kernel(beta: float, m: int = 1, omega: float = 1.0, theta: float = 0.0) -> None:
    """DomainError unless omega > 0, 0 < beta < inf, 0 <= theta < 2*pi and
    the grid size m is an integer >= 1; NaN fails each comparison.
    CapacityError for m above :data:`MAX_GRID`."""
    if not omega > 0.0:
        raise DomainError("omega must be positive")
    _require_beta(beta)
    if not 0.0 <= theta < 2.0 * math.pi:
        raise DomainError("theta must lie in [0, 2*pi)")
    _require_count(m, 1, "grid size")
    if m > MAX_GRID:
        raise CapacityError(f"grid size {m} exceeds the cap of {MAX_GRID}")


def require_csv_rows(beta: float, m: int, n: int) -> None:
    """The grid guard of :func:`sample_kernels`, then CapacityError where
    the CSV of an m-point grid of n columns, m^2 n^2 rows, would have more
    than MAX_GRID**2, the rows of the largest scalar grid.  ``kernel
    --extended`` calls it before any sampling; the ``kernel`` suite, which
    writes no CSV, does not, so ``verify`` still runs at any mode count."""
    _require_kernel(beta, m)
    rows = (m * n) ** 2
    if rows > MAX_GRID**2:
        raise CapacityError(
            f"a {m}-point grid of {n} columns has {rows} CSV rows, above the cap of {MAX_GRID**2}")


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
    DomainError outside omega > 0, 0 < beta < inf, 0 <= theta < 2*pi.
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


def geometric_log_derivative(y: complex, cutoff: int) -> complex:
    """S_N'(y)/S_N(y), S_N(y) = sum_{n=0}^{N} y^n, by one Horner pass that
    carries the derivative: <alpha alpha*> of one oscillator truncated at N
    with Boltzmann-and-twist weight y."""
    _require_count(cutoff, 0, "occupation cutoff")
    acc = slope = 0.0 + 0.0j
    for _ in range(cutoff + 1):
        slope = acc + y * slope
        acc = 1.0 + y * acc
    return slope / acc


@lru_cache(maxsize=1)
def _oscillator_sums(rho: complex, x: float, cutoff: int) -> tuple[complex, ...]:
    """The Fock-trace pair of :func:`kernel_oracle`, the + oscillator's with
    twist eigenvalues rho^n and the - oscillator's with conj(rho)^n, kept
    for the last (rho, x, cutoff): a check evaluates one kernel at many
    points."""
    return tuple(geometric_log_derivative(c * x, cutoff) for c in (rho, rho.conjugate()))


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
    :func:`geometric_log_derivative`; the result is identical to building
    dense matrices at the same cutoff (asserted in tests), but scales to
    the large cutoffs the tail bound needs.  The two sums depend on (rho,
    x, cutoff) only, and the last pair is kept, so repeated points of one
    kernel cost no further sums.

    The growing factor e^{omega |tau|} multiplies an expectation
    <alpha* alpha> = c x <alpha alpha*>, with x = e^{-beta omega} and c the
    oscillator's twist eigenvalue, so it is folded in as
    c e^{-omega (beta - |tau|)}: no intermediate leaves the float range,
    and RangeError is raised only where the value itself does.
    """
    if len(spectrum) != 1:
        raise ConfigError("kernel_oracle is defined for single-mode spectra")
    _require_beta(beta)
    action = slot_action(spectrum, sym)
    if not action.diagonal:
        raise KindError("kernel_oracle takes one phase per mode, not a symmetry that moves slots")
    rho = action.phases[0]
    if not (0.0 <= t <= beta and 0.0 <= s <= beta):
        raise DomainError("t and s must lie in [0, beta]")
    omega = spectrum.omegas[0]
    x = math.exp(-beta * omega)
    plus, minus = _oscillator_sums(rho, x, cutoff)
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
    the diagonal.  There is at least one column (ConfigError otherwise).
    A scalar kernel has one column and no basis (the identity); the
    extended kernel has one per doubled eigenmode and the per-cycle
    eigenbasis ``ext.basis`` of its induced unitary.  A basis is
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
        if not thetas:
            raise ConfigError("a sampled kernel needs at least one column")
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
    beta: float,
    omegas: Sequence[float],
    thetas: Sequence[float],
    m: int,
    basis: Optional[Basis] = None,
) -> SampledKernel:
    """The direct sum of the kernels of frequencies ``omegas`` and twist
    angles ``thetas`` (one column each, all at ``beta``), mixed by ``basis``
    (default: none, the identity), from m closed-form lag values per column."""
    _require_kernel(beta, m)
    omegas, thetas = tuple(omegas), tuple(thetas)
    if len(omegas) != len(thetas):
        raise ConfigError("sample_kernels needs one twist angle per frequency")
    lags = tuple(
        tuple(kernel_closed_form(w, th, beta, d * (beta / m), 0.0) for w, th in zip(omegas, thetas))
        for d in range(m)
    )
    return SampledKernel(beta, omegas, thetas, lags, basis)


#: The tail of a CSV row after its t and s columns (and its sector columns,
#: if any): re_k, im_k and a zero tail_bound, as ASCII bytes.
_ROW = b"%s,%.16e,%.16e," + f"{0.0:.16e}\n".encode()


def export_kernel_csv(path, sampled: SampledKernel) -> None:
    """Write a sampled kernel as CSV: the one kernel exporter, for the
    scalar and the extended kernel alike.  Each block it writes is
    formatted once, as the text of its rows after the t and s columns.
    Row i of the grid reads the lower blocks K(t_d, 0) for d = i..0 and
    the adjoint (upper) blocks K(0, t_d) for d = 1..m-1-i, so at most m
    formatted blocks are held: upper blocks 1..m-1 are formatted first
    (no row reads upper block 0), lower block d when row d first reads
    it, and upper block d is dropped after row m-1-d, its last reader.
    Each complex block is released when it is formatted as a lower block,
    its last use; the m x m grid is never formed.

    A scalar kernel (one column, no basis) has the columns t, s, re_k,
    im_k, tail_bound (always 0) and is written one t-row per write, one
    join over the slots t, s_0, body_0, t, s_1, body_1 ...; any other
    layout (a basis, or more than one column) carries row_sector and
    col_sector on every row, and its block is formatted as one ``bytes``
    text whose n^2 rows each start with a NUL placeholder: each (t, s)
    block is one write of that text with every NUL replaced by t,s, one
    C-level pass, and no list of n^2 row objects is held.  Output is
    deterministic ASCII: fixed row order, 17-significant-digit lowercase
    scientific floats, LF line endings.  A block entry that is not finite
    (the lag values are, so only a broken basis gives one) is refused
    with InternalConsistencyError before the file is opened."""
    sectors = sampled.basis is not None or len(sampled.thetas) != 1
    blocks = sampled.blocks()
    if not all(cmath.isfinite(z) for block in blocks for z in block):
        raise InternalConsistencyError("sampled kernel block has a non-finite entry")
    m, n = len(blocks), len(sampled.thetas)
    keys = [f",{a},{b}".encode() if sectors else b"" for a in range(n) for b in range(n)]
    transpose = [b * n + a for a in range(n) for b in range(n)]

    def rows(block: list[complex]):
        texts = [_ROW % (k, z.real, z.imag) for k, z in zip(keys, block)]
        # a sectored block is one text, each row led by a NUL where its t,s go;
        # a scalar body is one row
        return b"\0" + b"\0".join(texts) if sectors else texts[0]

    upper = [rows([blocks[d][i].conjugate() for i in transpose]) for d in range(1, m)]
    lower = []
    stamps = [f"{t:.16e}".encode() for t in sampled.times()]
    columns = b"t,s,row_sector,col_sector," if sectors else b"t,s,"
    slots = [b""] * (3 * m)  # a scalar t-row: t, s_0, body_0, t, s_1, body_1 ...
    slots[1::3] = stamps
    # an extended (t, s) block is a few kB: a 64 KiB buffer makes one system
    # call per few blocks, not one per block
    with open(path, "wb", buffering=1 << 16) as fh:
        fh.write(columns + b"re_k,im_k,tail_bound\n")
        for i, t in enumerate(stamps):
            lower.append(rows(blocks[i]))
            blocks[i] = None
            if sectors:
                for s, block in zip(stamps, lower[::-1] + upper):
                    fh.write(block.replace(b"\0", t + b"," + s))
            else:
                slots[::3] = [t + b","] * m
                slots[2::3] = lower[::-1] + upper
                fh.write(b"".join(slots))
            del upper[-1:]  # upper block m-1-i: no later row reads it
