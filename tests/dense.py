"""Dense reference matrices for the matrix-free Fock oracle, at tiny sizes.

Built without ``twistkit.fock``: single-oscillator matrices joined with
``np.kron``, or explicit loops over the occupations.  The basis order is
the C order of the state tensors: slot 2k is the + charge of mode k, slot
2k + 1 its - charge, the first slot most significant.  The symmetries are
built from their raw phases and pairings, never from the slot action of
``twistkit.spectrum``, and so are the induced matrices on the doubled
coefficient space.  The basis-sum trace at the end is the exception: it
reads the slot action's ``source`` and ``phases`` (not its ``cycles``), to
check the factorization over cycles at sizes no dense matrix reaches.

The sampled-kernel references at the end (the dense grids, the per-cell
extended kernel, C_beta by a twisted FFT and the resolvent quadrature on
a test function) are what the package's closed-form grid spectrum and
sampled layout are checked against.
"""

import cmath
import math

import numpy as np

from twistkit import correlation, realfield
from twistkit.errors import ConfigError, KindError, RangeError
from twistkit.spectrum import slot_action


def creation_matrix(cutoff):
    """Truncated oscillator creation matrix; the top level is annihilated."""
    m = np.zeros((cutoff + 1, cutoff + 1))
    for k in range(cutoff):
        m[k + 1, k] = math.sqrt(k + 1)
    return m


def embed(n_slots, cutoff, slot, local):
    """A single-oscillator matrix at one slot, the identity at the others."""
    out = np.eye(1)
    for j in range(n_slots):
        out = np.kron(out, local if j == slot else np.eye(cutoff + 1))
    return out


def slot_creation(n_slots, cutoff, slot):
    return embed(n_slots, cutoff, slot, creation_matrix(cutoff))


def hamiltonian(omegas, cutoff):
    levels = np.diag(np.arange(cutoff + 1.0))
    n_slots = 2 * len(omegas)
    h = np.zeros(((cutoff + 1) ** n_slots,) * 2)
    for slot in range(n_slots):
        h += omegas[slot // 2] * embed(n_slots, cutoff, slot, levels)
    return h


def unitary_symmetry(phases, cutoff):
    """U_S: rho**n on the + slot of each mode, conj(rho)**n on its - slot."""
    out = np.eye(1)
    for rho in phases:
        for p in (rho, np.conj(rho)):
            out = np.kron(out, np.diag(p ** np.arange(cutoff + 1)))
    return out


def antiunitary_symmetry(pairing, phases, cutoff):
    """U_V from its rule on basis states: (n+_k, n-_k) move to the slots
    (n-, n+) of mode pi(k), with phase eta_{pi(k)}**n+_k conj(eta_{pi(k)})**n-_k."""
    m = len(phases)
    shape = (cutoff + 1,) * (2 * m)
    out = np.zeros((int(np.prod(shape)),) * 2, dtype=complex)
    for occ in np.ndindex(*shape):
        target, phase = [0] * (2 * m), 1.0 + 0.0j
        for k in range(m):
            j = pairing[k]
            target[2 * j], target[2 * j + 1] = occ[2 * k + 1], occ[2 * k]
            phase *= phases[j] ** occ[2 * k] * np.conj(phases[j]) ** occ[2 * k + 1]
        out[np.ravel_multi_index(target, shape), np.ravel_multi_index(occ, shape)] = phase
    return out


def induced_unitary(phases):
    """Induced matrix of U_S on the doubled space: diag(conj(rho); rho)."""
    return np.diag(np.concatenate([np.conj(phases), phases]))


def induced_antiunitary(pairing, phases):
    """Induced matrix of U_V on the doubled space: e_k goes to
    eta_k e_{M+pi(k)}, and e_{M+pi(k)} to conj(eta_{pi(k)}) e_k."""
    m = len(phases)
    out = np.zeros((2 * m, 2 * m), dtype=complex)
    for k in range(m):
        j = pairing[k]
        out[m + j, k] = phases[k]
        out[k, m + j] = np.conj(phases[j])
    return out


def induced(ext):
    """``ext.induced``, a table of row tuples, as a (2M, 2M) array."""
    return np.asarray(ext.induced, dtype=complex).reshape(ext.n_doubled, ext.n_doubled)


def matrix_of(shape, operator):
    """Dense matrix of a tensor operator, one basis state per column."""
    dim = int(np.prod(shape))
    out = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        e = np.zeros(dim, dtype=complex)
        e[i] = 1.0
        out[:, i] = np.asarray(operator(e.reshape(shape))).reshape(-1)
    return out


def enumerated_trace(spectrum, sym, beta, cutoff):
    """Truncated Tr(U exp(-beta H)) summed over the basis.

    U sends the basis state n to a phase times the state whose slot t holds
    n[source[t]], so its diagonal is the phase on the states constant on
    every cycle of ``source``.  einsum lists exactly those states' terms by
    giving each cycle one index, its first slot, and np.sum adds them
    pairwise (einsum's own summation of many operands rounds up to ~100
    eps of the sum of moduli).
    """
    action = sym.action
    first = list(range(len(action.source)))
    for start in range(len(first)):
        if first[start] == start:  # the smallest slot of its cycle
            t = action.source[start]
            while t != start:
                first[t], t = start, action.source[t]
    levels = np.arange(cutoff + 1)
    operands = []
    for t, w in enumerate(np.repeat(np.asarray(spectrum.omegas, dtype=float), 2)):
        operands += [action.phases[t] ** levels * np.exp(-beta * w * levels), [first[t]]]
    return complex(np.einsum(*operands, sorted(set(first))).sum()) if operands else 1.0 + 0.0j


def trace_rounding(spectrum, beta, cutoff):
    """Allowed rounding between two evaluations of a truncated twisted trace.

    Each term of the basis sum has modulus at most its untwisted value, so
    both evaluations round by a small multiple of eps times the sum of
    those moduli, the untwisted truncated trace prod_k S_N(x_k)^2: the
    factor tables and products of up to 2M = 8 factors add a few eps each,
    and a pairwise sum of up to 5^8 terms log2(5^8) < 19 eps.  Measured:
    under 5 eps on 3000 random configurations.
    """
    untwisted = math.prod(
        sum(math.exp(-beta * w * n) for n in range(cutoff + 1)) ** 2 for w in spectrum.omegas
    )
    return 64 * np.finfo(float).eps * untwisted


def kernel_fourier(omega, theta, beta, t, s, n_cutoff):
    """The twisted Fourier partial sum (1/beta) sum_{|n| <= N} e^{i nu_n (t-s)}
    / (nu_n^2 + omega^2), nu_n = (theta + 2 pi n)/beta, term by term in
    numpy, and the sum of the moduli of its terms.  Each coefficient is
    formed as beta/h/h with h = hypot(theta + 2 pi n, beta omega), so no
    square leaves the float range at any beta or omega: a term is 0 only
    where its own value is below the float range."""
    k = theta + 2.0 * math.pi * np.arange(-n_cutoff, n_cutoff + 1)
    h = np.hypot(k, beta * omega)
    coefficients = beta / h / h
    value = complex(np.sum(np.exp(1j * k * ((t - s) / beta)) * coefficients))
    return value, float(np.sum(coefficients))


def fourier_tail(beta, n_cutoff):
    """A bound on the terms |n| > N that :func:`kernel_fourier` drops, for
    N >= 2: each side's are below sum_{n >= N} beta/(2 pi n)^2."""
    return beta / (2.0 * math.pi**2 * (n_cutoff - 1))


def grid(sampled):
    """The dense (m*n, m*n) matrix of a sampled kernel, index (time, sector),
    gathered by one copy from a strided view of the 2m - 1 distinct blocks."""
    m, n = len(sampled.lags), len(sampled.thetas)
    blocks = np.array(sampled.blocks(), dtype=complex).reshape(m, n, n)
    # both[m-1 + d] is the block at lag d = i - j, for -m < d < m
    both = np.concatenate([blocks[:0:-1].conj().swapaxes(1, 2), blocks])
    view = np.lib.stride_tricks.sliding_window_view(both, m, axis=0)[..., ::-1]
    return np.ascontiguousarray(view.transpose(0, 1, 3, 2)).reshape(m * n, m * n)


def kernel_grid(omega, theta, beta, m):
    """The m x m sampled kernel, gathered from its m lag values."""
    return grid(correlation.sample_kernels(beta, [omega], [theta], m))


def extended_kernel_grid(ext, beta, m):
    """Sampled extended kernel: shape (m*2M, m*2M), index = (time, sector)."""
    return grid(realfield.sample_extended_kernel(ext, beta, m))


def eigenbasis(ext):
    """The dense (2M, 2M) eigenbasis W of ``ext.induced``, column c the
    eigenvector of ``ext.phases[c]``, scattered from the per-cycle basis."""
    w = np.zeros((ext.n_doubled, ext.n_doubled), dtype=complex)
    for indices, columns in ext.basis:
        for c, column in zip(indices, columns):
            w[list(indices), c] = column
    return w


def extended_image_sum(ext, beta, tau):
    """The extended kernel block K(tau) for 0 <= tau < beta as the image sum
    (2W)^-1 [e^{-W tau} (I - XU)^-1 + e^{W tau} X U* (I - XU*)^-1], with W
    the doubled frequencies, U = ``ext.induced`` and X = e^{-beta W}: no
    eigenbasis.  W commutes with U, so the diagonal factors act on the rows."""
    w = np.array(ext.doubled_omegas())
    u, eye, x = induced(ext), np.eye(len(w)), np.diag(np.exp(-beta * w))
    fwd = np.linalg.inv(eye - x @ u)
    back = x @ u.conj().T @ np.linalg.inv(eye - x @ u.conj().T)
    return (np.exp(-w * tau)[:, None] * fwd + np.exp(w * tau)[:, None] * back) / (2.0 * w)[:, None]


def extended_kernel(ext, beta, t, s):
    """Extended pair-correlation kernel as a 2M x 2M block at (t, s).

    In the eigenbasis of the induced unitary the kernel is the direct sum
    of scalar twisted kernels; the block presentation is W diag(K_j) W*.
    Off-diagonal (sector-mixing) entries are structurally zero for
    unitary inputs.
    """
    diag = np.array([
        correlation.kernel_closed_form(float(w), correlation.kernel_twist_angle(p), beta, t, s)
        for w, p in zip(ext.doubled_omegas(), ext.phases)
    ])
    w = eigenbasis(ext)
    return (w * diag) @ w.conj().T


def apply_inverse(spectrum, sym, beta, samples):
    """Apply C_beta = (-D^2 + Omega^2)^{-1} on the discretized path space.

    ``samples`` has shape (M, #modes): mode-coefficient functions sampled
    on the uniform grid t_j = j*beta/M.  Per mode the twist angle is
    ``kernel_twist_angle`` of the symmetry phase, and the twisted FFT
    (strip the carrier e^{i theta j/M}, multiply coefficient n by
    1/(nu_n^2 + omega^2), restore the carrier) applies C_beta.
    """
    action = slot_action(spectrum, sym)
    if not action.diagonal:
        raise KindError("apply_inverse takes one phase per mode, not a symmetry that moves slots")
    samples = np.asarray(samples, dtype=complex)
    if samples.ndim != 2 or samples.shape[1] != len(spectrum):
        raise ConfigError("samples must have shape (grid, #modes)")
    thetas = np.array([correlation.kernel_twist_angle(p) for p in action.phases[::2]])
    m = samples.shape[0]
    if m < 1:
        raise ConfigError("grid must be nonempty")
    nu = (thetas + 2.0 * math.pi * np.fft.fftfreq(m, d=1.0 / m)[:, None]) / beta
    carrier = np.exp(1j * np.outer(np.arange(m) / m, thetas))
    # a nu^2 + omega^2 beyond the float range makes a multiplier below it:
    # 0; one that underflows to 0 makes a value beyond it, caught below
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        multiplier = 1.0 / (nu**2 + np.asarray(spectrum.omegas, dtype=np.float64) ** 2)
        coeffs = np.fft.fft(samples / carrier, axis=0)
        out = carrier * np.fft.ifft(multiplier * coeffs, axis=0)
    if not np.isfinite(out).all():
        raise RangeError(f"C_beta applied at beta={beta} is outside the float range")
    return out


#: Largest relative twisted-boundary defect :func:`verify_resolvent` accepts.
BOUNDARY_TOL = 1e-6


def verify_resolvent(omega, theta, beta, g, g_second, m):
    """Quadrature check that the sampled kernel of frequency ``omega`` and
    twist angle ``theta`` at ``beta`` inverts (-d^2/ds^2 + omega^2): the
    largest residual |C_beta(-g'' + omega^2 g) - g| on the m-point grid.

    ``g`` must satisfy the twisted boundary condition g(beta) =
    e^{i*theta} g(0) together with the same condition on g'; compliance is
    what cancels the boundary terms of the double integration by parts, so
    a noncompliant test function raises ValueError.  g' is probed by
    one-sided second-order finite differences.  Uses the uniform rectangle
    rule (the trapezoid rule for the twisted-periodic integrand), so
    eigenmode residuals scale as (beta/m)^2; on the eigenmode e^{i nu t},
    nu = theta/beta, the residual is exactly |h lambda_0 (nu^2 + omega^2) -
    1| with lambda_0 = grid_spectrum(...)[0].  The grid acts as carrier *
    ifft(lambda * fft(source / carrier)), lambda the FFT of its
    carrier-stripped lag values.  RangeError where the source -g'' +
    omega^2 g is beyond the float range (omega^2 overflows from omega ~
    1e154 on).
    """
    twist = cmath.exp(1j * theta)
    scale = max(abs(g(0.0)), abs(g(0.5 * beta)), 1e-30)
    defect = abs(g(beta) - twist * g(0.0))
    h = beta * 1e-6

    def deriv(t0, sign):
        return (
            -3.0 * g(t0) + 4.0 * g(t0 + sign * h) - g(t0 + 2.0 * sign * h)
        ) / (2.0 * sign * h)

    d_defect = abs(deriv(beta, -1.0) - twist * deriv(0.0, 1.0)) * h
    defect = max(defect / scale, d_defect / scale)
    if defect > BOUNDARY_TOL:
        raise ValueError(
            f"test function violates the twisted boundary condition "
            f"(relative defect {defect:.3e})"
        )
    sampled = correlation.sample_kernels(beta, [omega], [theta], m)
    times = sampled.times()
    w2 = omega * omega
    with np.errstate(over="ignore", invalid="ignore"):
        source = np.array([-g_second(s) + w2 * g(s) for s in times])
    if not np.isfinite(source).all():
        raise RangeError(f"resolvent source at omega={omega} is outside the float range")
    target = np.array([g(t) for t in times])
    carrier = np.exp(1j * (np.arange(m) / m * theta))
    lam = np.fft.fft(np.array([row[0] for row in sampled.lags]) / carrier).real
    values = (beta / m) * (carrier * np.fft.ifft(lam * np.fft.fft(source / carrier)))
    return float(np.abs(values - target).max())
