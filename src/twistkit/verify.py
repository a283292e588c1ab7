"""Named verification suites over a (spectrum, symmetry) configuration.

Each suite runs a fixed list of checks and returns structured results;
the CLI renders them and sets the exit code; ``partition`` and ``kernel
--verify`` render :func:`partition_row`, :func:`kernel_agreement` and
:func:`sampled_kernel_checks`, the checks the ``partition``, ``kernel``
and ``realfield`` suites run.  Sampled kernels are checked through the
closed-form spectra of their twisted-circulant eigenmode grids, never a
dense grid: positivity reads the closed form (an empty layout is
vacuously positive), and a pure-Python transform of the exported lag values ties them to it.  The
``realfield`` suite reads its sector-mixing blocks from the same sampled
layout.  The ``kernel`` suite's resolvent check reads the eigenmode
residual of the 128-point grid from one sum of its lag values, and it is
two-sided: the residual must match its closed form, not merely stay below
it.

The ``ccr``, ``tc`` and ``symmetry`` suites and the doubled-field checks
of ``realfield`` (:func:`doubled_field_checks`, the real-time field of the
doubled theory) act with the matrix-free Fock oracle of
:mod:`twistkit.fock` at :func:`twistkit.fock.oracle_cutoff` (8, 8, 5, 2, 2
for 1-5 modes; CapacityError, exit 3, from six modes on).  An operator
identity A B = C is checked as A(Bv) - Cv on seeded standard-normal states
v supported on the sub-cutoff block, compared on the sub-cutoff rows; the
two exact checks (threshold 0) probe where no rounding enters, a basis
state and the all-ones state.  The inner-product checks of TC and U use
seeded unit states on the sub-cutoff block.

Routes and checks choose their path from the symmetry's
:class:`~twistkit.spectrum.SlotAction`, not its kind (the scalar kernel
needs a diagonal one), except the ``symmetry`` suite: its rules, read from
the raw phases and pairing, are what the normal form is checked against.

Only the dense suites import numpy and :mod:`twistkit.fock`, inside the
functions that use them, so :class:`CheckResult`,
:data:`SUITES`, :func:`run_suite`, :func:`partition_row`, the ``kernel``
and ``partition`` suites (the latter's doubled-theory route on a
non-diagonal action included) and the sampled kernel checks of any
sampled kernel (``kernel --extended --verify``) run on ``math`` alone.
The oracle checks of the closed form, :func:`kernel_agreement`, compare
at integer lags of a grid, where the Fourier partial sum is one fold per
kernel: ``kernel --verify`` at all 2m - 1 lags of its m = min(grid, 8)
grid, and the ``kernel`` suite at 20 lags of its 128-point grid drawn
from ``random.Random(seed)``.
"""

from __future__ import annotations

import cmath
import math
import sys
from typing import TYPE_CHECKING, Callable, Iterable, Optional

from . import partition
from .errors import ConfigError, DomainError, KindError, RangeError
from .spectrum import UNITARY, ModeSpectrum, SymmetrySpec, slot_action, validate_spectrum

if TYPE_CHECKING:
    import numpy as np

    from . import correlation, fock, realfield

#: Machine epsilon, 2^-52.
_EPS = sys.float_info.epsilon

SUITES = ("ccr", "tc", "symmetry", "partition", "kernel", "realfield", "all")


class CheckResult:
    """One check: its suite, its name, the deviation found and the threshold
    it must not exceed."""

    def __init__(self, suite: str, name: str, deviation: float, threshold: float):
        self.suite, self.name, self.deviation, self.threshold = suite, name, deviation, threshold

    @property
    def passed(self) -> bool:
        return self.deviation <= self.threshold


def _max_abs(values: np.ndarray) -> float:
    import numpy as np

    return float(np.abs(values).max()) if np.size(values) else 0.0


def _random_coeffs(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.normal(size=n) + 1j * rng.normal(size=n)


def _oracle_space(spectrum: ModeSpectrum, cutoff: Optional[int] = None) -> fock.FockSpace:
    from . import fock

    return fock.FockSpace(spectrum, fock.oracle_cutoff(len(spectrum)) if cutoff is None else cutoff)


def _unit_states(space: fock.FockSpace, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Two seeded random unit states on the sub-cutoff block, for inner products."""
    import numpy as np

    x, y = space.random_state(rng), space.random_state(rng)
    return x / np.linalg.norm(x), y / np.linalg.norm(y)


def suite_ccr(spectrum: ModeSpectrum, sym, seed: int = 0) -> list[CheckResult]:
    import numpy as np

    from . import fock

    results: list[CheckResult] = []
    if len(spectrum) == 0:
        return [CheckResult("ccr", "empty-spectrum (vacuous)", 0.0, 0.0)]
    space = _oracle_space(spectrum)
    rng = np.random.default_rng(seed)
    f = _random_coeffs(rng, len(spectrum))
    g = _random_coeffs(rng, len(spectrum))
    v = space.random_state(rng)

    inner_gf = complex(np.vdot(g, f))  # <g, f>
    a_plus = fock.annihilation_functional(space, "+", f)
    a_plus_star = fock.creation_functional(space, "+", g)
    results.append(
        CheckResult(
            "ccr",
            "[A+(f), A+*(g-bar)] = <g,f> on sub-cutoff block",
            _max_abs(fock.sub_commutator(space, a_plus, a_plus_star, v) - inner_gf * v),
            1e-12,
        )
    )
    a_minus = fock.annihilation_functional(space, "-", g)
    a_minus_star = fock.creation_functional(space, "-", f)
    results.append(
        CheckResult(
            "ccr",
            "[A-(g-bar), A-*(f)] = <g,f> on sub-cutoff block",
            _max_abs(fock.sub_commutator(space, a_minus, a_minus_star, v) - inner_gf * v),
            1e-12,
        )
    )
    # Exact zero, on a basis state, where each entry of either order is one
    # product of two coefficients.  Splitting g-bar = Re g - i Im g keeps one
    # of the two real, so both orders round alike.
    e = np.zeros((space.cutoff,) * space.n_slots, dtype=complex)
    e[tuple(rng.integers(0, space.cutoff, size=space.n_slots))] = 1.0

    def cross_commutator(part: np.ndarray) -> float:
        plus = fock.creation_functional(space, "+", part)
        lhs = fock.apply_field(space, plus, fock.apply_field(space, a_minus_star, e))
        lhs -= fock.apply_field(space, a_minus_star, fock.apply_field(space, plus, e))
        return _max_abs(lhs)

    cross = max(cross_commutator(g.real), cross_commutator(g.imag))
    results.append(CheckResult("ccr", "[A+*(g-bar), A-*(f)] = 0 on full space", cross, 0.0))
    # dynamics: e^{itH} A+*(f-bar) e^{-itH} = A+*((e^{-it omega} f)-bar)
    t = 0.83
    u_t = np.exp(1j * t * space.sub_block(space.energies()))
    evolved = u_t * fock.apply_field(
        space, fock.creation_functional(space, "+", f), np.conj(u_t) * v, subcutoff=True
    )
    shifted = fock.creation_functional(
        space, "+", f * np.exp(-1j * t * np.asarray(spectrum.omegas))
    )
    evolved -= fock.apply_field(space, shifted, v, subcutoff=True)
    results.append(
        CheckResult("ccr", "Heisenberg dynamics of A+* on sub-cutoff block", _max_abs(evolved), 1e-10)
    )
    return results


def suite_tc(spectrum: ModeSpectrum, sym: Optional[SymmetrySpec], seed: int = 0) -> list[CheckResult]:
    import numpy as np

    from . import fock

    results: list[CheckResult] = []
    space = _oracle_space(spectrum)
    rng = np.random.default_rng(seed)

    def tc(state: np.ndarray) -> np.ndarray:
        return fock.apply_tc(space, state)

    x, y = _unit_states(space, rng)
    results.append(CheckResult("tc", "TC squares to the identity", _max_abs(tc(tc(x)) - x), 0.0))
    lhs = complex(np.vdot(tc(x), tc(y)))
    rhs = complex(np.vdot(x, y)).conjugate()
    results.append(CheckResult("tc", "TC is antiunitary on random vectors", abs(lhs - rhs), 1e-12))
    v = space.random_state(rng)
    if len(spectrum) > 0:
        f = _random_coeffs(rng, len(spectrum))
        # TC A+*(f-bar) TC = A-*(f), as TC A+*(f-bar) v = A-*(f) TC v
        plus = fock.creation_functional(space, "+", f)
        minus = fock.creation_functional(space, "-", f)
        residual = tc(fock.apply_field(space, plus, v, subcutoff=True))
        residual -= fock.apply_field(space, minus, tc(v), subcutoff=True)
        results.append(
            CheckResult(
                "tc", "TC A+*(f-bar) TC = A-*(f) on sub-cutoff block", _max_abs(residual), 1e-12
            )
        )
        t = 0.41
        phi = fock.imaginary_time_field(space, t, f, conjugate=False)
        phibar = fock.imaginary_time_field(space, t, f, conjugate=True)
        residual = tc(fock.apply_field(space, phi, v, subcutoff=True))
        residual -= fock.apply_field(space, phibar, tc(v), subcutoff=True)
        results.append(
            CheckResult(
                "tc",
                "TC phi(t, f-bar) TC = phibar(t, f) on sub-cutoff block",
                _max_abs(residual),
                1e-10,
            )
        )
    if sym is not None:
        residual = fock.apply_symmetry(space, sym, tc(v)) - tc(fock.apply_symmetry(space, sym, v))
        results.append(CheckResult("tc", "[U_S, TC] = 0", _max_abs(residual), 1e-12))
    return results


def suite_symmetry(
    spectrum: ModeSpectrum, sym: Optional[SymmetrySpec], seed: int = 0
) -> list[CheckResult]:
    import numpy as np

    from . import fock

    if sym is None:
        raise ConfigError("symmetry suite requires a symmetry in the config")
    results: list[CheckResult] = []
    space = _oracle_space(spectrum)
    rng = np.random.default_rng(seed)

    def u(state: np.ndarray) -> np.ndarray:
        return fock.apply_symmetry(space, sym, state)

    x, y = _unit_states(space, rng)
    # U*U = I: U keeps every inner product
    unitarity = abs(complex(np.vdot(u(x), u(y))) - complex(np.vdot(x, y)))
    results.append(CheckResult("symmetry", "U is unitary", unitarity, 1e-12))
    # Exact zero, on the full space: U is a phase times a basis permutation,
    # so U H 1 - H U 1 is phase * (E(n) - E(U n)), one product per entry.
    energies = space.energies()
    h_u_ones = u(np.ones(space.shape))
    h_u_ones *= energies
    commutator = u(energies)
    commutator -= h_u_ones
    results.append(CheckResult("symmetry", "[U, H] = 0", _max_abs(commutator), 0.0))
    del energies, h_u_ones, commutator  # three full-space tensors; keeps peak memory down
    vac = space.vacuum()
    results.append(CheckResult("symmetry", "U fixes the vacuum", _max_abs(u(vac) - vac), 0.0))
    v = space.random_state(rng)
    uv = u(v)
    for k, lbl in enumerate(spectrum.labels):
        # U alpha U* = c beta, as U alpha v = c beta U v.  The rule is read
        # from the raw config, per kind, never from sym.action: this suite
        # is what catches a broken slot-action normal form.
        if sym.kind == UNITARY:
            expected = fock.creation(space, "+", lbl) * sym.phases[k]
            name = f"U alpha+*({lbl}) U* = rho alpha+*({lbl})"
        else:
            partner = sym.partners[k]
            expected = fock.creation(space, "-", partner) * sym.phases[spectrum.labels.index(partner)]
            name = f"U alpha+*({lbl}) U* = eta alpha-*(pi({lbl}))"
        residual = u(fock.apply_field(space, fock.creation(space, "+", lbl), v, subcutoff=True))
        residual -= fock.apply_field(space, expected, uv, subcutoff=True)
        results.append(CheckResult("symmetry", name, _max_abs(residual), 1e-12))
    return results


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
    tail = partition.truncation_tail_bound(spectrum, beta, cutoff) if len(spectrum) else 0.0
    trace = partition.partition_trace(spectrum, None, beta, cutoff)
    # (route, closed form, truncated trace, threshold)
    routes = [("untwisted product formula", z, trace, tail + 1e-10)]
    if sym is not None:
        diagonal = slot_action(spectrum, sym).diagonal
        name = "unitary product formula" if diagonal else "antiunitary square-root identity"
        z = partition.z_twisted(spectrum, sym, beta)
        trace = partition.partition_trace(spectrum, sym, beta, cutoff)
        twisted_tail = partition.twisted_tail_bound(spectrum, beta, cutoff)
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


def suite_partition(
    spectrum: ModeSpectrum, sym: Optional[SymmetrySpec], seed: int = 0
) -> list[CheckResult]:
    beta = 1.0
    columns, results = partition_row(spectrum, sym, beta, cutoff=40)
    z = columns[2]
    if not slot_action(spectrum, sym).diagonal:
        from . import realfield

        ext = realfield.extend(spectrum, sym)
        z_rf = realfield.z_via_realfield(ext, beta)
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
    kern: correlation.TwistedKernel, rho: complex, m: int, lags: Iterable[int]
) -> tuple[float, list[CheckResult]]:
    """The closed-form kernel of phase ``rho`` against both oracles, at
    integer lags d in (-m, m) of the m-point grid: the point (d*beta/m, 0)
    for d >= 0 and (0, -d*beta/m) for d < 0.

    At each point: the Fock trace at cutoff 800 (within its tail bound +
    1e-8) and the 4000-term Fourier sum (within its tail bound), which
    :func:`~twistkit.correlation.kernel_fourier` gives at every lag of the
    grid at once.  Also returns the worst disagreement the truncations do
    not explain: the largest Fock deviation or Fourier excess over its tail
    bound.
    """
    from . import correlation

    beta = kern.beta
    single = validate_spectrum([("k", kern.omega)])
    single_sym = SymmetrySpec(kind=UNITARY, phases=(rho,))
    cutoff = 800
    fourier, fourier_tail = correlation.kernel_fourier(kern.omega, kern.theta, beta, m, 4000)
    worst_oracle = worst_fourier = 0.0
    for d in lags:
        t, s = (d * beta / m, 0.0) if d >= 0 else (0.0, -d * beta / m)
        closed = kern(t, s)
        oracle = correlation.kernel_oracle(single, single_sym, beta, t, s, cutoff)
        worst_oracle = max(worst_oracle, abs(closed - oracle))
        worst_fourier = max(worst_fourier, abs(closed - fourier[d]))
    tail = partition.truncation_tail_bound(single, beta, cutoff)
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
    theta = correlation.kernel_twist_angle(rho)
    kern = correlation.TwistedKernel(spectrum.omegas[0], theta, beta)
    m = 128
    rng = random.Random(seed)
    _, results = kernel_agreement(kern, rho, m, [rng.randrange(1 - m, m) for _ in range(20)])
    sampled = correlation.sample_kernels([kern], beta, 32)
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
    h, w2 = beta / m, nu * nu + kern.omega * kern.omega
    if not math.isfinite(w2):
        raise RangeError(f"resolvent residual at omega={kern.omega} is outside the float range")
    lags = correlation.sample_kernels([kern], beta, m).lags
    lam_hat = math.fsum(
        (row[0] * cmath.rect(1.0, -theta * j / m)).real for j, row in enumerate(lags)
    )
    lam = correlation.grid_spectrum(kern.omega, theta, beta, m)
    results.append(
        CheckResult(
            "kernel",
            "resolvent residual on twisted eigenmode",
            h * w2 * abs(lam_hat - lam[0]),
            16 * _EPS * h * max(lam) * w2,
        )
    )
    return results


def doubled_field_checks(
    ext: realfield.ExtendedSpectrum, sym: SymmetrySpec, cutoff: Optional[int] = None, seed: int = 0
) -> list[CheckResult]:
    """Fock-oracle checks of the real-time doubled field at t = 0.37.

    With A*(c, d) = sum_k c_k alpha+*(k) + d_k alpha-*(k), the natural
    conjugation J(c, d) = (conj(d), conj(c)) and A(q) = A*(Jq)*, the field is
    psi(t, q) = (1/sqrt 2) [A*(omega^{-1/2} e^{i t omega} q)
    + A(omega^{-1/2} e^{-i t omega} q)].  On seeded states supported on the
    sub-cutoff block (``cutoff`` defaults to the oracle's): adjoint
    covariance psi(t,q)* = psi(t, Jq) as <x, psi(t,q) v> = <psi(t,Jq) x, v>;
    the equal-time commutator [psi(t,q), psi(t,r)] = 0; the canonical pair
    [psi, d/dt psi] = i<Jq, r>, d/dt by centered differences with one
    Richardson step; [A(q), A*(r)] = <Jq, r>; and the symmetry covariance
    U psi(t, q) U* = psi(t, U* q), as U psi(t, q) v = psi(t, U* q) U v, with
    (U* q)_c = conj(u_c) q_sigma(c) read from ``ext.images``.
    """
    import numpy as np

    from . import fock

    space = _oracle_space(ext.base, cutoff)
    rng = np.random.default_rng(seed)
    n = ext.n_doubled
    q, r = _random_coeffs(rng, n), _random_coeffs(rng, n)
    v, x = space.random_state(rng), space.random_state(rng)
    w = np.array(ext.doubled_omegas())
    t = 0.37

    def conj(vec: np.ndarray) -> np.ndarray:  # J: the conjugate of the half-swap
        return np.conj(np.roll(vec, n // 2))

    def create(vec: np.ndarray) -> np.ndarray:  # A*(c, d)
        plus = fock.creation_functional(space, "+", np.conj(vec[: n // 2]))
        return plus + fock.creation_functional(space, "-", vec[n // 2 :])

    def psi(time: float, vec: np.ndarray) -> np.ndarray:
        up = vec * np.exp(1j * time * w) / np.sqrt(w)
        down = vec * np.exp(-1j * time * w) / np.sqrt(w)
        return (create(up) + fock.adjoint(create(conj(down)))) / math.sqrt(2.0)

    def act(field: np.ndarray, state: np.ndarray) -> np.ndarray:
        return fock.apply_field(space, field, state, subcutoff=True)

    def ddt(h: float) -> np.ndarray:
        return (psi(t + h, r) - psi(t - h, r)) / (2.0 * h)

    psi_q = psi(t, q)
    psi_q_v = act(psi_q, v)
    pairing = complex(np.dot(conj(q).conjugate(), r))
    dpsi = (4.0 * ddt(0.5e-3) - ddt(1e-3)) / 3.0
    images = (ext.images[c] for c in range(n))
    u_star_q = np.array([u.conjugate() * q[target] for target, u in images])
    deviations = {
        "adjoint_covariance": abs(np.vdot(x, psi_q_v) - np.vdot(act(psi(t, conj(q)), x), v)),
        "equal_time_commutator": _max_abs(fock.sub_commutator(space, psi_q, psi(t, r), v)),
        "canonical_pair": _max_abs(fock.sub_commutator(space, psi_q, dpsi, v) - 1j * pairing * v),
        "ccr_doubled": _max_abs(
            fock.sub_commutator(space, fock.adjoint(create(conj(q))), create(r), v) - pairing * v
        ),
        "symmetry_covariance": _max_abs(
            fock.apply_symmetry(space, sym, psi_q_v)
            - act(psi(t, u_star_q), fock.apply_symmetry(space, sym, v))
        ),
    }
    return [
        CheckResult("realfield", f"doubled-field oracle: {key}", float(dev), 1e-8)
        for key, dev in deviations.items()
    ]


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
    return results + sampled_kernel_checks(sampled) + doubled_field_checks(ext, sym, seed=seed)


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
