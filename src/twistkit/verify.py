"""Named verification suites over a (spectrum, symmetry) configuration.

Each suite runs a fixed list of checks and returns structured results;
the CLI renders them and sets the exit code; ``partition`` and ``kernel
--verify`` render :func:`partition_row` and :func:`kernel_agreement`, the
checks the suites of those names run.

The ``ccr``, ``tc`` and ``symmetry`` suites and the doubled-field checks
of ``realfield`` act with the matrix-free Fock oracle of
:mod:`twistkit.fock` at :func:`twistkit.fock.oracle_cutoff` (8, 8, 5, 2, 2
for 1-5 modes; CapacityError, exit 3, from six modes on).  An operator
identity A B = C is checked as A(Bv) - Cv on seeded standard-normal states
v supported on the sub-cutoff block, compared on the sub-cutoff rows; the
two exact checks (threshold 0) probe where no rounding enters, a basis
state and the all-ones state.  The inner-product checks of TC and U use
seeded unit states on the sub-cutoff block.

Only the dense suites and :func:`kernel_agreement` import numpy and the
Fock, kernel and doubled-field modules, inside the functions that use them,
so :class:`CheckResult`, :data:`SUITES`, :func:`run_suite` and
:func:`partition_row` load on ``math`` alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Optional

from . import partition
from .errors import ConfigError, DomainError, KindError
from .spectrum import ANTIUNITARY, UNITARY, ModeSpectrum, SymmetrySpec, validate_spectrum

if TYPE_CHECKING:
    import numpy as np

    from . import correlation, fock

SUITES = ("ccr", "tc", "symmetry", "partition", "kernel", "realfield", "all")


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    deviation: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.deviation <= self.threshold


def _max_abs(values: np.ndarray) -> float:
    import numpy as np

    return float(np.abs(values).max()) if np.size(values) else 0.0


def _random_coeffs(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.normal(size=n) + 1j * rng.normal(size=n)


def _oracle_space(spectrum: ModeSpectrum) -> fock.FockSpace:
    from . import fock

    return fock.FockSpace(spectrum, fock.oracle_cutoff(len(spectrum)))


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
        # U alpha U* = c beta, as U alpha v = c beta U v
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


#: Name of the twisted partition check and its slack on top of the tail
#: bound, by symmetry kind; both kinds share one closed form and one trace.
_TWISTED_ROUTE = {
    UNITARY: ("unitary product formula", 1e-10),
    ANTIUNITARY: ("antiunitary square-root identity", 1e-8),
}


def partition_row(
    spectrum: ModeSpectrum, sym: Optional[SymmetrySpec], beta: float, cutoff: int
) -> tuple[tuple[float, ...], list[CheckResult]]:
    """One partition table row and the checks on it.

    Columns: beta, z_untwisted, z_twisted, lower_bound, oracle_z, rel_err,
    tail_bound (the untwisted one).  Checks: each closed-form Z against its
    truncated trace at ``cutoff`` (compared as complex numbers, within the
    route's tail bound plus a per-kind slack), and for a unitary twist the
    positivity lower bound.
    """
    z_plain = partition.z_untwisted(spectrum, beta)
    bound = partition.positivity_lower_bound(spectrum, beta)
    tail = partition.truncation_tail_bound(spectrum, beta, cutoff) if len(spectrum) else 0.0
    trace = partition.partition_trace(spectrum, None, beta, cutoff)
    # (route, closed form, truncated trace, threshold)
    routes = [("untwisted product formula", z_plain, trace, tail + 1e-10)]
    if sym is not None:
        name, slack = _TWISTED_ROUTE[sym.kind]
        trace = partition.partition_trace(spectrum, sym, beta, cutoff)
        twisted_tail = partition.twisted_tail_bound(spectrum, beta, cutoff)
        routes.append((name, partition.z_twisted(spectrum, sym, beta), trace, twisted_tail + slack))
    checks = [
        CheckResult("partition", f"{name} vs truncated trace", abs(value - oracle) / value, threshold)
        for name, value, oracle, threshold in routes
    ]
    _, z, trace, _ = routes[-1]
    rel = checks[-1].deviation
    if sym is not None and sym.kind == UNITARY:
        positivity = max(0.0, bound - z)
        checks.append(CheckResult("partition", "twist positivity lower bound", positivity, 1e-14 * z))
    return (beta, z_plain, z, bound, trace.real, rel, tail), checks


def suite_partition(
    spectrum: ModeSpectrum, sym: Optional[SymmetrySpec], seed: int = 0
) -> list[CheckResult]:
    import numpy as np

    from . import realfield

    beta = 1.0
    columns, results = partition_row(spectrum, sym, beta, cutoff=40)
    z = columns[2]
    if sym is not None and sym.kind == ANTIUNITARY:
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
    # finite trace bound: sum e^{-bw}/(1-e^{-bw}) <= (1-e^{-b mu})^{-1} sum e^{-bw}
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(100):
        omegas = rng.uniform(0.3, 4.0, size=rng.integers(1, 6))
        mu = float(omegas.min())
        b = float(rng.uniform(0.2, 3.0))
        lhs = float(np.sum(np.exp(-b * omegas) / (1.0 - np.exp(-b * omegas))))
        rhs = float(np.sum(np.exp(-b * omegas)) / (1.0 - math.exp(-b * mu)))
        worst = max(worst, lhs - rhs)
    results.append(CheckResult("partition", "trace-class bound on random spectra", worst, 1e-12))
    return results


def kernel_agreement(
    kern: correlation.TwistedKernel, rho: complex, points: Iterable[tuple[float, float]]
) -> tuple[float, list[CheckResult]]:
    """The closed-form kernel of phase ``rho`` against both oracles.

    At each (t, s) point: the Fock trace at cutoff 800 (within its tail
    bound + 1e-8) and the 4000-term Fourier sum (within its tail bound).
    Also returns the worst disagreement the truncations do not explain:
    the largest Fock deviation or Fourier excess over its tail bound.
    """
    from . import correlation

    beta = kern.beta
    single = validate_spectrum([("k", kern.omega)])
    single_sym = SymmetrySpec(kind=UNITARY, phases=(rho,))
    cutoff = 800
    worst_oracle = worst_fourier = fourier_tail = 0.0
    for t, s in points:
        closed = kern(t, s)
        oracle = correlation.kernel_oracle(single, single_sym, beta, t, s, cutoff)
        worst_oracle = max(worst_oracle, abs(closed - oracle))
        four, fourier_tail = correlation.kernel_fourier(kern.omega, kern.theta, beta, t, s, 4000)
        worst_fourier = max(worst_fourier, abs(closed - four))
    tail = partition.truncation_tail_bound(single, beta, cutoff)
    checks = [
        CheckResult("kernel", "closed form vs Fock-trace oracle", worst_oracle, tail + 1e-8),
        CheckResult("kernel", "closed form vs Fourier partial sum", worst_fourier, fourier_tail),
    ]
    return max(worst_oracle, worst_fourier - fourier_tail), checks


def suite_kernel(
    spectrum: ModeSpectrum, sym: Optional[SymmetrySpec], seed: int = 0
) -> list[CheckResult]:
    import numpy as np

    from . import correlation

    if len(spectrum) == 0:
        return [CheckResult("kernel", "empty-spectrum (vacuous)", 0.0, 0.0)]
    if sym is not None and sym.kind != UNITARY:
        raise KindError("kernel suite needs a unitary (or absent) symmetry")
    rho = complex(sym.phases[0]) if sym is not None else 1.0 + 0.0j
    beta = 1.0
    theta = correlation.kernel_twist_angle(rho)
    kern = correlation.TwistedKernel(spectrum.omegas[0], theta, beta)
    rng = np.random.default_rng(seed)
    points = [tuple(rng.uniform(0.0, beta, size=2)) for _ in range(20)]
    _, results = kernel_agreement(kern, rho, points)
    grid = correlation.kernel_grid(kern, 32)
    results.append(
        CheckResult(
            "kernel",
            "sampled kernel Hermitian",
            _max_abs(grid.matrix - grid.matrix.conj().T),
            1e-10,
        )
    )
    eigs = np.linalg.eigvalsh(grid.matrix)
    results.append(
        CheckResult("kernel", "sampled kernel positive definite", max(0.0, -float(eigs.min())), 0.0)
    )
    m = 128
    nu = (theta + 2.0 * math.pi * 0) / beta

    def g(t_: float) -> complex:
        return np.exp(1j * nu * t_)

    def g2(t_: float) -> complex:
        return -(nu**2) * np.exp(1j * nu * t_)

    report = correlation.verify_resolvent(kern, g, g2, m=m)
    results.append(
        CheckResult(
            "kernel",
            "resolvent residual on twisted eigenmode",
            report.max_residual,
            5.0 * (beta / m) ** 2,
        )
    )
    return results


def suite_realfield(
    spectrum: ModeSpectrum, sym: Optional[SymmetrySpec], seed: int = 0
) -> list[CheckResult]:
    import numpy as np

    from . import fock, realfield

    if sym is None:
        raise ConfigError("realfield suite requires a symmetry in the config")
    if len(spectrum) == 0:
        return [CheckResult("realfield", "empty-spectrum (vacuous)", 0.0, 0.0)]
    results: list[CheckResult] = []
    ext = realfield.extend(spectrum, sym)
    phases = ext.phases
    conj_defect = 0.0
    for p in phases:
        conj_defect = max(conj_defect, float(np.abs(phases - np.conj(p)).min()))
    results.append(
        CheckResult(
            "realfield", "induced eigenphases closed under conjugation", conj_defect, 1e-10
        )
    )
    beta = 1.0
    value = realfield.extended_kernel(ext, beta, 0.3, 0.1)
    m = len(spectrum)
    off = max(_max_abs(value.block[:m, m:]), _max_abs(value.block[m:, :m])) if m else 0.0
    if sym.kind == UNITARY:
        results.append(
            CheckResult("realfield", "unitary input: sector-mixing blocks vanish", off, 1e-12)
        )
    grid = realfield.extended_kernel_grid(ext, beta, 12)
    eigs = np.linalg.eigvalsh(grid)
    results.append(
        CheckResult(
            "realfield",
            "sampled extended kernel positive definite",
            max(0.0, -float(eigs.min())),
            0.0,
        )
    )
    report = realfield.real_field_checks(ext, sym, fock.oracle_cutoff(len(spectrum)), seed=seed)
    for key, dev in report.items():
        results.append(CheckResult("realfield", f"doubled-field oracle: {key}", dev, 1e-8))
    return results


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
        if sym is not None and sym.kind == ANTIUNITARY and suite_name == "kernel":
            continue
        results.extend(func(spectrum, sym, seed=seed))
    return results
