"""The dense verify suites: Fock-oracle checks of the field identities.

The ``ccr``, ``tc`` and ``symmetry`` suites of :mod:`twistkit.verify` and
the doubled-field checks of its ``realfield`` suite
(:func:`doubled_field_checks`, the real-time field of the doubled theory)
act with the matrix-free Fock oracle of :mod:`twistkit.fock`.  Each runs
once per factor of the space (:func:`twistkit.fock.factors`: the smallest
sets of modes closed under the slot action), on the factor's own spectrum
and symmetry, at :func:`twistkit.fock.oracle_cutoff` of the factor's mode
count: 8 for the one- and two-mode factors of every involutive pairing, at
most 6561 states, at any mode count (CapacityError, exit 3, only for a
factor of six or more modes).  An identity holds on the space exactly when
it holds on every factor, so each check reports the worst deviation over
the factors (:func:`_factored`).  Each of these checks runs once more on
the union of the first two factors, named with
:data:`CROSS_FACTOR_SUFFIX`, at most 6561 states
(:data:`twistkit.fock.CROSS_STATES`), with its symmetry: there a field or
a phase read at the wrong mode fails.

An operator identity A B = C is checked as A(Bv) - Cv on seeded
standard-normal states v supported on the sub-cutoff block, compared on
the sub-cutoff rows; the two exact checks (threshold 0) probe where no
rounding enters, a basis state and the all-ones state.  The inner-product
checks of TC and U use seeded unit states on the sub-cutoff block.  Each
suite seeds one ``random.Random(seed)`` (MT19937) and draws from it, in a
fixed order and factor by factor in order of smallest mode, every
coefficient vector and state as standard complex normals (Box-Muller,
:func:`twistkit.fock.standard_normals`) and the basis state's occupations
by ``randrange``, so no suite loads ``numpy.random``.

The ``symmetry`` suite reads its rules from the raw phases and pairing,
per kind, never from the slot action: they are what the normal form is
checked against.

This is the one module of the verify suites that imports numpy and
:mod:`twistkit.fock`; :mod:`twistkit.verify` imports it only when a dense
suite runs, so every other job leaves it, and numpy, unloaded.
"""

from __future__ import annotations

import random

# realfield (and correlation with it) and fock load before numpy, so a job
# compiles every twistkit module it needs while its heap is still small.
from . import realfield
from . import fock
import numpy as np

from .spectrum import UNITARY, ModeSpectrum, SymmetrySpec
from .verify import CheckResult, _worst

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Callable, Optional


def _max_abs(values: np.ndarray) -> float:
    return float(np.abs(values).max()) if np.size(values) else 0.0


def _oracle_space(spectrum: ModeSpectrum, cutoff: Optional[int] = None) -> fock.FockSpace:
    return fock.FockSpace(spectrum, fock.oracle_cutoff(len(spectrum)) if cutoff is None else cutoff)


def _unit_states(space: fock.FockSpace, rng: random.Random) -> tuple[np.ndarray, np.ndarray]:
    """Two seeded random unit states on the sub-cutoff block, for inner products."""
    x, y = space.random_state(rng), space.random_state(rng)
    return x / np.linalg.norm(x), y / np.linalg.norm(y)


def _ccr_checks(
    spectrum: ModeSpectrum, sym, rng: random.Random, cutoff: Optional[int]
) -> list[CheckResult]:
    results: list[CheckResult] = []
    if len(spectrum) == 0:
        return [CheckResult("ccr", "empty-spectrum (vacuous)", 0.0, 0.0)]
    space = _oracle_space(spectrum, cutoff)
    f = fock.standard_normals(rng, len(spectrum))
    g = fock.standard_normals(rng, len(spectrum))
    v = space.random_state(rng)

    zero = np.zeros(len(spectrum), dtype=complex)
    inner_gf = complex(np.vdot(g, f))  # <g, f>
    a_plus = fock.annihilation(space, np.concatenate([zero, f]))  # A+(f) = A(0, f)
    a_plus_star = fock.creation(space, np.concatenate([g.conj(), zero]))  # A+*(g-bar)
    results.append(
        CheckResult(
            "ccr",
            "[A+(f), A+*(g-bar)] = <g,f> on sub-cutoff block",
            _max_abs(fock.sub_commutator(space, a_plus, a_plus_star, v) - inner_gf * v),
            1e-12,
        )
    )
    a_minus = fock.annihilation(space, np.concatenate([g.conj(), zero]))  # A-(g-bar)
    a_minus_star = fock.creation(space, np.concatenate([zero, f]))  # A-*(f) = A*(0, f)
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
    e[tuple(rng.randrange(space.cutoff) for _ in range(space.n_slots))] = 1.0

    def cross_commutator(part: np.ndarray) -> float:
        plus = fock.creation(space, np.concatenate([part, zero]))
        lhs = fock.apply_field(space, plus, fock.apply_field(space, a_minus_star, e))
        lhs -= fock.apply_field(space, a_minus_star, fock.apply_field(space, plus, e))
        return _max_abs(lhs)

    cross = max(cross_commutator(g.real), cross_commutator(g.imag))
    results.append(CheckResult("ccr", "[A+*(g-bar), A-*(f)] = 0 on full space", cross, 0.0))
    # dynamics: e^{itH} A+*(f-bar) e^{-itH} = A+*((e^{-it omega} f)-bar)
    t = 0.83
    u_t = np.exp(1j * t * space.sub_block(space.energies()))
    plus = fock.creation(space, np.concatenate([f.conj(), zero]))  # A+*(f-bar)
    evolved = u_t * fock.apply_field(space, plus, np.conj(u_t) * v, subcutoff=True)
    f_t = np.conj(f * np.exp(-1j * t * np.asarray(spectrum.omegas)))
    shifted = fock.creation(space, np.concatenate([f_t, zero]))
    evolved -= fock.apply_field(space, shifted, v, subcutoff=True)
    results.append(
        CheckResult("ccr", "Heisenberg dynamics of A+* on sub-cutoff block", _max_abs(evolved), 1e-10)
    )
    return results

def _tc_checks(
    spectrum: ModeSpectrum, sym: Optional[SymmetrySpec], rng: random.Random, cutoff: Optional[int]
) -> list[CheckResult]:
    results: list[CheckResult] = []
    space = _oracle_space(spectrum, cutoff)

    def tc(state: np.ndarray) -> np.ndarray:
        return fock.apply_tc(space, state)

    x, y = _unit_states(space, rng)
    results.append(CheckResult("tc", "TC squares to the identity", _max_abs(tc(tc(x)) - x), 0.0))
    lhs = complex(np.vdot(tc(x), tc(y)))
    rhs = complex(np.vdot(x, y)).conjugate()
    results.append(CheckResult("tc", "TC is antiunitary on random vectors", abs(lhs - rhs), 1e-12))
    v = space.random_state(rng)
    if len(spectrum) > 0:
        f = fock.standard_normals(rng, len(spectrum))
        zero = np.zeros(len(spectrum), dtype=complex)
        q_plus, q_minus = np.concatenate([f.conj(), zero]), np.concatenate([zero, f])
        # TC A+*(f-bar) TC = A-*(f), as TC A+*(f-bar) v = A-*(f) TC v
        plus, minus = fock.creation(space, q_plus), fock.creation(space, q_minus)
        residual = tc(fock.apply_field(space, plus, v, subcutoff=True))
        residual -= fock.apply_field(space, minus, tc(v), subcutoff=True)
        results.append(
            CheckResult(
                "tc", "TC A+*(f-bar) TC = A-*(f) on sub-cutoff block", _max_abs(residual), 1e-12
            )
        )
        # phi(t, f-bar) = psi(it, (f-bar, 0)) and phibar(t, f) = psi(it, (0, f))
        t = 0.41
        phi, phibar = fock.field(space, q_plus, 1j * t), fock.field(space, q_minus, 1j * t)
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

def _symmetry_checks(
    spectrum: ModeSpectrum, sym: SymmetrySpec, rng: random.Random, cutoff: Optional[int]
) -> list[CheckResult]:
    results: list[CheckResult] = []
    space = _oracle_space(spectrum, cutoff)

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
    # unit doubled coordinates: A+*(k) = A*(e_k, 0) is row k, A-*(k) = A*(0, e_k) row M + k
    unit = np.eye(space.n_slots)
    for k, lbl in enumerate(spectrum.labels):
        # U alpha U* = c beta, as U alpha v = c beta U v.  The rule is read
        # from the raw config, per kind, never from sym.action: this suite
        # is what catches a broken slot-action normal form.
        if sym.kind == UNITARY:
            expected = fock.creation(space, sym.phases[k] * unit[k])
            name = f"U alpha+*({lbl}) U* = rho alpha+*({lbl})"
        else:
            j = sym.pairing[k]
            expected = fock.creation(space, sym.phases[j] * unit[len(spectrum) + j])
            name = f"U alpha+*({lbl}) U* = eta alpha-*(pi({lbl}))"
        residual = u(fock.apply_field(space, fock.creation(space, unit[k]), v, subcutoff=True))
        residual -= fock.apply_field(space, expected, uv, subcutoff=True)
        results.append(CheckResult("symmetry", name, _max_abs(residual), 1e-12, mode=k))
    return results


def _natural_conjugation(vec: np.ndarray) -> np.ndarray:
    """J(c, d) = (conj(d), conj(c)): the conjugate of the half-swap."""
    return np.conj(np.roll(vec, len(vec) // 2))


def doubled_field_checks(
    ext: realfield.ExtendedSpectrum,
    sym: SymmetrySpec,
    cutoff: Optional[int] = None,
    rng: Optional[random.Random] = None,
) -> list[CheckResult]:
    """Fock-oracle checks of the real-time doubled field psi(t, q) =
    :func:`twistkit.fock.field` at t = 0.37.

    With A*(q) = :func:`twistkit.fock.creation` and the natural conjugation
    J(c, d) = (conj(d), conj(c)), on seeded states supported on the
    sub-cutoff block (``cutoff`` defaults to the oracle's): adjoint
    covariance psi(t,q)* = psi(t, Jq) as <x, psi(t,q) v> = <psi(t,Jq) x, v>;
    the equal-time commutator [psi(t,q), psi(t,r)] = 0; the canonical pair
    [psi, d/dt psi] = i<Jq, r>, d/dt by centered differences with one
    Richardson step; [A*(Jq)*, A*(r)] = <Jq, r>; and the symmetry covariance
    U psi(t, q) U* = psi(t, U* q), as U psi(t, q) v = psi(t, U* q) U v, with
    (U* q)_c = conj(u_c) q_sigma(c) read from ``ext.images``.  The fourth
    holds for any J, so one more check ties A*(Jq)* to the annihilation
    table :func:`twistkit.fock.annihilation` reads off q: they must agree
    exactly on v.  States and coefficients are drawn from ``rng``
    (default ``random.Random(0)``).
    """
    space = _oracle_space(ext.base, cutoff)
    rng = random.Random(0) if rng is None else rng
    n = ext.n_doubled
    q, r = fock.standard_normals(rng, n), fock.standard_normals(rng, n)
    v, x = space.random_state(rng), space.random_state(rng)
    t = 0.37

    conj = _natural_conjugation

    def act(field: np.ndarray, state: np.ndarray) -> np.ndarray:
        return fock.apply_field(space, field, state, subcutoff=True)

    def ddt(h: float) -> np.ndarray:
        return (fock.field(space, r, t + h) - fock.field(space, r, t - h)) / (2.0 * h)

    psi_q, psi_r = fock.field(space, q, t), fock.field(space, r, t)
    psi_q_v = act(psi_q, v)
    pairing = complex(np.dot(conj(q).conjugate(), r))
    dpsi = (4.0 * ddt(0.5e-3) - ddt(1e-3)) / 3.0
    images = (ext.images[c] for c in range(n))
    u_star_q = np.array([u.conjugate() * q[target] for target, u in images])
    a_q = fock.adjoint(fock.creation(space, conj(q)))  # A*(Jq)*
    deviations = {
        "adjoint_covariance": abs(
            np.vdot(x, psi_q_v) - np.vdot(act(fock.field(space, conj(q), t), x), v)
        ),
        "equal_time_commutator": _max_abs(fock.sub_commutator(space, psi_q, psi_r, v)),
        "canonical_pair": _max_abs(fock.sub_commutator(space, psi_q, dpsi, v) - 1j * pairing * v),
        "ccr_doubled": _max_abs(
            fock.sub_commutator(space, a_q, fock.creation(space, r), v) - pairing * v
        ),
        "symmetry_covariance": _max_abs(
            fock.apply_symmetry(space, sym, psi_q_v)
            - act(fock.field(space, u_star_q, t), fock.apply_symmetry(space, sym, v))
        ),
    }
    results = [
        CheckResult("realfield", f"doubled-field oracle: {key}", float(dev), 1e-8)
        for key, dev in deviations.items()
    ]
    defined = _max_abs(act(fock.annihilation(space, q), v) - act(a_q, v))
    results.append(
        CheckResult("realfield", "doubled-field oracle: annihilation_definition", defined, 0.0)
    )
    return results


def _doubled_checks(
    factor: ModeSpectrum, factor_sym: SymmetrySpec, rng: random.Random, cutoff: Optional[int]
) -> list[CheckResult]:
    """:func:`doubled_field_checks` on one factor's doubled theory, for :func:`_factored`."""
    return doubled_field_checks(realfield.extend(factor, factor_sym), factor_sym, cutoff, rng)


#: Ends the name of a check run on the union of the first two factors.
CROSS_FACTOR_SUFFIX = " across two factors"


def _factored(
    checks: Callable, spectrum: ModeSpectrum, sym: Optional[SymmetrySpec], seed: int
) -> list[CheckResult]:
    """``checks(factor, factor_sym, rng, cutoff)`` run on every factor of
    the Fock oracle (:func:`twistkit.fock.factors`) at the factor's own
    cutoff (``None``), drawing from one ``random.Random(seed)`` in order of
    smallest mode, and merged: one result per check name at the worst
    deviation over the factors (NaN-aware) and the tightest threshold, in
    the order one space of all the modes gives them, by first appearance
    and the checks of one mode last, by mode.  An empty spectrum is its own
    factor.

    With two factors or more, every check runs once more on the union of
    the first two, which the pairing maps to itself, at the cutoff of
    :data:`twistkit.fock.CROSS_STATES`, its name ending in
    :data:`CROSS_FACTOR_SUFFIX`.  There the operators and phases of two
    factors meet, so a field or a phase read at the wrong mode fails even
    where every factor has one mode."""
    rng = random.Random(seed)
    parts = fock.factors(spectrum, sym)
    merged: dict[tuple[str, str], list[CheckResult]] = {}
    for modes in parts or [()]:
        factor, factor_sym = fock.restrict(spectrum, sym, modes)
        for check in checks(factor, factor_sym, rng, None):
            if check.mode is not None:
                check.mode = modes[check.mode]
            merged.setdefault((check.suite, check.name), []).append(check)
    results = [
        CheckResult(
            suite, name, _worst(c.deviation for c in g), min(c.threshold for c in g), g[0].mode
        )
        for (suite, name), g in merged.items()
    ]
    results.sort(key=lambda c: (c.mode is not None, c.mode or 0))
    if len(parts) < 2:
        return results
    modes = tuple(sorted(parts[0] + parts[1]))
    cross, cross_sym = fock.restrict(spectrum, sym, modes)
    cutoff = fock.oracle_cutoff(len(modes), fock.CROSS_STATES)
    return results + [
        CheckResult(c.suite, c.name + CROSS_FACTOR_SUFFIX, c.deviation, c.threshold)
        for c in checks(cross, cross_sym, rng, cutoff)
    ]
