"""Truncated two-charge bosonic Fock space, acted on without matrices, and
the dense verify suites that check the field identities on it.

Every closed-form claim in the package is checked against this oracle.
Each mode carries a pair of oscillators (charge + and charge -), each
truncated at occupation ``cutoff``.  A state is a complex tensor of shape
``(cutoff + 1,) * 2M`` with one axis per (mode, charge) slot: slot 2k is the
+ charge of mode k, slot 2k + 1 its - charge, and the index along an axis is
the slot's occupation, so the vacuum is the entry at the origin.

Operators are plain functions of a state:

- a linear field is a (2, 2M) table of creation and annihilation
  coefficients per slot (:func:`apply_field`).  Creation at a slot is a
  shifted slice along its axis times sqrt(n + 1), and the top level is
  annihilated, so operator identities hold on the sub-cutoff block, where
  every occupation is below the cutoff;
- H is diagonal, a broadcast sum of per-slot energies
  (:meth:`FockSpace.energies`);
- U_S, U_V (:func:`apply_symmetry`) and TC (:func:`apply_tc`) are
  generalized permutations: per-level phases on each slot, then a
  permutation of the axes, read from a :class:`twistkit.spectrum.SlotAction`
  for U_S and U_V alike; TC also conjugates.

Field tables are built from the doubled coordinates q = (c, d) of the
doubled (real) theory, two M-vectors, and only this module knows how q
lands on the slots: :func:`creation` is A*(c, d) = sum_k c_k alpha+*(k) +
d_k alpha-*(k), :func:`annihilation` is A(c, d) = sum_k d_k alpha+(k) +
c_k alpha-(k), and :func:`field` is the free field psi(tau, q), real-time
at real tau, with phi(t, f-bar) = psi(it, (f-bar, 0)) and phi-bar(t, f) =
psi(it, (0, f)).  So A+*(f-bar) = A*(f-bar, 0), A-*(f) = A*(0, f),
A+(f) = A(0, f) and A-(f-bar) = A(f-bar, 0).

The dense suites are the ``ccr``, ``tc`` and ``symmetry`` suites of
:mod:`twistkit.verify` and the doubled-field checks of its ``realfield``
suite (:func:`doubled_field_checks`, the real-time field of the doubled
theory).  The space is a tensor product over *factors* (:func:`factors`):
the smallest sets of modes closed under the cycles of the slot action, one
mode each for a diagonal action, a pair or a fixed mode each for an
involutive pairing.  H, every linear field, U_S, U_V and TC are products
of factor-local terms, so an identity holds on the space exactly when it
holds on every factor.  Each check takes ``(spectrum, sym, rng, cutoff)``,
and :func:`_factored` runs it once per factor, on the factor's spectrum
and symmetry cut down by :func:`twistkit.spectrum.restrict`, at the
factor's :func:`oracle_cutoff`: 8 for the one- and two-mode factors of
every involutive pairing, 81 and 6561 states.  Only a factor of six or
more modes is refused (CapacityError, exit 3).  Each check reports the
worst deviation over the factors, and runs once more on the union of the
first two factors, named with :data:`CROSS_FACTOR_SUFFIX` and held to
:data:`CROSS_STATES`, with its symmetry: there a field or a phase read at
the wrong mode fails.

An operator identity A B = C is checked as A(Bv) - Cv on seeded
standard-normal states v supported on the sub-cutoff block, compared on
the sub-cutoff rows; the two exact checks (threshold 0) probe where no
rounding enters, a basis state and the all-ones state.  The inner-product
checks of TC and U use seeded unit states on the sub-cutoff block.  Each
suite seeds one ``random.Random(seed)`` (MT19937) and draws from it, in a
fixed order and factor by factor in order of smallest mode, every
coefficient vector and state as standard complex normals
(:func:`standard_normals`: 53-bit uniforms read from the generator's bytes,
turned into normals by Box-Muller) and the basis state's occupations by
``randrange``, so no suite loads ``numpy.random``.  The ``symmetry`` suite
reads its rules from the raw phases and pairing, per kind, never from the
slot action: they are what the normal form is checked against.

This is the one package module that imports numpy.  :mod:`twistkit.verify`
imports it only inside its dense runner, so a job that runs no dense suite
loads neither this module nor numpy.  The truncated traces of the
partition-function oracle need no state tensors: they are products over
the cycles of the slot action, kept with their tail bounds beside their
one caller in :mod:`twistkit.verify`.  ``truncation_tail_bound`` is
re-exported here for ``bench/checks.py`` only.
"""

from __future__ import annotations

import math
import random
from functools import reduce

# correlation and realfield load before numpy, so a job compiles every
# twistkit module it needs while its heap is still small; correlation is
# imported for that order only (realfield loads it only when it samples).
from . import correlation, realfield
from .errors import CapacityError, ConfigError, RangeError
from .partition import _require_count
from .spectrum import UNITARY, ModeSpectrum, SymmetrySpec, restrict, slot_action
from .verify import CheckResult, _worst
from .verify import truncation_tail_bound  # re-exported for bench/checks.py
import numpy as np

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Callable, Optional, Sequence

#: Highest occupation cutoff :func:`oracle_cutoff` picks.
MAX_CUTOFF = 8
#: Most states one state tensor may hold: 3**10, a five-mode factor at cutoff 2.
MAX_STATES = 3**10
#: Most states of the space across two factors: 9**4, one two-mode factor
#: at MAX_CUTOFF, so the cross space is never the largest tensor.
CROSS_STATES = (MAX_CUTOFF + 1) ** 4


def oracle_cutoff(n_modes: int, max_states: int = MAX_STATES) -> int:
    """The verify oracle's cutoff for a factor of M modes: the largest
    N <= MAX_CUTOFF with (N + 1)**(2M) <= ``max_states``, that is 8, 8, 5,
    2, 2 for M = 1..5 at MAX_STATES, and 8, 8, 3, 2 for M = 1..4 at
    CROSS_STATES.

    At cutoff 1 the sub-cutoff block is the vacuum alone, where no identity
    is tested, so a factor of six or more modes raises CapacityError.
    """
    n = MAX_CUTOFF
    while (n + 1) ** (2 * n_modes) > max_states:
        n -= 1
    if n < 2:
        raise CapacityError(
            f"{n_modes} modes admit only cutoff {n} within {max_states} states"
        )
    return n


def factors(spectrum: ModeSpectrum, sym: Optional[SymmetrySpec]) -> list[tuple[int, ...]]:
    """The factors of the Fock space under ``sym``: the smallest sets of
    modes closed under the cycles of its slot action, which join mode t // 2
    with mode source[t] // 2 for every slot t.  Each factor is sorted, and
    the factors come in order of their smallest mode: one mode each for a
    diagonal action, a pair or a fixed mode each for an involutive pairing.

    H, every linear field, U_S, U_V and TC are products of factor-local
    terms, so an identity among them holds on the space exactly when it
    holds on every factor (:func:`twistkit.spectrum.restrict`).  The
    pairing joins its modes too, which for the slot action of the pairing
    changes nothing; a slot action that fails to join them still leaves
    the pair on one factor, where the ``symmetry`` suite's rules from the
    raw pairing fail it.
    """
    root = list(range(len(spectrum)))

    def find(k: int) -> int:
        while root[k] != k:
            k = root[k]
        return k

    joins = [(t // 2, s // 2) for t, s in enumerate(slot_action(spectrum, sym).source)]
    if sym is not None and sym.pairing is not None:
        joins += enumerate(sym.pairing)
    for k, j in joins:
        a, b = find(k), find(j)
        root[max(a, b)] = min(a, b)
    groups: dict[int, list[int]] = {}
    for k in range(len(spectrum)):
        groups.setdefault(find(k), []).append(k)
    return [tuple(modes) for modes in groups.values()]


def _axis_shape(n_slots: int, slot: int, length: int) -> tuple[int, ...]:
    """Shape that broadcasts a per-level table along one slot axis."""
    shape = [1] * n_slots
    shape[slot] = length
    return tuple(shape)


def _at(n_slots: int, slot: int, levels: slice, width: int) -> tuple:
    """Index of some levels along a slot axis, and levels 0..width-1 elsewhere."""
    index: list = [slice(0, width)] * n_slots
    index[slot] = levels
    return tuple(index)


class FockSpace:
    """Occupation tensors over all modes and both charges at one cutoff."""

    def __init__(self, spectrum: ModeSpectrum, cutoff: int):
        _require_count(cutoff, 1, "cutoff")
        self.spectrum, self.cutoff = spectrum, cutoff
        if self.dim > MAX_STATES:
            raise CapacityError(f"{self.dim} states exceed the cap of {MAX_STATES}")

    @property
    def n_modes(self) -> int:
        return len(self.spectrum)

    @property
    def n_slots(self) -> int:
        return 2 * self.n_modes

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.cutoff + 1,) * self.n_slots

    @property
    def dim(self) -> int:
        return (self.cutoff + 1) ** self.n_slots

    def vacuum(self) -> np.ndarray:
        state = np.zeros(self.shape, dtype=complex)
        state[(0,) * self.n_slots] = 1.0
        return state

    def energies(self) -> np.ndarray:
        """Diagonal of H as a tensor: per distinct omega, the integer
        occupation count of its slots times omega once, so symmetry-related
        states get bit-identical energies."""
        levels = np.arange(self.cutoff + 1)
        omegas = self.spectrum.omegas
        out = np.zeros(self.shape)
        for w in sorted(set(omegas)):
            count = sum(
                levels.reshape(_axis_shape(self.n_slots, s, self.cutoff + 1))
                for s in range(self.n_slots)
                if omegas[s // 2] == w
            )
            out += w * count
        return out

    def sub_block(self, state: np.ndarray) -> np.ndarray:
        """The sub-cutoff rows of a full state: every occupation below the cutoff."""
        return state[(slice(0, self.cutoff),) * self.n_slots]

    def random_state(self, rng: random.Random) -> np.ndarray:
        """Seeded standard complex normal state supported on the sub-cutoff
        block, held as that block: shape (cutoff,) * 2M."""
        size = (self.cutoff,) * self.n_slots
        return standard_normals(rng, self.cutoff**self.n_slots).reshape(size)


def standard_normals(rng: random.Random, n: int) -> np.ndarray:
    """n standard complex normals z = x + iy, x and y independent N(0, 1).

    One draw of 16 n bytes from ``rng`` gives 2n uniforms u in [0, 1), the
    top 53 bits of each little-endian 64-bit word; Box-Muller maps each pair
    (u1, u2) to the radius sqrt(-2 log(1 - u1)), finite at u1 = 0, and the
    angle 2 pi u2.
    """
    u = (np.frombuffer(rng.randbytes(16 * n), dtype="<u8") >> 11) * 2.0**-53
    radius = np.sqrt(-2.0 * np.log1p(-u[:n]))
    return radius * np.exp(2j * math.pi * u[n:])


def _creation_amplitudes(cutoff: int) -> np.ndarray:
    """<n+1| alpha* |n> = sqrt(n + 1) for n = 0 .. cutoff - 1."""
    return np.sqrt(np.arange(1.0, cutoff + 1))


def apply_field(
    space: FockSpace, field: np.ndarray, state: np.ndarray, subcutoff: bool = False
) -> np.ndarray:
    """A linear field applied to a state; its sub-cutoff rows only if asked.

    ``field[0, s]`` and ``field[1, s]`` are the coefficients of the creation
    and the annihilation operator at slot s.  ``state`` is a full state or
    a sub-cutoff block (a state supported there); the result is the full
    state, or with ``subcutoff`` its sub-cutoff block.  Each coefficient
    scales an amplitude once, so a product of two slot operators on a basis
    state is one product of two numbers in either order.  Each slot adds its
    creation term, then its annihilation term, each for all levels at once.
    """
    n = space.n_slots
    n_in = state.shape[0]
    n_out = space.cutoff if subcutoff else space.cutoff + 1
    width = min(n_in, n_out)
    amps = _creation_amplitudes(space.cutoff)
    out = np.zeros((n_out,) * n, dtype=complex)
    up = min(space.cutoff, n_in, n_out - 1)  # alpha*|m> = amps[m] |m+1>, m < up
    down = min(space.cutoff, n_in - 1, n_out)  # alpha|m+1> = amps[m] |m>, m < down
    for s in range(n):
        create, destroy = field[:, s]
        if create != 0 and up > 0:
            source = state[_at(n, s, slice(0, up), width)]
            out[_at(n, s, slice(1, up + 1), width)] += (
                (create * amps[:up]).reshape(_axis_shape(n, s, up)) * source
            )
        if destroy != 0 and down > 0:
            source = state[_at(n, s, slice(1, down + 1), width)]
            out[_at(n, s, slice(0, down), width)] += (
                (destroy * amps[:down]).reshape(_axis_shape(n, s, down)) * source
            )
    return out


def sub_commutator(space: FockSpace, a: np.ndarray, b: np.ndarray, state: np.ndarray) -> np.ndarray:
    """The sub-cutoff rows of [A, B] applied to a state, for two field tables."""
    out = apply_field(space, a, apply_field(space, b, state), subcutoff=True)
    out -= apply_field(space, b, apply_field(space, a, state), subcutoff=True)
    return out


def adjoint(field: np.ndarray) -> np.ndarray:
    """Field table of the adjoint: (c alpha* + d alpha)* = conj(d) alpha* + conj(c) alpha."""
    return np.conj(field[::-1])


def _table(space: FockSpace, row: int, q: Sequence[complex]) -> np.ndarray:
    """Field table with q = (c, d) in one row: c on the + slots, d on the - slots.
    ConfigError unless q has 2M entries."""
    q = np.asarray(q, dtype=complex)
    if q.shape != (space.n_slots,):
        raise ConfigError(f"q = (c, d) needs {space.n_slots} coefficients, got shape {q.shape}")
    field = np.zeros((2, space.n_slots), dtype=complex)
    field[row, 0::2], field[row, 1::2] = np.split(q, 2)
    return field


def creation(space: FockSpace, q: Sequence[complex]) -> np.ndarray:
    """Field table of A*(c, d) = sum_k c_k alpha+*(k) + d_k alpha-*(k)."""
    return _table(space, 0, q)


def annihilation(space: FockSpace, q: Sequence[complex]) -> np.ndarray:
    """Field table of A(c, d) = sum_k d_k alpha+(k) + c_k alpha-(k): (d, c) in
    the annihilation row."""
    return _table(space, 1, np.roll(q, space.n_modes))


def field(space: FockSpace, q: Sequence[complex], tau: complex) -> np.ndarray:
    """Field table of psi(tau, q) = (1/sqrt 2) [A*(omega^{-1/2} e^{i tau omega} q)
    + A(omega^{-1/2} e^{-i tau omega} q)] at complex tau, with e^{i tau omega}
    = e^{-omega Im tau} e^{i omega Re tau}.  Both coordinates of a mode sit
    at its frequency, so the weights scale the tables slot by slot.

    At tau = it the real weights exp(-+t omega) grow with t, to magnitudes
    of order exp(beta*omega_max) at t <= beta.  RangeError where a weighted
    coefficient is beyond the float range (once t*omega exceeds about 709.8).
    """
    tau = complex(tau)
    w = np.repeat(space.spectrum.omegas, 2)  # the frequency of each slot
    with np.errstate(over="ignore", invalid="ignore"):
        table = creation(space, q) * np.exp(-tau.imag * w) * np.exp(1j * tau.real * w)
        table /= np.sqrt(w)
        down = annihilation(space, q) * np.exp(tau.imag * w) * np.exp(-1j * tau.real * w)
        table += down / np.sqrt(w)
    if not np.isfinite(table).all():
        raise RangeError(f"field at tau={tau} is outside the float range")
    return table / math.sqrt(2.0)


def apply_symmetry(space: FockSpace, sym: SymmetrySpec, state: np.ndarray) -> np.ndarray:
    """Fock-space implementation U_S of either symmetry kind, applied to a
    full state or a sub-cutoff block; it is unitary in both kinds.

    Axis t of the result is axis ``source[t]`` of the state times the level
    powers phase**n of every slot, whose product over the slots multiplies
    the state in one step, so every entry is one product.  The permutation
    keeps every occupation, so the state may be any block of levels 0..L-1
    on each axis."""
    action = slot_action(space.spectrum, sym)
    n = state.ndim
    levels = state.shape[0]
    tables = (
        (p ** np.arange(levels)).reshape(_axis_shape(n, s, levels))
        for s, p in enumerate(action.phases)
    )
    product = reduce(np.multiply, tables, np.ones((1,) * n, dtype=complex))
    product *= state
    return np.transpose(product, action.source)


def apply_tc(space: FockSpace, state: np.ndarray) -> np.ndarray:
    """Time-charge reversal of a full state or a sub-cutoff block: swap the
    + and - axes of every mode, then conjugate."""
    return np.conj(np.transpose(state, [s ^ 1 for s in range(space.n_slots)]))


def _max_abs(values: np.ndarray) -> float:
    return float(np.abs(values).max())


def _unit_states(space: FockSpace, rng: random.Random) -> tuple[np.ndarray, np.ndarray]:
    """Two seeded random unit states on the sub-cutoff block, for inner products."""
    x, y = space.random_state(rng), space.random_state(rng)
    return x / np.linalg.norm(x), y / np.linalg.norm(y)


def _ccr_checks(
    spectrum: ModeSpectrum, sym, rng: random.Random, cutoff: int
) -> list[CheckResult]:
    results: list[CheckResult] = []
    space = FockSpace(spectrum, cutoff)
    f = standard_normals(rng, len(spectrum))
    g = standard_normals(rng, len(spectrum))
    v = space.random_state(rng)

    zero = np.zeros(len(spectrum), dtype=complex)
    inner_gf = complex(np.vdot(g, f))  # <g, f>
    a_plus = annihilation(space, np.concatenate([zero, f]))  # A+(f) = A(0, f)
    a_plus_star = creation(space, np.concatenate([g.conj(), zero]))  # A+*(g-bar)
    results.append(
        CheckResult(
            "ccr",
            "[A+(f), A+*(g-bar)] = <g,f> on sub-cutoff block",
            _max_abs(sub_commutator(space, a_plus, a_plus_star, v) - inner_gf * v),
            1e-12,
        )
    )
    a_minus = annihilation(space, np.concatenate([g.conj(), zero]))  # A-(g-bar)
    a_minus_star = creation(space, np.concatenate([zero, f]))  # A-*(f) = A*(0, f)
    results.append(
        CheckResult(
            "ccr",
            "[A-(g-bar), A-*(f)] = <g,f> on sub-cutoff block",
            _max_abs(sub_commutator(space, a_minus, a_minus_star, v) - inner_gf * v),
            1e-12,
        )
    )
    # Exact zero, on a basis state, where each entry of either order is one
    # product of two coefficients.  Splitting g-bar = Re g - i Im g keeps one
    # of the two real, so both orders round alike.
    e = np.zeros((space.cutoff,) * space.n_slots, dtype=complex)
    e[tuple(rng.randrange(space.cutoff) for _ in range(space.n_slots))] = 1.0

    def cross_commutator(part: np.ndarray) -> float:
        plus = creation(space, np.concatenate([part, zero]))
        lhs = apply_field(space, plus, apply_field(space, a_minus_star, e))
        lhs -= apply_field(space, a_minus_star, apply_field(space, plus, e))
        return _max_abs(lhs)

    cross = _worst(map(cross_commutator, (g.real, g.imag)))
    results.append(CheckResult("ccr", "[A+*(g-bar), A-*(f)] = 0 on full space", cross, 0.0))
    # dynamics: e^{itH} A+*(f-bar) e^{-itH} = A+*((e^{-it omega} f)-bar)
    t = 0.83
    u_t = np.exp(1j * t * space.sub_block(space.energies()))
    plus = creation(space, np.concatenate([f.conj(), zero]))  # A+*(f-bar)
    evolved = u_t * apply_field(space, plus, np.conj(u_t) * v, subcutoff=True)
    f_t = np.conj(f * np.exp(-1j * t * np.asarray(spectrum.omegas)))
    shifted = creation(space, np.concatenate([f_t, zero]))
    evolved -= apply_field(space, shifted, v, subcutoff=True)
    results.append(
        CheckResult("ccr", "Heisenberg dynamics of A+* on sub-cutoff block", _max_abs(evolved), 1e-10)
    )
    return results


def _tc_checks(
    spectrum: ModeSpectrum, sym: Optional[SymmetrySpec], rng: random.Random, cutoff: int
) -> list[CheckResult]:
    results: list[CheckResult] = []
    space = FockSpace(spectrum, cutoff)

    def tc(state: np.ndarray) -> np.ndarray:
        return apply_tc(space, state)

    x, y = _unit_states(space, rng)
    results.append(CheckResult("tc", "TC squares to the identity", _max_abs(tc(tc(x)) - x), 0.0))
    lhs = complex(np.vdot(tc(x), tc(y)))
    rhs = complex(np.vdot(x, y)).conjugate()
    results.append(CheckResult("tc", "TC is antiunitary on random vectors", abs(lhs - rhs), 1e-12))
    v = space.random_state(rng)
    f = standard_normals(rng, len(spectrum))
    zero = np.zeros(len(spectrum), dtype=complex)
    q_plus, q_minus = np.concatenate([f.conj(), zero]), np.concatenate([zero, f])
    # TC A+*(f-bar) TC = A-*(f), as TC A+*(f-bar) v = A-*(f) TC v
    plus, minus = creation(space, q_plus), creation(space, q_minus)
    residual = tc(apply_field(space, plus, v, subcutoff=True))
    residual -= apply_field(space, minus, tc(v), subcutoff=True)
    results.append(
        CheckResult(
            "tc", "TC A+*(f-bar) TC = A-*(f) on sub-cutoff block", _max_abs(residual), 1e-12
        )
    )
    # phi(t, f-bar) = psi(it, (f-bar, 0)) and phibar(t, f) = psi(it, (0, f))
    t = 0.41
    phi, phibar = field(space, q_plus, 1j * t), field(space, q_minus, 1j * t)
    residual = tc(apply_field(space, phi, v, subcutoff=True))
    residual -= apply_field(space, phibar, tc(v), subcutoff=True)
    results.append(
        CheckResult(
            "tc",
            "TC phi(t, f-bar) TC = phibar(t, f) on sub-cutoff block",
            _max_abs(residual),
            1e-10,
        )
    )
    if sym is not None:
        residual = apply_symmetry(space, sym, tc(v)) - tc(apply_symmetry(space, sym, v))
        results.append(CheckResult("tc", "[U_S, TC] = 0", _max_abs(residual), 1e-12))
    return results


def _symmetry_checks(
    spectrum: ModeSpectrum, sym: SymmetrySpec, rng: random.Random, cutoff: int
) -> list[CheckResult]:
    results: list[CheckResult] = []
    space = FockSpace(spectrum, cutoff)

    def u(state: np.ndarray) -> np.ndarray:
        return apply_symmetry(space, sym, state)

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
            expected = creation(space, sym.phases[k] * unit[k])
            name = f"U alpha+*({lbl}) U* = rho alpha+*({lbl})"
        else:
            j = sym.pairing[k]
            expected = creation(space, sym.phases[j] * unit[len(spectrum) + j])
            name = f"U alpha+*({lbl}) U* = eta alpha-*(pi({lbl}))"
        residual = u(apply_field(space, creation(space, unit[k]), v, subcutoff=True))
        residual -= apply_field(space, expected, uv, subcutoff=True)
        results.append(CheckResult("symmetry", name, _max_abs(residual), 1e-12, mode=k))
    return results


def _natural_conjugation(vec: np.ndarray) -> np.ndarray:
    """J(c, d) = (conj(d), conj(c)): the conjugate of the half-swap."""
    return np.conj(np.roll(vec, len(vec) // 2))


def doubled_field_checks(
    spectrum: ModeSpectrum, sym: SymmetrySpec, rng: random.Random, cutoff: int
) -> list[CheckResult]:
    """Fock-oracle checks of the real-time doubled field psi(t, q) =
    :func:`field` at t = 0.37.

    With A*(q) = :func:`creation` and the natural conjugation
    J(c, d) = (conj(d), conj(c)), on seeded states supported on the
    sub-cutoff block of the space at ``cutoff``: adjoint
    covariance psi(t,q)* = psi(t, Jq) as <x, psi(t,q) v> = <psi(t,Jq) x, v>;
    the equal-time commutator [psi(t,q), psi(t,r)] = 0; the canonical pair
    [psi, d/dt psi] = i<Jq, r>, d/dt by centered differences with one
    Richardson step; [A*(Jq)*, A*(r)] = <Jq, r>; and the symmetry covariance
    U psi(t, q) U* = psi(t, U* q), as U psi(t, q) v = psi(t, U* q) U v, with
    (U* q)_c = conj(u_c) q_sigma(c) read from the image table ``images``
    of :func:`twistkit.realfield.extend`.  The fourth holds for any J, so
    one more check ties A*(Jq)* to the annihilation table :func:`annihilation`
    reads off q: they must agree exactly on v.  States and coefficients are drawn from ``rng``.  The signature
    is that of every check :func:`_factored` runs.
    """
    ext = realfield.extend(spectrum, sym)
    space = FockSpace(spectrum, cutoff)
    n = ext.n_doubled
    q, r = standard_normals(rng, n), standard_normals(rng, n)
    v, x = space.random_state(rng), space.random_state(rng)
    t = 0.37

    conj = _natural_conjugation

    def act(table: np.ndarray, state: np.ndarray) -> np.ndarray:
        return apply_field(space, table, state, subcutoff=True)

    def ddt(h: float) -> np.ndarray:
        return (field(space, r, t + h) - field(space, r, t - h)) / (2.0 * h)

    psi_q, psi_r = field(space, q, t), field(space, r, t)
    psi_q_v = act(psi_q, v)
    pairing = complex(np.dot(conj(q).conjugate(), r))
    dpsi = (4.0 * ddt(0.5e-3) - ddt(1e-3)) / 3.0
    images = (ext.images[c] for c in range(n))
    u_star_q = np.array([u.conjugate() * q[target] for target, u in images])
    a_q = adjoint(creation(space, conj(q)))  # A*(Jq)*
    deviations = {
        "adjoint_covariance": abs(
            np.vdot(x, psi_q_v) - np.vdot(act(field(space, conj(q), t), x), v)
        ),
        "equal_time_commutator": _max_abs(sub_commutator(space, psi_q, psi_r, v)),
        "canonical_pair": _max_abs(sub_commutator(space, psi_q, dpsi, v) - 1j * pairing * v),
        "ccr_doubled": _max_abs(sub_commutator(space, a_q, creation(space, r), v) - pairing * v),
        "symmetry_covariance": _max_abs(
            apply_symmetry(space, sym, psi_q_v)
            - act(field(space, u_star_q, t), apply_symmetry(space, sym, v))
        ),
    }
    results = [
        CheckResult("realfield", f"doubled-field oracle: {key}", float(dev), 1e-8)
        for key, dev in deviations.items()
    ]
    defined = _max_abs(act(annihilation(space, q), v) - act(a_q, v))
    results.append(
        CheckResult("realfield", "doubled-field oracle: annihilation_definition", defined, 0.0)
    )
    return results


#: Ends the name of a check run on the union of the first two factors.
CROSS_FACTOR_SUFFIX = " across two factors"


def _factored(
    checks: Callable, spectrum: ModeSpectrum, sym: Optional[SymmetrySpec], seed: int
) -> list[CheckResult]:
    """``checks(factor, factor_sym, rng, cutoff)`` run on every factor of
    the Fock oracle (:func:`factors`) at :func:`oracle_cutoff` of its mode
    count, drawing from one ``random.Random(seed)`` in order of smallest
    mode, and merged: one result per check name at the worst
    deviation over the factors (NaN-aware) and the tightest threshold, in
    the order one space of all the modes gives them, by first appearance
    and the checks of one mode last, by mode.

    With two factors or more, every check runs once more on the union of
    the first two, which the pairing maps to itself, at the cutoff of
    :data:`CROSS_STATES`, its name ending in :data:`CROSS_FACTOR_SUFFIX`.
    There the operators and phases of two
    factors meet, so a field or a phase read at the wrong mode fails even
    where every factor has one mode."""
    rng = random.Random(seed)
    parts = factors(spectrum, sym)
    merged: dict[tuple[str, str], list[CheckResult]] = {}
    for modes in parts:
        factor, factor_sym = restrict(spectrum, sym, modes)
        for check in checks(factor, factor_sym, rng, oracle_cutoff(len(modes))):
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
    cross, cross_sym = restrict(spectrum, sym, modes)
    cutoff = oracle_cutoff(len(modes), CROSS_STATES)
    return results + [
        CheckResult(c.suite, c.name + CROSS_FACTOR_SUFFIX, c.deviation, c.threshold)
        for c in checks(cross, cross_sym, rng, cutoff)
    ]
