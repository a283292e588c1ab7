"""Truncated two-charge bosonic Fock space, acted on without matrices.

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

The space is a tensor product over *factors* (:func:`factors`): the
smallest sets of modes closed under the cycles of the slot action, one
mode each for a diagonal action, a pair or a fixed mode each for an
involutive pairing.  H, every linear field, U_S, U_V and TC are products
of factor-local terms, so the dense verify suites
(:mod:`twistkit.fock_suites`, the one package module that imports this
one) build one space per factor, cut down by
:func:`twistkit.spectrum.restrict`, at the factor's :func:`oracle_cutoff`:
8 for the one- and two-mode factors of every involutive pairing, 81 and
6561 states.  Only a factor of six or more modes is refused
(CapacityError).  One more space, the union of the first two factors, is
held to :data:`CROSS_STATES`.

Field tables are built from the doubled coordinates q = (c, d) of the
doubled (real) theory, two M-vectors, and only this module knows how q
lands on the slots: :func:`creation` is A*(c, d) = sum_k c_k alpha+*(k) +
d_k alpha-*(k), :func:`annihilation` is A(c, d) = sum_k d_k alpha+(k) +
c_k alpha-(k), and :func:`field` is the free field psi(tau, q), real-time
at real tau, with phi(t, f-bar) = psi(it, (f-bar, 0)) and phi-bar(t, f) =
psi(it, (0, f)).  So A+*(f-bar) = A*(f-bar, 0), A-*(f) = A*(0, f),
A+(f) = A(0, f) and A-(f-bar) = A(f-bar, 0).

Seeded states and coefficient vectors come from a ``random.Random``
(MT19937): :func:`standard_normals` reads 53-bit uniforms from its bytes
and turns them into standard complex normals by Box-Muller, so no caller
needs ``numpy.random``.

The truncated traces of the partition-function oracle need no state
tensors: they are products over the cycles of the slot action, kept with
their tail bounds beside their one caller in :mod:`twistkit.verify`,
which imports neither numpy nor this module.  ``truncation_tail_bound`` is
re-exported here for ``bench/checks.py`` only.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

from .errors import CapacityError, ConfigError, RangeError
from .partition import _require_count
from .spectrum import ModeSpectrum, SymmetrySpec, slot_action
from .verify import truncation_tail_bound  # re-exported for bench/checks.py

TYPE_CHECKING = False
if TYPE_CHECKING:
    import random
    from typing import Optional, Sequence

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
        _require_count(cutoff, 1, "cutoff", ConfigError)
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
    n_in = state.shape[0] if n else 1
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
    levels = state.shape[0] if n else 1
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
