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

The truncated traces of the partition-function oracle need no state
tensors: they are products over the cycles of the slot action, kept with
their tail bounds in :mod:`twistkit.partition`, which imports no numpy.
``truncation_tail_bound`` is re-exported here for ``bench/checks.py`` only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Optional, Sequence

import numpy as np

from .errors import CapacityError, ConfigError, RangeError
from .partition import truncation_tail_bound  # re-exported for bench/checks.py
from .spectrum import ModeSpectrum, SymmetrySpec, slot_action

#: Highest occupation cutoff :func:`oracle_cutoff` picks.
MAX_CUTOFF = 8
#: Most states one state tensor may hold: 3**10, five modes at cutoff 2.
MAX_STATES = 3**10


def oracle_cutoff(n_modes: int) -> int:
    """The verify oracle's cutoff: the largest N <= MAX_CUTOFF with
    (N + 1)**(2M) <= MAX_STATES, that is 8, 8, 5, 2, 2 for M = 1..5.

    At cutoff 1 the sub-cutoff block is the vacuum alone, where no identity
    is tested, so from six modes on this raises CapacityError.
    """
    n = MAX_CUTOFF
    while (n + 1) ** (2 * n_modes) > MAX_STATES:
        n -= 1
    if n < 2:
        raise CapacityError(
            f"{n_modes} modes admit only cutoff {n} within {MAX_STATES} states"
        )
    return n


def _axis_shape(n_slots: int, slot: int, length: int) -> tuple[int, ...]:
    """Shape that broadcasts a per-level table along one slot axis."""
    shape = [1] * n_slots
    shape[slot] = length
    return tuple(shape)


def _at(n_slots: int, slot: int, level: int, width: int) -> tuple:
    """Index of one level along a slot axis, and levels 0..width-1 elsewhere."""
    index: list = [slice(0, width)] * n_slots
    index[slot] = level
    return tuple(index)


@dataclass(frozen=True)
class FockSpace:
    """Occupation tensors over all modes and both charges at one cutoff."""

    spectrum: ModeSpectrum
    cutoff: int

    def __post_init__(self):
        if self.cutoff < 1:
            raise ConfigError("cutoff must be >= 1")
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

    def slot(self, charge: str, label: str) -> int:
        """Axis of the (mode, charge) slot."""
        try:
            k = self.spectrum.labels.index(label)
        except ValueError:
            raise ConfigError(f"unknown mode label {label!r}") from None
        return 2 * k + _charge_offset(charge)

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

    def random_state(self, rng: np.random.Generator) -> np.ndarray:
        """Seeded standard-normal complex state supported on the sub-cutoff
        block, held as that block: shape (cutoff,) * 2M."""
        size = (self.cutoff,) * self.n_slots
        state = np.empty(size, dtype=complex)
        state.real, state.imag = rng.normal(size=size), rng.normal(size=size)
        return state


def _charge_offset(charge: str) -> int:
    if charge not in ("+", "-"):
        raise ConfigError(f"charge must be '+' or '-', got {charge!r}")
    return 0 if charge == "+" else 1


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
    state is one product of two numbers in either order.
    """
    n = space.n_slots
    n_in = state.shape[0] if n else 1
    n_out = space.cutoff if subcutoff else space.cutoff + 1
    width = min(n_in, n_out)
    amps = _creation_amplitudes(space.cutoff)
    out = np.zeros((n_out,) * n, dtype=complex)
    for s in range(n):
        create, destroy = field[:, s]
        for m in range(space.cutoff):
            # alpha*|m> = amps[m] |m+1> and alpha|m+1> = amps[m] |m> on axis s
            if create != 0 and m < n_in and m + 1 < n_out:
                out[_at(n, s, m + 1, width)] += (create * amps[m]) * state[_at(n, s, m, width)]
            if destroy != 0 and m + 1 < n_in and m < n_out:
                out[_at(n, s, m, width)] += (destroy * amps[m]) * state[_at(n, s, m + 1, width)]
    return out


def sub_commutator(space: FockSpace, a: np.ndarray, b: np.ndarray, state: np.ndarray) -> np.ndarray:
    """The sub-cutoff rows of [A, B] applied to a state, for two field tables."""
    out = apply_field(space, a, apply_field(space, b, state), subcutoff=True)
    out -= apply_field(space, b, apply_field(space, a, state), subcutoff=True)
    return out


def adjoint(field: np.ndarray) -> np.ndarray:
    """Field table of the adjoint: (c alpha* + d alpha)* = conj(d) alpha* + conj(c) alpha."""
    return np.conj(field[::-1])


def _mode_coeffs(space: FockSpace, coeffs: Sequence[complex]) -> np.ndarray:
    f = np.asarray(coeffs, dtype=complex)
    if f.shape != (space.n_modes,):
        raise ConfigError("coefficient vector length must equal the mode count")
    return f


def creation(space: FockSpace, charge: str, label: str) -> np.ndarray:
    """Field table of the creation operator alpha*_charge(mode)."""
    field = np.zeros((2, space.n_slots), dtype=complex)
    field[0, space.slot(charge, label)] = 1.0
    return field


def creation_functional(
    space: FockSpace, charge: str, coeffs: Sequence[complex]
) -> np.ndarray:
    """Field table of the creation functional smeared over the modes.

    ``coeffs`` are the components of f in the mode basis.  For charge '+'
    this is A+*(f-bar) = sum_k conj(f_k) alpha+*(k); for charge '-' it is
    A-*(f) = sum_k f_k alpha-*(k).
    """
    f = _mode_coeffs(space, coeffs)
    field = np.zeros((2, space.n_slots), dtype=complex)
    field[0, _charge_offset(charge)::2] = np.conj(f) if charge == "+" else f
    return field


def annihilation_functional(
    space: FockSpace, charge: str, coeffs: Sequence[complex]
) -> np.ndarray:
    """Adjoint partner of :func:`creation_functional` at the same coefficients.

    Charge '+': A+(f) = sum_k f_k alpha+(k); charge '-': A-(f-bar) =
    sum_k conj(f_k) alpha-(k).
    """
    return adjoint(creation_functional(space, charge, coeffs))


def imaginary_time_field(
    space: FockSpace,
    t: float,
    coeffs: Sequence[complex],
    conjugate: bool = False,
) -> np.ndarray:
    """Imaginary-time field phi(t, f-bar), or its conjugate partner.

    Per-mode scalars omega^{-1/2} exp(-/+ t*omega) weight the creation and
    annihilation parts.  The exp(+t*omega) factors grow for large t; at
    desk scale (t <= beta, finite spectra) everything stays finite, but
    magnitudes of order exp(beta*omega_max) appear in intermediate values.
    RangeError where a weighted coefficient is beyond the float range
    (exp(t*omega) overflows once t*omega exceeds about 709.8).
    """
    f = _mode_coeffs(space, coeffs)
    w = np.asarray(space.spectrum.omegas, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        decay = f * np.exp(-t * w) / np.sqrt(w)
        growth = f * np.exp(t * w) / np.sqrt(w)
    if not (np.isfinite(decay).all() and np.isfinite(growth).all()):
        raise RangeError(f"imaginary-time field at t={t} is outside the float range")
    if not conjugate:
        # phi(t, f-bar) = [A+*(decay-bar) + A-(growth-bar)] / sqrt(2)
        field = creation_functional(space, "+", decay) + annihilation_functional(
            space, "-", growth
        )
    else:
        # phi-bar(t, f) = [A-*(decay) + A+(growth)] / sqrt(2)
        field = creation_functional(space, "-", decay) + annihilation_functional(
            space, "+", growth
        )
    return field / math.sqrt(2.0)


def _generalized_permutation(
    state: np.ndarray,
    source: Sequence[int],
    phases: Optional[Sequence[np.ndarray]] = None,
    conjugate: bool = False,
) -> np.ndarray:
    """Axis t of the result is axis ``source[t]`` of (phases * state).

    ``phases`` holds one per-level table per slot; their product over the
    slots multiplies the state in one step, so every entry is one product.
    The permutation keeps every occupation, so ``state`` may be any block
    of levels 0..L-1 on each axis, such as the sub-cutoff block.
    """
    n = state.ndim
    if phases is not None:
        levels = state.shape[0] if n else 1
        tables = (p[:levels].reshape(_axis_shape(n, s, levels)) for s, p in enumerate(phases))
        product = reduce(np.multiply, tables, np.ones((1,) * n, dtype=complex))
        product *= state
        state = product
    out = np.transpose(state, source)
    return np.conj(out) if conjugate else out


def _level_phases(phases: Sequence[complex], cutoff: int) -> list[np.ndarray]:
    """Per-slot tables of the level powers phase**n, n = 0 .. cutoff."""
    return [p ** np.arange(cutoff + 1) for p in phases]


def apply_symmetry(space: FockSpace, sym: SymmetrySpec, state: np.ndarray) -> np.ndarray:
    """Fock-space implementation U_S of either symmetry kind, applied to a
    full state or a sub-cutoff block; it is unitary in both kinds."""
    action = slot_action(space.spectrum, sym)
    return _generalized_permutation(state, action.source, _level_phases(action.phases, space.cutoff))


def apply_tc(space: FockSpace, state: np.ndarray) -> np.ndarray:
    """Time-charge reversal of a full state or a sub-cutoff block: swap the
    + and - axes of every mode, then conjugate."""
    return _generalized_permutation(state, [s ^ 1 for s in range(space.n_slots)], conjugate=True)
