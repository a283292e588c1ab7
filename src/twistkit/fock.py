"""Truncated two-charge bosonic Fock space.

Every closed-form claim in the package is checked against explicit dense
matrices built here.  The space carries one pair of oscillators (charge +
and charge -) per mode, each truncated at occupation ``cutoff``; creation
out of the top level maps to zero, so operator identities are asserted on
the sub-cutoff block where the truncation is invisible.

Basis order is lexicographic in (mode, charge, occupation) with the +
charge preceding the - charge within each mode; the vacuum has index 0.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import CapacityError, ConfigError, DomainError
from .spectrum import (
    ANTIUNITARY,
    UNITARY,
    ModeSpectrum,
    SymmetrySpec,
    check_alignment,
)

#: Default cap on dense matrix entries (dim**2) for one operator.  The env
#: var TWISTKIT_CAPACITY overrides it at runtime.
DEFAULT_CAPACITY = 20_000_000

#: Cap on basis enumeration length for diagonal/permutation traces that
#: never materialize a dense matrix.
ENUMERATION_CAPACITY = 40_000_000


def matrix_budget() -> int:
    raw = os.environ.get("TWISTKIT_CAPACITY")
    return int(raw) if raw else DEFAULT_CAPACITY


@dataclass(frozen=True)
class DenseOperator:
    """Square complex matrix, optionally composed with entrywise conjugation.

    ``antilinear=True`` means the operator acts as ``x -> matrix @ conj(x)``
    in the fixed basis.  Composition honors the antilinear rule: when the
    left factor is antilinear the right factor's matrix is conjugated.
    """

    matrix: np.ndarray
    antilinear: bool = False

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ConfigError("operator matrix must be square")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __matmul__(self, other: "DenseOperator") -> "DenseOperator":
        if self.dim != other.dim:
            raise ConfigError("operator dimensions do not match")
        rhs = np.conj(other.matrix) if self.antilinear else other.matrix
        return DenseOperator(self.matrix @ rhs, self.antilinear ^ other.antilinear)

    def apply(self, vec: np.ndarray) -> np.ndarray:
        v = np.conj(vec) if self.antilinear else vec
        return self.matrix @ v

    def adjoint(self) -> "DenseOperator":
        # <A* x, y> = conj(<x, A y>) for antilinear A gives the plain
        # transpose; the linear case is the usual conjugate transpose.
        if self.antilinear:
            return DenseOperator(self.matrix.T, True)
        return DenseOperator(self.matrix.conj().T, False)

    def scaled(self, c: complex) -> "DenseOperator":
        return DenseOperator(c * self.matrix, self.antilinear)

    def plus(self, other: "DenseOperator") -> "DenseOperator":
        if self.antilinear != other.antilinear:
            raise ConfigError("cannot add linear and antilinear operators")
        return DenseOperator(self.matrix + other.matrix, self.antilinear)


@dataclass(frozen=True)
class TruncatedFockSpace:
    """Enumerated occupation basis over all modes and both charges."""

    spectrum: ModeSpectrum
    cutoff: int
    occupations: np.ndarray = field(repr=False)  # (dim, 2*n_modes) ints

    @property
    def n_modes(self) -> int:
        return len(self.spectrum)

    @property
    def dim(self) -> int:
        return self.occupations.shape[0]

    def identity(self) -> DenseOperator:
        return DenseOperator(np.eye(self.dim, dtype=complex))

    def energies(self) -> np.ndarray:
        """Diagonal of H; integer occupation sums per distinct omega, scaled
        once each, so symmetry-related states get bit-identical energies."""
        omegas = np.asarray(self.spectrum.omegas, dtype=float)
        out = np.zeros(self.dim)
        for w in np.unique(omegas):
            slots = np.repeat(omegas == w, 2)
            out += self.occupations[:, slots].sum(axis=1) * w
        return out

    def subcutoff_mask(self) -> np.ndarray:
        """Boolean mask of states with every occupation strictly below cutoff."""
        if self.n_modes == 0:
            return np.ones(1, dtype=bool)
        return (self.occupations < self.cutoff).all(axis=1)

    def slot(self, charge: str, label: str) -> int:
        """Column index in the occupation table for (mode, charge)."""
        if charge not in ("+", "-"):
            raise ConfigError(f"charge must be '+' or '-', got {charge!r}")
        try:
            k = self.spectrum.labels.index(label)
        except ValueError:
            raise ConfigError(f"unknown mode label {label!r}") from None
        return 2 * k + (0 if charge == "+" else 1)


def _enumerate_occupations(n_slots: int, cutoff: int) -> np.ndarray:
    """All occupation tuples in lexicographic order, first slot most significant."""
    if n_slots == 0:
        return np.zeros((1, 0), dtype=np.int64)
    base = cutoff + 1
    dim = base**n_slots
    idx = np.arange(dim)
    occ = np.empty((dim, n_slots), dtype=np.int64)
    for j in range(n_slots - 1, -1, -1):
        occ[:, j] = idx % base
        idx //= base
    return occ


def build_space(
    spectrum: ModeSpectrum, cutoff: int, budget: Optional[int] = None
) -> TruncatedFockSpace:
    """Build the truncated space; guards dense-matrix storage dim**2."""
    if cutoff < 1:
        raise ConfigError("cutoff must be >= 1")
    budget = matrix_budget() if budget is None else budget
    n_slots = 2 * len(spectrum)
    dim = (cutoff + 1) ** n_slots
    if dim * dim > budget:
        raise CapacityError(
            f"dense operators would need {dim * dim} entries, budget {budget}"
        )
    occ = _enumerate_occupations(n_slots, cutoff)
    occ.setflags(write=False)
    return TruncatedFockSpace(spectrum=spectrum, cutoff=cutoff, occupations=occ)


def _single_creation(cutoff: int) -> np.ndarray:
    """Truncated oscillator creation matrix; the top level is annihilated."""
    n = cutoff + 1
    m = np.zeros((n, n), dtype=complex)
    for k in range(cutoff):
        m[k + 1, k] = math.sqrt(k + 1)
    return m


def _slot_operator(space: TruncatedFockSpace, slot: int, local: np.ndarray) -> np.ndarray:
    """Embed a single-oscillator matrix at one (mode, charge) slot."""
    n_slots = 2 * space.n_modes
    out = np.array([[1.0 + 0j]])
    eye = np.eye(space.cutoff + 1, dtype=complex)
    for j in range(n_slots):
        out = np.kron(out, local if j == slot else eye)
    return out


def creation(space: TruncatedFockSpace, charge: str, label: str) -> DenseOperator:
    """Creation operator alpha*_charge(mode) with sqrt(n+1) amplitudes."""
    slot = space.slot(charge, label)
    return DenseOperator(_slot_operator(space, slot, _single_creation(space.cutoff)))


def annihilation(space: TruncatedFockSpace, charge: str, label: str) -> DenseOperator:
    return creation(space, charge, label).adjoint()


def creation_functional(
    space: TruncatedFockSpace, charge: str, coeffs: Sequence[complex]
) -> DenseOperator:
    """Linear creation functional smeared over the modes.

    ``coeffs`` are the components of f in the mode basis.  For charge '+'
    this is A+*(f-bar) = sum_k conj(f_k) alpha+*(k); for charge '-' it is
    A-*(f) = sum_k f_k alpha-*(k).
    """
    f = np.asarray(coeffs, dtype=complex)
    if f.shape != (space.n_modes,):
        raise ConfigError("coefficient vector length must equal the mode count")
    weights = np.conj(f) if charge == "+" else f
    total = np.zeros((space.dim, space.dim), dtype=complex)
    for k, lbl in enumerate(space.spectrum.labels):
        if weights[k] != 0:
            total += weights[k] * creation(space, charge, lbl).matrix
    return DenseOperator(total)


def annihilation_functional(
    space: TruncatedFockSpace, charge: str, coeffs: Sequence[complex]
) -> DenseOperator:
    """Adjoint partner of :func:`creation_functional` at the same coefficients.

    Charge '+': A+(f) = sum_k f_k alpha+(k); charge '-': A-(f-bar) =
    sum_k conj(f_k) alpha-(k).
    """
    return creation_functional(space, charge, coeffs).adjoint()


def hamiltonian(space: TruncatedFockSpace) -> DenseOperator:
    return DenseOperator(np.diag(space.energies().astype(complex)))


def number_operator(space: TruncatedFockSpace) -> DenseOperator:
    if space.n_modes == 0:
        return space.identity().scaled(0.0)
    return DenseOperator(np.diag(space.occupations.sum(axis=1).astype(complex)))


def imaginary_time_field(
    space: TruncatedFockSpace,
    t: float,
    coeffs: Sequence[complex],
    conjugate: bool = False,
) -> DenseOperator:
    """Imaginary-time field phi(t, f-bar), or its conjugate partner.

    Per-mode scalars omega^{-1/2} exp(-/+ t*omega) weight the creation and
    annihilation parts.  The exp(+t*omega) factors grow for large t; at
    desk scale (t <= beta, finite spectra) everything stays finite, but
    magnitudes of order exp(beta*omega_max) appear in intermediate values.
    """
    f = np.asarray(coeffs, dtype=complex)
    if f.shape != (space.n_modes,):
        raise ConfigError("coefficient vector length must equal the mode count")
    w = np.asarray(space.spectrum.omegas, dtype=float)
    decay = f * np.exp(-t * w) / np.sqrt(w)
    growth = f * np.exp(t * w) / np.sqrt(w)
    if not conjugate:
        # phi(t, f-bar) = [A+*(decay-bar) + A-(growth-bar)] / sqrt(2)
        op = creation_functional(space, "+", decay).plus(
            annihilation_functional(space, "-", growth)
        )
    else:
        # phi-bar(t, f) = [A-*(decay) + A+(growth)] / sqrt(2)
        op = creation_functional(space, "-", decay).plus(
            annihilation_functional(space, "+", growth)
        )
    return op.scaled(1.0 / math.sqrt(2.0))


def _unitary_diagonal(space: TruncatedFockSpace, phases: Sequence[complex]) -> np.ndarray:
    """Diagonal of U_S: product over modes of rho^(n+) * conj(rho)^(n-).

    The + charge carries rho and the - charge carries conj(rho); this is
    the frozen phase convention, enforced by the conjugation test
    U_S alpha+*(k) U_S* = rho_k alpha+*(k).
    """
    rho = np.asarray(phases, dtype=complex)
    diag = np.ones(space.dim, dtype=complex)
    for k in range(space.n_modes):
        n_plus = space.occupations[:, 2 * k]
        n_minus = space.occupations[:, 2 * k + 1]
        diag *= rho[k] ** n_plus * np.conj(rho[k]) ** n_minus
    return diag


def _antiunitary_action(
    space: TruncatedFockSpace, sym: SymmetrySpec
) -> tuple[np.ndarray, np.ndarray]:
    """(target index, phase) of U_V applied to each basis state.

    U_V alpha+*(k) U_V* = eta_{pi(k)} alpha-*(pi(k)) and
    U_V alpha-*(k) U_V* = conj(eta_{pi(k)}) alpha+*(pi(k)), so occupations
    map as (n+_k, n-_k) -> (n-_k, n+_k) relocated to mode pi(k).
    """
    perm = [sym.partner_index(k) for k in range(space.n_modes)]
    eta = np.asarray(sym.phases, dtype=complex)
    occ = space.occupations
    target_occ = np.empty_like(occ)
    phase = np.ones(space.dim, dtype=complex)
    for k in range(space.n_modes):
        j = perm[k]
        target_occ[:, 2 * j] = occ[:, 2 * k + 1]
        target_occ[:, 2 * j + 1] = occ[:, 2 * k]
        # state phase: prod_j eta_j^(n+_{pi(j)}) conj(eta_j)^(n-_{pi(j)})
        phase *= eta[j] ** occ[:, 2 * k] * np.conj(eta[j]) ** occ[:, 2 * k + 1]
    base = space.cutoff + 1
    weights = base ** np.arange(2 * space.n_modes - 1, -1, -1)
    target = target_occ @ weights
    return target, phase


def implement_symmetry(space: TruncatedFockSpace, sym: SymmetrySpec) -> DenseOperator:
    """Fock-space implementation U_S; unitary in both symmetry kinds."""
    check_alignment(space.spectrum, sym)
    if sym.kind == UNITARY:
        return DenseOperator(np.diag(_unitary_diagonal(space, sym.phases)))
    target, phase = _antiunitary_action(space, sym)
    m = np.zeros((space.dim, space.dim), dtype=complex)
    m[target, np.arange(space.dim)] = phase
    return DenseOperator(m)


def tc_operator(space: TruncatedFockSpace) -> DenseOperator:
    """Time-charge reversal: swap + and - occupations, then conjugate."""
    occ = space.occupations
    target_occ = np.empty_like(occ)
    target_occ[:, 0::2] = occ[:, 1::2]
    target_occ[:, 1::2] = occ[:, 0::2]
    if space.n_modes == 0:
        return DenseOperator(np.eye(1, dtype=complex), antilinear=True)
    base = space.cutoff + 1
    weights = base ** np.arange(2 * space.n_modes - 1, -1, -1)
    target = target_occ @ weights
    m = np.zeros((space.dim, space.dim), dtype=complex)
    m[target, np.arange(space.dim)] = 1.0
    return DenseOperator(m, antilinear=True)


def twisted_trace(
    space: TruncatedFockSpace,
    factors: Sequence[DenseOperator],
    beta: float,
    twist: DenseOperator,
) -> complex:
    """Tr(factors ... twist exp(-beta H)), heat factor applied diagonally."""
    boltz = np.exp(-beta * space.energies())
    prod = twist
    for op in reversed(factors):
        if op.dim != space.dim:
            raise ConfigError("factor dimension does not match the space")
        prod = op @ prod
    if prod.dim != space.dim:
        raise ConfigError("twist dimension does not match the space")
    if prod.antilinear:
        raise ConfigError("trace of an antilinear composition is not defined")
    return complex(np.sum(np.diag(prod.matrix) * boltz))


def _require_cutoff(cutoff: int) -> None:
    if cutoff < 0:
        raise DomainError(f"occupation cutoff must be nonnegative, got {cutoff}")


def truncation_tail_bound(spectrum: ModeSpectrum, beta: float, cutoff: int) -> float:
    """Relative-error bound for occupation-truncated twisted traces.

    Bounds 1 - prod_k (1 - exp(-beta*omega_k*(N+1)))**2 from above, valid
    for any twist with unit-modulus diagonal eigenvalues.
    """
    if beta <= 0.0:
        raise ConfigError("beta must be positive")
    _require_cutoff(cutoff)
    log_keep = 0.0
    for w in spectrum.omegas:
        log_keep += 2.0 * math.log1p(-math.exp(-beta * w * (cutoff + 1)))
    return -math.expm1(log_keep)


def _truncated_geometric(y: complex, cutoff: int) -> complex:
    """sum_{n=0}^{N} y^n by literal accumulation (Horner)."""
    acc = 0.0 + 0.0j
    for _ in range(cutoff + 1):
        acc = 1.0 + y * acc
    return acc


def partition_trace(
    spectrum: ModeSpectrum,
    sym: Optional[SymmetrySpec],
    beta: float,
    cutoff: int,
) -> complex:
    """Truncated Tr(U_S exp(-beta H)) for a diagonal (unitary or absent) twist.

    U_S and exp(-beta H) are both diagonal over the occupation basis, so
    the full-basis sum factorizes into per-oscillator truncated geometric
    sums; each sum is accumulated term by term.  Agreement with the dense
    :func:`twisted_trace` path is asserted in the test suite.
    """
    _require_cutoff(cutoff)
    if sym is not None:
        if sym.kind != UNITARY:
            raise ConfigError("partition_trace handles unitary twists only")
        check_alignment(spectrum, sym)
        phases = sym.phases
    else:
        phases = (1.0 + 0.0j,) * len(spectrum)
    total = 1.0 + 0.0j
    for w, rho in zip(spectrum.omegas, phases):
        x = math.exp(-beta * w)
        total *= _truncated_geometric(rho * x, cutoff)
        total *= _truncated_geometric(np.conj(rho) * x, cutoff)
    return complex(total)


def antiunitary_partition_trace(
    spectrum: ModeSpectrum, sym: SymmetrySpec, beta: float, cutoff: int
) -> complex:
    """Truncated Tr(U_V exp(-beta H)), factorized over the orbits of pi.

    U_V is a generalized permutation of the occupation basis; only states
    it fixes contribute.  With x = e^{-beta omega} and S_N the truncated
    geometric sum, a fixed mode (n+ = n- = n, phase 1) contributes
    S_N(x^2), and a swapped pair (k, pi(k)) contributes
    S_N(r x^2) S_N(conj(r) x^2) with r = eta_k conj(eta_pi(k)).  Equality
    with the basis enumeration and the dense trace is asserted in the
    tests.
    """
    if sym.kind != ANTIUNITARY:
        raise ConfigError("antiunitary_partition_trace needs an antiunitary twist")
    check_alignment(spectrum, sym)
    _require_cutoff(cutoff)
    total = 1.0 + 0.0j
    for k, w in enumerate(spectrum.omegas):
        j = sym.partner_index(k)
        x2 = math.exp(-2.0 * beta * w)
        if j == k:
            total *= _truncated_geometric(x2, cutoff)
        elif k < j:
            r = complex(sym.phases[k]) * complex(sym.phases[j]).conjugate()
            total *= _truncated_geometric(r * x2, cutoff)
            total *= _truncated_geometric(r.conjugate() * x2, cutoff)
    return complex(total)


def _enumerated_antiunitary_trace(
    spectrum: ModeSpectrum, sym: SymmetrySpec, beta: float, cutoff: int
) -> complex:
    """Truncated Tr(U_V exp(-beta H)) by basis enumeration (test oracle).

    Sums the phases of the basis states fixed by the occupation relabeling
    over the full enumerated basis, without building dense matrices.
    """
    check_alignment(spectrum, sym)
    n_slots = 2 * len(spectrum)
    dim = (cutoff + 1) ** n_slots
    if dim > ENUMERATION_CAPACITY:
        raise CapacityError(f"basis enumeration of {dim} states exceeds the cap")
    occ = _enumerate_occupations(n_slots, cutoff)
    space = TruncatedFockSpace(spectrum=spectrum, cutoff=cutoff, occupations=occ)
    target, phase = _antiunitary_action(space, sym)
    fixed = target == np.arange(space.dim)
    boltz = np.exp(-beta * space.energies()[fixed])
    return complex(np.sum(phase[fixed] * boltz))
