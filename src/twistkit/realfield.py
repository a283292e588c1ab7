"""Extended-space doubling and the reduction of antiunitary twists.

The doubled coefficient space has 2*M coordinates (c, d): the first M
entries are coordinates of the conjugate-sector element with respect to
the conjugate basis, the last M are ordinary mode coefficients.  In these
coordinates both induced symmetries are honest complex-linear unitary
matrices, and "real" means commuting with the natural conjugation
J(c, d) = (conj(d), conj(c)).

The induced matrix is the transpose of the symmetry's slot action
(:class:`twistkit.spectrum.SlotAction`), a generalized permutation: it maps
each doubled basis vector e_c to u_c e_sigma(c) with a unit phase u_c, and
sigma is an involution.  It therefore diagonalizes orbit by orbit, one
orbit per cycle of the slot action.  A fixed index c has the eigenpair
(u_c, e_c).  A 2-cycle a <-> b has the eigenvalues lambda = +-sqrt(u_a u_b)
with unit eigenvectors (e_a + (u_a / lambda) e_b) / sqrt(2).

The extended pair-correlation kernel exists here only in its sampled
layout, :func:`sample_extended_kernel`: one scalar twisted kernel per
doubled eigenmode, mixed by the eigenbasis.  The CSV export and the
``realfield`` verify suite read that layout; for a unitary input the
eigenbasis is the identity, so no block mixes the two sectors.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from . import fock
from .correlation import (
    SampledKernel,
    TwistedKernel,
    kernel_twist_angle,
    sample_kernels,
    write_kernel_csv,
)
from .errors import (
    ConfigError,
    DomainError,
    InternalConsistencyError,
    RangeError,
)
from .spectrum import ModeSpectrum, SlotAction, SymmetrySpec, slot_action

UNITARITY_TOL = 1e-12


@dataclass(frozen=True)
class ExtendedSpectrum:
    """Doubled spectrum with the induced unitary on the coefficient space.

    ``phases[j]`` and column ``j`` of ``eigenbasis`` are the j-th
    eigenpair of ``induced``, at the frequency ``doubled_omegas()[j]``.
    """

    base: ModeSpectrum
    induced: np.ndarray = field(repr=False)  # (2M, 2M) unitary
    phases: np.ndarray = field(repr=False)  # (2M,) unit eigenvalues
    eigenbasis: np.ndarray = field(repr=False)  # (2M, 2M) unitary W

    @property
    def n_doubled(self) -> int:
        return 2 * len(self.base)

    def doubled_omegas(self) -> np.ndarray:
        w = np.asarray(self.base.omegas, dtype=float)
        return np.concatenate([w, w])

    def natural_conjugation(self, vec: np.ndarray) -> np.ndarray:
        """J(c, d) = (conj(d), conj(c))."""
        m = len(self.base)
        out = np.empty_like(vec, dtype=complex)
        out[:m] = np.conj(vec[m:])
        out[m:] = np.conj(vec[:m])
        return out


def _doubled(slot: int, m: int) -> int:
    """Doubled index of a slot: the - slot 2c + 1 is c, the + slot 2k is M + k."""
    return slot // 2 if slot % 2 else m + slot // 2


def _induced(action: SlotAction, m: int) -> np.ndarray:
    """The transpose of the slot action: slot t takes its occupation from
    s = source[t] with the phase p_s, so e_{d(t)} goes to p_s e_{d(s)}."""
    induced = np.zeros((2 * m, 2 * m), dtype=complex)
    # numpy complex128: u_a / lambda in Python complex moves the eigenbasis by an ulp
    phases = np.asarray(action.phases, dtype=complex)
    for t, s in enumerate(action.source):
        induced[_doubled(s, m), _doubled(t, m)] = phases[s]
    return induced


def extend(spectrum: ModeSpectrum, sym: SymmetrySpec) -> ExtendedSpectrum:
    """Double the spectrum and build the induced unitary with its eigenbasis.

    Unitary input (phases rho) fixes every doubled index: diag(conj(rho); rho).
    Antiunitary input (pairing pi, phases eta) swaps the sectors: each k
    gives the 2-cycle k <-> M + pi(k) with u_k = eta_k and
    u_{M+pi(k)} = conj(eta_{pi(k)}).  A 2-cycle a < b puts +lambda in slot
    a and -lambda in slot b, so each slot keeps its doubled frequency.
    """
    action = slot_action(spectrum, sym)
    m = len(spectrum)
    n = 2 * m
    induced = _induced(action, m)
    phases = np.zeros(n, dtype=complex)
    basis = np.zeros((n, n), dtype=complex)
    for first, _, _ in action.cycles:
        a, b = sorted((_doubled(first, m), _doubled(action.source[first], m)))
        u_a, u_b = induced[b, a], induced[a, b]
        if a == b:
            phases[a], basis[a, a] = u_a, 1.0
            continue
        root = cmath.sqrt(u_a * u_b)
        for slot, lam in ((a, root), (b, -root)):
            phases[slot] = lam
            basis[[a, b], slot] = np.array([1.0, u_a / lam]) / math.sqrt(2.0)
    # structural guarantees, checked numerically once at build time
    eye = np.eye(n)
    defects = {
        "induced matrix not unitary": induced @ induced.conj().T - eye,
        # J U J = U, with J swapping the two halves and conjugating
        "induced matrix does not commute with the natural conjugation": (
            np.roll(induced.conj(), (m, m), axis=(0, 1)) - induced
        ),
        "orbit eigenpairs off: U W - W Lambda": induced @ basis - basis * phases,
        "orbit eigenbasis not orthonormal: W* W - I": basis.conj().T @ basis - eye,
    }
    for what, defect in defects.items():
        size = float(np.abs(defect).max()) if n else 0.0
        if not size <= UNITARITY_TOL:  # a NaN defect fails too
            raise InternalConsistencyError(f"{what} ({size:.3e})")
    for arr in (induced, phases, basis):
        arr.setflags(write=False)
    return ExtendedSpectrum(base=spectrum, induced=induced, phases=phases, eigenbasis=basis)


def z_via_realfield(ext: ExtendedSpectrum, beta: float) -> float:
    """Partition function through the doubled-theory product formula.

    One factor (1 - lambda_j e^{-beta omega_j})^{-1} per doubled mode.
    For a unitary input the eigenphases are {conj(rho_k), rho_k} and this
    reproduces the |1 - rho e^{-beta omega}|^{-2} product; for an
    antiunitary input it is an independent route to the square-root
    formula.
    """
    if not beta > 0.0:
        raise DomainError("beta must be positive")
    z = 1.0 + 0.0j
    for w, lam in zip(ext.doubled_omegas().tolist(), ext.phases.tolist()):
        z /= 1.0 - lam * math.exp(-beta * w)
    if z == 0.0 or not cmath.isfinite(z):
        raise RangeError(f"real-field partition value {z} is outside the float range")
    if abs(z) > 0.0 and abs(z.imag) > 1e-10 * abs(z):
        raise InternalConsistencyError(
            f"real-field partition value {z} is not real; "
            "eigenphases are not conjugation-closed"
        )
    return z.real


def sample_extended_kernel(ext: ExtendedSpectrum, beta: float, m: int) -> SampledKernel:
    """The extended kernel on the m-point grid, positive definite for both
    input kinds (discrete counterpart of the positivity of the extended
    correlation operator): in the eigenbasis of the induced unitary it is
    the direct sum of the scalar twisted kernels of the doubled eigenmodes,
    one column each, mixed by ``ext.eigenbasis``."""
    kernels = [
        TwistedKernel(float(w), kernel_twist_angle(p), beta)
        for w, p in zip(ext.doubled_omegas(), ext.phases)
    ]
    return sample_kernels(kernels, beta, m, ext.eigenbasis)


def export_extended_kernel_csv(path, ext: ExtendedSpectrum, beta: float, m: int) -> SampledKernel:
    """Write the extended kernel on the m-point grid as CSV and return it:
    one row per (t, s, row_sector, col_sector), written one (t, s) block at
    a time by :func:`twistkit.correlation.write_kernel_csv`; the (m*2M)^2
    grid is never formed."""
    sampled = sample_extended_kernel(ext, beta, m)
    write_kernel_csv(path, sampled)
    return sampled


def field_coefficient_map(ext: ExtendedSpectrum, q: np.ndarray) -> np.ndarray:
    """Coordinates of the induced-symmetry adjoint applied to q."""
    return ext.induced.conj().T @ np.asarray(q, dtype=complex)


def _doubled_creation(ext: ExtendedSpectrum, q: np.ndarray) -> np.ndarray:
    """Field table of A*(q) = sum_k c_k alpha+*(k) + d_k alpha-*(k), q = (c, d)."""
    m = len(ext.base)
    field = np.zeros((2, 2 * m), dtype=complex)
    field[0, 0::2], field[0, 1::2] = q[:m], q[m:]
    return field


def real_time_field(
    space: fock.FockSpace, ext: ExtendedSpectrum, t: float, q: np.ndarray
) -> np.ndarray:
    """Real-time doubled field psi(t, q), as a Fock field table.

    psi(t, q) = (1/sqrt 2) [A*(omega^{-1/2} e^{i t omega} q)
                            + A(omega^{-1/2} e^{-i t omega} q)]
    with A(q) = sum_k c_k alpha-(k) + d_k alpha+(k).
    """
    q = np.asarray(q, dtype=complex)
    if q.shape != (ext.n_doubled,):
        raise ConfigError("coefficient vector must have doubled length")
    w = ext.doubled_omegas()
    up = q * np.exp(1j * t * w) / np.sqrt(w)
    down = q * np.exp(-1j * t * w) / np.sqrt(w)
    # A(v) = sum c_k alpha-(k) + d_k alpha+(k) = (A*(Jv))^*
    destroy = fock.adjoint(_doubled_creation(ext, ext.natural_conjugation(down)))
    return (_doubled_creation(ext, up) + destroy) / math.sqrt(2.0)


def real_field_checks(
    ext: ExtendedSpectrum, sym: SymmetrySpec, cutoff: int, seed: int = 0
) -> dict[str, float]:
    """Fock-oracle verification of the doubled-field structure.

    Returns the largest sub-cutoff deviation of each identity at t = 0.37,
    on seeded states supported on the sub-cutoff block: adjoint covariance
    psi(t,q)* = psi(t, Jq) as <x, psi(t,q) v> = <psi(t,Jq) x, v>; the
    equal-time commutator [psi, psi] = 0; the canonical pair
    [psi, d/dt psi] = i<Jq, r>; the creation/annihilation commutator
    [A(q), A*(r)] = <Jq, r>; and the symmetry covariance
    U psi(t, q) U* = psi(t, induced* q), as U psi(t, q) = psi(t, induced* q) U.
    """
    space = fock.FockSpace(ext.base, cutoff)
    rng = np.random.default_rng(seed)
    n = ext.n_doubled
    q = rng.normal(size=n) + 1j * rng.normal(size=n)
    r = rng.normal(size=n) + 1j * rng.normal(size=n)
    v = space.random_state(rng)
    t = 0.37

    def act(field: np.ndarray, state: np.ndarray, subcutoff: bool = False) -> np.ndarray:
        return fock.apply_field(space, field, state, subcutoff)

    def dev(residual: np.ndarray) -> float:
        return float(np.abs(residual).max())

    psi_q = real_time_field(space, ext, t, q)
    psi_r = real_time_field(space, ext, t, r)

    report: dict[str, float] = {}
    x = space.random_state(rng)
    psi_jq = real_time_field(space, ext, t, ext.natural_conjugation(q))
    report["adjoint_covariance"] = float(
        abs(np.vdot(x, act(psi_q, v, subcutoff=True)) - np.vdot(act(psi_jq, x, subcutoff=True), v))
    )
    report["equal_time_commutator"] = dev(fock.sub_commutator(space, psi_q, psi_r, v))

    # d/dt psi by centered differences with one Richardson step
    def ddt(h: float) -> np.ndarray:
        return (real_time_field(space, ext, t + h, r) - real_time_field(space, ext, t - h, r)) / (
            2.0 * h
        )

    h0 = 1e-3
    dpsi = (4.0 * ddt(h0 / 2.0) - ddt(h0)) / 3.0
    pairing = complex(np.dot(ext.natural_conjugation(q).conjugate(), r))
    report["canonical_pair"] = dev(fock.sub_commutator(space, psi_q, dpsi, v) - 1j * pairing * v)

    a_star_r = _doubled_creation(ext, r)
    a_q = fock.adjoint(_doubled_creation(ext, ext.natural_conjugation(q)))
    report["ccr_doubled"] = dev(fock.sub_commutator(space, a_q, a_star_r, v) - pairing * v)

    psi_conj_q = real_time_field(space, ext, t, field_coefficient_map(ext, q))
    u_psi_q = fock.apply_symmetry(space, sym, act(psi_q, v, subcutoff=True))
    report["symmetry_covariance"] = dev(
        u_psi_q - act(psi_conj_q, fock.apply_symmetry(space, sym, v), subcutoff=True)
    )
    return report
