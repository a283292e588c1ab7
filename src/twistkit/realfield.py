"""Extended-space doubling and the reduction of antiunitary twists.

The doubled coefficient space has 2*M coordinates (c, d): the first M
entries are coordinates of the conjugate-sector element with respect to
the conjugate basis, the last M are ordinary mode coefficients.  In these
coordinates both induced symmetries are honest complex-linear unitary
matrices, and "real" means commuting with the natural conjugation
J(c, d) = (conj(d), conj(c)).

The induced matrix U is the transpose of the symmetry's slot action
(:class:`twistkit.spectrum.SlotAction`), a generalized permutation: it maps
each doubled basis vector e_c to u_c e_sigma(c) with a unit phase u_c.  It
therefore diagonalizes cycle by cycle, by the discrete Fourier transform
of each cycle.  A cycle c_0 -> c_1 -> ... -> c_{L-1} -> c_0 with phase
product r has the eigenvalues lambda_q = r^{1/L} e^{2 pi i q/L} and the
unit eigenvectors v_q = L^{-1/2} sum_j a_j e_{c_j}, with a_0 = 1 and
a_{j+1} = u_{c_j} a_j / lambda_q.  Eigenmode q sits at column c_q, so each
column keeps its doubled frequency; a fixed index c has the eigenpair
(u_c, e_c), and a 2-cycle a < b puts +-sqrt(u_a u_b) in columns a and b.
The basis is kept sparse, one L x L block per cycle, and :func:`extend`
checks it cycle by cycle.

The extended pair-correlation kernel exists here only in its sampled
layout, :func:`sample_extended_kernel`: one scalar twisted kernel per
doubled eigenmode, mixed by the per-cycle basis.  The CSV export and the
``realfield`` verify suite read that layout; for a unitary input every
index is fixed, so no block mixes the two sectors.

The module holds closed forms only and runs on ``math`` and ``cmath``.
The one numpy import is in the dense ``ExtendedSpectrum.induced``, built
from the sparse image table when first read, by tests and the benchmark.
The doubled-field oracle, which checks the real-time field of the doubled
theory in the truncated Fock space, is
:func:`twistkit.verify.doubled_field_checks`.
"""

from __future__ import annotations

import cmath
import math
from functools import cached_property
from typing import TYPE_CHECKING

from .correlation import (
    Basis,
    SampledKernel,
    TwistedKernel,
    kernel_twist_angle,
    sample_kernels,
    write_kernel_csv,
)
from .errors import DomainError, InternalConsistencyError, RangeError
from .spectrum import ModeSpectrum, SlotAction, SymmetrySpec, slot_action

if TYPE_CHECKING:
    import numpy as np

UNITARITY_TOL = 1e-12


class ExtendedSpectrum:
    """Doubled spectrum with the eigenbasis of the induced unitary.

    ``phases[c]`` is the eigenvalue of the eigenmode in column c, at the
    frequency ``doubled_omegas()[c]``.  ``basis`` holds the eigenvectors
    cycle by cycle, as (indices c_0..c_{L-1}, columns): column q sits at
    index c_q and holds its coefficients on rows c_0..c_{L-1}; every other
    entry is zero.  ``images`` is the induced matrix as the table
    c -> (sigma(c), u_c): it maps e_c to u_c e_sigma(c).
    """

    def __init__(self, base: ModeSpectrum, action: SlotAction, phases: tuple[complex, ...],
                 basis: Basis, images: dict[int, tuple[int, complex]]):
        self.base, self.action, self.phases, self.basis = base, action, phases, basis
        self.images = images

    @property
    def n_doubled(self) -> int:
        return 2 * len(self.base)

    def doubled_omegas(self) -> tuple[float, ...]:
        return self.base.omegas * 2

    @cached_property
    def induced(self) -> np.ndarray:
        """The dense (2M, 2M) induced unitary, built when first read."""
        import numpy as np

        n = self.n_doubled
        induced = np.zeros((n, n), dtype=complex)
        for c, (target, u) in self.images.items():
            induced[target, c] = u
        induced.setflags(write=False)
        return induced


def _doubled(slot: int, m: int) -> int:
    """Doubled index of a slot: the - slot 2c + 1 is c, the + slot 2k is M + k."""
    return slot // 2 if slot % 2 else m + slot // 2


def _images(action: SlotAction, m: int) -> dict[int, tuple[int, complex]]:
    """The induced matrix, the transpose of the slot action, as c -> (sigma(c),
    u_c): slot t takes its occupation from s = source[t] with the phase p_s,
    so e_{d(t)} goes to p_s e_{d(s)}."""
    return {_doubled(t, m): (_doubled(s, m), action.phases[s]) for t, s in enumerate(action.source)}


def _cycle_root(r: complex, length: int) -> complex:
    """The principal root r^{1/L}; ``cmath.sqrt`` for L = 2, on which the
    exported bytes of every 2-cycle rest."""
    if length == 1:
        return r
    return cmath.sqrt(r) if length == 2 else r ** (1.0 / length)


def _turn(root: complex, q: int, length: int) -> complex:
    """root e^{2 pi i q/L}, exact at the quarter turns."""
    quarter, rest = divmod(4 * q, length)
    if rest:
        return root * cmath.rect(1.0, 2.0 * math.pi * q / length)
    return (root, complex(-root.imag, root.real), -root, complex(root.imag, -root.real))[quarter]


def _cycle_eigenpairs(units: list[complex], r: complex) -> list[tuple[complex, list[complex]]]:
    """(lambda_q, [w_0..w_{L-1}]) for q = 0..L-1 on a cycle with
    U e_{c_j} = units[j] e_{c_{j+1}} and phase product r: the DFT of the
    cycle, w_j = a_j / sqrt(L) with a_0 = 1, a_{j+1} = u_j a_j / lambda_q."""
    length = len(units)
    root = _cycle_root(r, length)
    scale = 1.0 / math.sqrt(length)
    pairs = []
    for q in range(length):
        lam = _turn(root, q, length)
        a, coeffs = 1.0 + 0.0j, []
        for u in units:
            coeffs.append(a * scale)
            a = u * a / lam
        pairs.append((lam, coeffs))
    return pairs


def _worst(defects) -> float:
    """The largest defect, or NaN if any is NaN (``max`` alone may drop it)."""
    return max(defects, key=lambda d: (d != d, d), default=0.0)


def extend(spectrum: ModeSpectrum, sym: SymmetrySpec) -> ExtendedSpectrum:
    """Double the spectrum and diagonalize the induced unitary cycle by cycle.

    Unitary input (phases rho) fixes every doubled index: diag(conj(rho); rho).
    Antiunitary input (pairing pi, phases eta) swaps the sectors: each k
    gives the 2-cycle k <-> M + pi(k) with u_k = eta_k and
    u_{M+pi(k)} = conj(eta_{pi(k)}).  Each cycle is walked from its
    smallest doubled index.  The structure is checked numerically once,
    here, without forming a matrix: every u_c has unit modulus, U commutes
    with J (u_{c+M} = conj(u_c) on the mirrored index), and within each
    cycle U v_q = lambda_q v_q and the columns are orthonormal; columns of
    different cycles have disjoint support.
    """
    action = slot_action(spectrum, sym)
    m = len(spectrum)
    n = 2 * m
    image = _images(action, m)
    phases = [0j] * n
    basis = []
    eigenpairs, gram = [], []
    for first, length, r in action.cycles:
        walk = [_doubled(first, m)]
        while len(walk) < length:
            walk.append(image[walk[-1]][0])
        start = walk.index(min(walk))
        indices = walk[start:] + walk[:start]
        pairs = _cycle_eigenpairs([image[c][1] for c in indices], r)
        columns = [w for _, w in pairs]
        for c, (lam, w) in zip(indices, pairs):
            phases[c] = lam
            v = dict(zip(indices, w))
            # (U v)_sigma(b) = u_b v_b against lambda v_sigma(b), zero off the cycle
            eigenpairs += [
                abs(image[b][1] * v_b - lam * v.get(image[b][0], 0j)) for b, v_b in v.items()
            ]
            # <w, x> - delta over the columns x of the cycle
            gram += [
                abs(sum([a.conjugate() * b for a, b in zip(w, x)], 0j) - (1.0 if x is w else 0.0))
                for x in columns
            ]
        basis.append((tuple(indices), tuple(map(tuple, columns))))
    if sorted(c for indices, _ in basis for c in indices) != list(range(n)):
        gram.append(1.0)  # a column missing or repeated: a diagonal entry of W* W is off by 1
    defects = {
        "induced matrix not unitary": [abs(abs(u) ** 2 - 1.0) for _, u in image.values()],
        # J U J = U: the mirrored index c + M goes to the mirror of sigma(c), with conj(u_c)
        "induced matrix does not commute with the natural conjugation": [
            abs(image[(c + m) % n][1].conjugate() - u) if image[(c + m) % n][0] == (target + m) % n
            else abs(u)
            for c, (target, u) in image.items()
        ],
        "orbit eigenpairs off: U W - W Lambda": eigenpairs,
        "orbit eigenbasis not orthonormal: W* W - I": gram,
    }
    for what, found in defects.items():
        size = _worst(found)
        if not size <= UNITARITY_TOL:  # a NaN defect fails too
            raise InternalConsistencyError(f"{what} ({size:.3e})")
    return ExtendedSpectrum(spectrum, action, tuple(phases), tuple(basis), image)


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
    for w, lam in zip(ext.doubled_omegas(), ext.phases):
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
    one column each, mixed by the per-cycle basis ``ext.basis``."""
    kernels = [
        TwistedKernel(w, kernel_twist_angle(p), beta)
        for w, p in zip(ext.doubled_omegas(), ext.phases)
    ]
    return sample_kernels(kernels, beta, m, ext.basis)


def export_extended_kernel_csv(path, ext: ExtendedSpectrum, beta: float, m: int) -> SampledKernel:
    """Write the extended kernel on the m-point grid as CSV and return it:
    one row per (t, s, row_sector, col_sector), written one (t, s) block at
    a time by :func:`twistkit.correlation.write_kernel_csv`; the (m*2M)^2
    grid is never formed."""
    sampled = sample_extended_kernel(ext, beta, m)
    write_kernel_csv(path, sampled)
    return sampled

