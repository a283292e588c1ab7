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
The basis is kept sparse, one L x L block per cycle, and checked where it
is exported, by :func:`twistkit.verify.eigenbasis_checks`.

The extended pair-correlation kernel exists here only in its sampled
layout, :func:`sample_extended_kernel`: the (omega, theta) columns of the
doubled eigenmodes, handed to :func:`twistkit.correlation.sample_kernels`
with the per-cycle basis.  The CSV export
(:func:`twistkit.correlation.export_kernel_csv`, the exporter of the
scalar kernel too) and the ``kernel`` verify suite, for every action,
read that layout; for a unitary input (or none) every index is fixed, so
no block mixes the two sectors.

The module holds closed forms only and runs on ``math`` and ``cmath``,
and it loads :mod:`twistkit.correlation` only when it samples a kernel;
the dense ``ExtendedSpectrum.induced``, read by tests and the benchmark,
is a table of row tuples built from the sparse image table.  No route to
Z reads this module: the ``partition`` checks walk the slot action
itself (:func:`twistkit.verify.z_via_det`), and the doubled-theory
product over these eigenphases is a test reference only.  The oracle
that reads this doubling lives with the verify suites: the doubled-field
oracle, which checks the real-time field of the doubled theory in the
truncated Fock space, :func:`twistkit.fock.doubled_field_checks`.
"""

from __future__ import annotations

import cmath
import math
from functools import cached_property

from .spectrum import ModeSpectrum, SlotAction, SymmetrySpec, slot_action

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Optional

    from .correlation import Basis, SampledKernel


class ExtendedSpectrum:
    """Doubled spectrum with the eigenbasis of the induced unitary.

    ``phases[c]`` is the eigenvalue of the eigenmode in column c, at the
    frequency ``doubled_omegas()[c]``.  ``basis`` holds the eigenvectors
    cycle by cycle, as (indices c_0..c_{L-1}, columns): column q sits at
    index c_q and holds its coefficients on rows c_0..c_{L-1}; every other
    entry is zero.  ``images`` is the induced matrix as the table
    c -> (sigma(c), u_c): it maps e_c to u_c e_sigma(c).
    """

    def __init__(self, base: ModeSpectrum, phases: tuple[complex, ...], basis: Basis,
                 images: dict[int, tuple[int, complex]]):
        self.base, self.phases, self.basis, self.images = base, phases, basis, images

    @property
    def n_doubled(self) -> int:
        return 2 * len(self.base)

    def doubled_omegas(self) -> tuple[float, ...]:
        return self.base.omegas * 2

    @cached_property
    def induced(self) -> tuple[tuple[complex, ...], ...]:
        """The dense (2M, 2M) induced unitary as a tuple of row tuples,
        built when first read: entry (sigma(c), c) is u_c, every other 0."""
        n = self.n_doubled
        rows = [[0j] * n for _ in range(n)]
        for c, (target, u) in self.images.items():
            rows[target][c] = u
        return tuple(map(tuple, rows))


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


def extend(spectrum: ModeSpectrum, sym: Optional[SymmetrySpec]) -> ExtendedSpectrum:
    """Double the spectrum and diagonalize the induced unitary cycle by cycle.

    Unitary input (phases rho) fixes every doubled index: diag(conj(rho); rho),
    the identity at ``sym=None``.
    Antiunitary input (pairing pi, phases eta) swaps the sectors: each k
    gives the 2-cycle k <-> M + pi(k) with u_k = eta_k and
    u_{M+pi(k)} = conj(eta_{pi(k)}).  Each cycle is walked from its
    smallest doubled index.  Nothing is checked here: each u_c is a validated
    unit phase, and U commutes with J and its cycles cover each index once by
    construction of the slot action (the - slot has the conjugate phase).
    """
    action = slot_action(spectrum, sym)
    m = len(spectrum)
    image = _images(action, m)
    phases = [0j] * (2 * m)
    basis = []
    for first, length, r in action.cycles:
        walk = [_doubled(first, m)]
        while len(walk) < length:
            walk.append(image[walk[-1]][0])
        start = walk.index(min(walk))
        indices = walk[start:] + walk[:start]
        pairs = _cycle_eigenpairs([image[c][1] for c in indices], r)
        for c, (lam, _) in zip(indices, pairs):
            phases[c] = lam
        basis.append((tuple(indices), tuple(tuple(w) for _, w in pairs)))
    return ExtendedSpectrum(spectrum, tuple(phases), tuple(basis), image)


def sample_extended_kernel(ext: ExtendedSpectrum, beta: float, m: int) -> SampledKernel:
    """The extended kernel on the m-point grid, positive definite for both
    input kinds (discrete counterpart of the positivity of the extended
    correlation operator): in the eigenbasis of the induced unitary it is
    the direct sum of the scalar twisted kernels of the doubled eigenmodes,
    one column each, mixed by the per-cycle basis ``ext.basis``."""
    from .correlation import kernel_twist_angle, sample_kernels

    thetas = [kernel_twist_angle(p) for p in ext.phases]
    return sample_kernels(beta, ext.doubled_omegas(), thetas, m, ext.basis)

