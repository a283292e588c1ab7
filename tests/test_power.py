"""The power matrix: named mutations against the checks that must catch them.

Each row breaks one thing with ``monkeypatch`` (a closed form, an oracle,
a basis, the mixing of the blocks, a sign or a phase), runs one command
through ``cli.main`` and
reads which checks print ``[FAIL]``.  A MUST_FAIL row names exactly the
checks that catch its mutation.  An UNDETECTED row is a known gap: it
asserts the exit code the command gives today, with no check failing, and
names the ROADMAP item that closes it.  The change that closes a gap moves
its row to MUST_FAIL, or to REFUSED where the command now refuses (exit
3) on correct and mutated code alike, before the mutated route runs.

The rows reuse the golden configs; "{output}" in an argv stands for a CSV
path, "{minus_one}" for a one-mode config at omega = ln 2, rho = -1,
"{no_symmetry}" for a two-mode config (a, b) without a symmetry, and
"{omega_1e300}" for a one-mode config at omega = 1e300.
"""

import cmath
import contextlib
import inspect
import io
import json
import math
import re
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from twistkit import cli, correlation, fock, partition, realfield, verify
from twistkit import spectrum as spectrum_module
from twistkit.spectrum import SlotAction, SymmetrySpec

GOLDEN = Path(__file__).parent / "golden"
ANTI = str(GOLDEN / "anti_pair_fixed.json")
ANTI2 = str(GOLDEN / "anti_two_pairs_fixed.json")


def across(check):
    """A check's name in its run on the union of the first two factors."""
    return check + fock.CROSS_FACTOR_SUFFIX


def rotate_basis(monkeypatch):
    """The first two columns of every cycle block of the sampled basis,
    rotated by 0.01 rad: still orthonormal, no longer eigenvectors of U."""
    sample = realfield.sample_extended_kernel
    c, s = math.cos(0.01), math.sin(0.01)

    def rotated(ext, beta, m):
        sampled = sample(ext, beta, m)
        sampled.basis = tuple(
            (indices, (tuple(c * a + s * b for a, b in zip(w0, w1)),
                       tuple(c * b - s * a for a, b in zip(w0, w1)), *rest))
            for indices, (w0, w1, *rest) in sampled.basis
        )
        return sampled

    monkeypatch.setattr(realfield, "sample_extended_kernel", rotated)


def u_for_u_star(monkeypatch):
    """Conjugated phases in the image table: the U* q map becomes one by U."""
    extend = realfield.extend

    def conjugated(spectrum, sym):
        ext = extend(spectrum, sym)
        ext.images = {c: (target, u.conjugate()) for c, (target, u) in ext.images.items()}
        return ext

    monkeypatch.setattr(realfield, "extend", conjugated)


def j_without_half_swap(monkeypatch):
    """The natural conjugation J(c, d) = (conj(d), conj(c)) as plain conj."""
    monkeypatch.setattr(fock, "_natural_conjugation", np.conj)


def flipped_twist_sign(monkeypatch):
    """The kernel twist angle of rho as +arg(rho) instead of -arg(rho)."""
    monkeypatch.setattr(correlation, "KERNEL_TWIST_SIGN", -correlation.KERNEL_TWIST_SIGN)


def z_scaled_by_5e_11(monkeypatch):
    z_twisted = partition.z_twisted
    monkeypatch.setattr(partition, "z_twisted", lambda *args: z_twisted(*args) * (1.0 + 5e-11))


def fock_oracle_plus_1e_7(monkeypatch):
    oracle = correlation.kernel_oracle
    monkeypatch.setattr(correlation, "kernel_oracle", lambda *args: oracle(*args) + 1e-7)


def fock_oracle_plus_1e_7_at_lag_1(monkeypatch):
    """``kernel_oracle`` plus 1e-7 only where |t - s| = beta/32: lags +-1
    of a 32-point grid, the ``kernel`` suite's or one that ``kernel --grid
    32`` exports, which a sample of its lags, or a grid of another size,
    may miss."""
    oracle = correlation.kernel_oracle

    def shifted(spectrum, sym, beta, t, s, cutoff):
        value = oracle(spectrum, sym, beta, t, s, cutoff)
        return value + (1e-7 if abs(t - s) == beta / 32 else 0.0)

    monkeypatch.setattr(correlation, "kernel_oracle", shifted)


def wrong_slot_apply_field(monkeypatch):
    """Each creation coefficient of a field table moved to the other
    charge's slot of its mode: alpha+* and alpha-* trade places."""
    apply_field = fock.apply_field

    def swapped(space, field, state, subcutoff=False):
        field = field.copy()
        field[0] = field[0, [s ^ 1 for s in range(field.shape[1])]]
        return apply_field(space, field, state, subcutoff)

    monkeypatch.setattr(fock, "apply_field", swapped)


def jordan_wigner_signs(monkeypatch):
    """Fermionic statistics: each slot's terms of ``fock.apply_field`` carry
    the Jordan-Wigner string (-1)^(occupation of the slots before it), so the
    operators of distinct slots anticommute instead of commuting."""
    apply_field = fock.apply_field

    def fermionic(space, field, state, subcutoff=False):
        n, levels = space.n_slots, np.arange(state.shape[0])
        out = 0
        for s in range(n):
            one_slot = np.zeros_like(field)
            one_slot[:, s] = field[:, s]
            before = sum((levels.reshape(fock._axis_shape(n, t, len(levels))) for t in range(s)), 0)
            out = out + apply_field(space, one_slot, (-1.0) ** before * state, subcutoff)
        return out

    monkeypatch.setattr(fock, "apply_field", fermionic)


def cross_mode_creation(monkeypatch):
    """Each creation coefficient of a field table moved to the same charge
    of the next mode; on a one-mode factor this is no change at all."""
    apply_field = fock.apply_field

    def rolled(space, field, state, subcutoff=False):
        field = field.copy()
        field[0] = np.roll(field[0], 2)
        return apply_field(space, field, state, subcutoff)

    monkeypatch.setattr(fock, "apply_field", rolled)


def phases_at_mirrored_mode(monkeypatch):
    """``SymmetrySpec.action`` reads the phase of mode j at mode m - 1 - j;
    on a one-mode factor this is no change at all."""
    build = SymmetrySpec.action.func
    monkeypatch.setattr(SymmetrySpec, "action", property(
        lambda sym: build(SymmetrySpec(sym.kind, sym.phases[::-1], sym.pairing))))


def unpaired_normal_form(monkeypatch):
    """``SymmetrySpec.action`` maps every mode onto itself, as if the
    pairing were the identity; the factors still keep each pair together."""
    build = SymmetrySpec.action.func

    def unpaired(sym):
        identity = None if sym.pairing is None else tuple(range(len(sym.phases)))
        return build(SymmetrySpec(sym.kind, sym.phases, identity))

    monkeypatch.setattr(SymmetrySpec, "action", property(unpaired))


def conjugated_imaginary_time(monkeypatch):
    """``fock.field`` at the conjugate tau: e^{+omega Im tau} on creation,
    e^{-omega Im tau} on annihilation."""
    field = fock.field
    monkeypatch.setattr(fock, "field", lambda space, q, tau: field(space, q, tau.conjugate()))


def conjugated_field_annihilation(monkeypatch):
    """``fock.field`` with its annihilation coefficients conjugated: the
    commutator of psi(t, q) and psi(t, r) is no longer a symmetric form in
    q and r, so it no longer vanishes."""
    field = fock.field

    def conjugated(space, q, tau):
        table = field(space, q, tau)
        table[1] = table[1].conj()
        return table

    monkeypatch.setattr(fock, "field", conjugated)


def flipped_creation_weight(monkeypatch):
    """Only the creation row of ``fock.field`` at the conjugate tau."""
    field = fock.field

    def flipped(space, q, tau):
        table = field(space, q, tau)
        table[0] = field(space, q, tau.conjugate())[0]
        return table

    monkeypatch.setattr(fock, "field", flipped)


def tc_without_conjugation(monkeypatch):
    """``fock.apply_tc`` swaps the charge axes but does not conjugate: a
    linear map, no longer antiunitary."""
    monkeypatch.setattr(fock, "apply_tc", lambda space, state: np.transpose(
        state, [s ^ 1 for s in range(space.n_slots)]))


def minus_slot_energies_shifted(monkeypatch):
    """``FockSpace.energies`` with every - slot at omega (1 + 1e-6): H no
    longer commutes with a twist that moves + slots onto - slots."""

    def shifted(space):
        levels = np.arange(space.cutoff + 1)
        out = np.zeros(space.shape)
        for s in range(space.n_slots):
            w = space.spectrum.omegas[s // 2] * (1.0 + 1e-6 if s % 2 else 1.0)
            out = out + w * levels.reshape(fock._axis_shape(space.n_slots, s, space.cutoff + 1))
        return out

    monkeypatch.setattr(fock.FockSpace, "energies", shifted)


def symmetry_times(factor):
    """The mutation that multiplies ``fock.apply_symmetry``'s image by ``factor``."""

    def mutate(monkeypatch):
        apply_symmetry = fock.apply_symmetry
        monkeypatch.setattr(fock, "apply_symmetry",
                            lambda space, sym, state: apply_symmetry(space, sym, state) * factor)

    return mutate


#: U times a global phase: unitary still, and it still commutes with every field.
symmetry_phase_0_1 = symmetry_times(cmath.exp(0.1j))
#: U times 1 + 1e-9: no longer unitary.
symmetry_scaled_by_1e_9 = symmetry_times(1.0 + 1e-9)


def tc_scaled_by_1e_9(monkeypatch):
    """``fock.apply_tc`` times 1 + 1e-9: no longer an involution or an isometry."""
    apply_tc = fock.apply_tc
    monkeypatch.setattr(fock, "apply_tc", lambda space, state: apply_tc(space, state) * (1.0 + 1e-9))


def energies_scaled_by_1e_6(monkeypatch):
    """``FockSpace.energies`` times 1 + 1e-6: H no longer generates the
    dynamics at the mode frequencies."""
    energies = fock.FockSpace.energies
    monkeypatch.setattr(fock.FockSpace, "energies", lambda space: energies(space) * (1.0 + 1e-6))


def turned_eigenphases(monkeypatch):
    """``realfield._turn`` times e^{1e-6 i}: every induced eigenphase turns
    the same way, so the set is no longer closed under conjugation."""
    turn = realfield._turn
    monkeypatch.setattr(realfield, "_turn",
                        lambda root, q, length: turn(root, q, length) * cmath.exp(1e-6j))


def eigenphases_off_unit(monkeypatch):
    """``realfield.extend`` with every stored eigenphase scaled by 1 + 1e-6:
    still closed under conjugation, no longer of unit modulus."""
    extend = realfield.extend

    def scaled(spectrum, sym):
        ext = extend(spectrum, sym)
        ext.phases = tuple(p * (1.0 + 1e-6) for p in ext.phases)
        return ext

    monkeypatch.setattr(realfield, "extend", scaled)


def cycle_phases_as(change):
    """The mutation that replaces the phase product r of every cycle that
    ``SlotAction.cycles`` lists by ``change(r)``: the closed form and the
    truncated traces read it, the walk of 1/det(1 - XU) does not."""

    def mutate(monkeypatch):
        cycles = SlotAction.cycles.func
        monkeypatch.setattr(SlotAction, "cycles", property(
            lambda action: [(first, length, change(r)) for first, length, r in cycles(action)]))

    return mutate


cycle_phases_to_1 = cycle_phases_as(lambda r: 1.0 + 0.0j)
cycle_phases_squared = cycle_phases_as(lambda r: r * r)


def near_unit_constant_scaled(monkeypatch):
    """The 2 of 2 sqrt(x) sin(theta/2) in ``partition._log_abs2_one_minus``,
    on its branch x >= 1/2, times 1 + 1e-9, edited in its source."""
    source = inspect.getsource(partition._log_abs2_one_minus)
    assert source.count("2.0 * math.sqrt(x)") == 1
    namespace = {}
    exec(source.replace("2.0 * math.sqrt(x)", "2.000000002 * math.sqrt(x)"), vars(partition),
         namespace)
    monkeypatch.setattr(partition, "_log_abs2_one_minus", namespace["_log_abs2_one_minus"])


def conjugated_slot_0(monkeypatch):
    """``SymmetrySpec.action`` with the phase of slot 0 conjugated: the
    closed forms and the traces read it, the raw-phase references do not."""
    build = SymmetrySpec.action.func

    def conjugated(sym):
        action = build(sym)
        phases = list(action.phases)
        phases[0] = phases[0].conjugate()
        return SlotAction(action.source, tuple(phases))

    monkeypatch.setattr(SymmetrySpec, "action", property(conjugated))


def patch_slot_action(monkeypatch, change):
    """``slot_action`` as ``change(spectrum, sym, action)`` of its result, in
    every twistkit module that binds it."""
    original = spectrum_module.slot_action

    def changed(spectrum, sym):
        return change(spectrum, sym, original(spectrum, sym))

    for module in list(sys.modules.values()):
        if module.__name__.startswith("twistkit") and vars(module).get("slot_action") is original:
            monkeypatch.setattr(module, "slot_action", changed)


def identity_action_as(change):
    """The mutation that replaces the action ``slot_action`` builds for
    ``sym=None``, the identity, by ``change(action)``."""

    def mutate(monkeypatch):
        patch_slot_action(monkeypatch, lambda spectrum, sym, action: (
            action if sym is not None else change(action)))

    return mutate


#: The identity with every slot phase -1: U = (-1)^N, which fixes the vacuum,
#: commutes with H and TC, and is unitary.
negated_identity_action = identity_action_as(
    lambda action: SlotAction(action.source, tuple(-p for p in action.phases)))
#: The identity with the + and - slots of every mode swapped: the charge swap
#: of an antiunitary twist without its conjugation.
charge_swapped_identity_action = identity_action_as(
    lambda action: SlotAction(tuple(s ^ 1 for s in action.source), action.phases))


def negated_plus_slot(label):
    """The mutation that negates the + slot phase of the mode ``label`` in
    every slot action that holds it: a factor's, the cross space's or the
    whole spectrum's, whatever its index there.  The phase stays a unit
    phase, and conjugating it would change nothing where it is real."""

    def change(spectrum, sym, action):
        if label not in spectrum.labels:
            return action
        phases = list(action.phases)
        phases[2 * spectrum.labels.index(label)] *= -1
        return SlotAction(action.source, tuple(phases))

    return lambda monkeypatch: patch_slot_action(monkeypatch, change)


def trace_without_conjugate_phase(monkeypatch):
    """``verify.partition_trace`` as S_N(rho x)^2 per mode, where the trace
    has S_N(rho x) S_N(conj(rho) x)."""

    def broken(spectrum, sym, beta, cutoff):
        total = 1.0 + 0.0j
        for w, rho in zip(spectrum.omegas, sym.phases if sym else [1.0] * len(spectrum)):
            total *= verify._truncated_geometric(rho * math.exp(-beta * w), cutoff) ** 2
        return total

    monkeypatch.setattr(verify, "partition_trace", broken)


def z_below_positivity_bound(monkeypatch):
    """``partition.z_twisted`` as its positivity lower bound times 1 - 1e-6,
    for every twist and for none."""
    monkeypatch.setattr(partition, "z_twisted", lambda spectrum, sym, beta: (
        partition.positivity_lower_bound(spectrum, beta) * (1.0 - 1e-6)))


def kernel_and_spectrum_scaled_by_1e_6(monkeypatch):
    """``kernel_closed_form`` and ``grid_spectrum`` both times 1 + 1e-6: the
    lag values still match the closed-form spectrum, and only an oracle
    sees the common scale."""
    closed, spectrum = correlation.kernel_closed_form, correlation.grid_spectrum
    monkeypatch.setattr(correlation, "kernel_closed_form",
                        lambda *args: closed(*args) * (1.0 + 1e-6))
    monkeypatch.setattr(correlation, "grid_spectrum",
                        lambda *args: [v * (1.0 + 1e-6) for v in spectrum(*args)])


def zero_fock_oracle(monkeypatch):
    monkeypatch.setattr(correlation, "kernel_oracle", lambda *args: 0j)


def imaginary_lag_0(monkeypatch):
    """``kernel_closed_form`` plus 1e-9j where t == s: every lag-0 value of a
    sampled kernel leaves the real line, far inside the oracles' thresholds."""
    closed = correlation.kernel_closed_form

    def shifted(omega, theta, beta, t, s):
        return closed(omega, theta, beta, t, s) + (1e-9j if t == s else 0j)

    monkeypatch.setattr(correlation, "kernel_closed_form", shifted)


def kernel_scaled_by_1e_14(monkeypatch):
    """``kernel_closed_form`` scaled by 1 + 1e-14 everywhere."""
    closed = correlation.kernel_closed_form
    monkeypatch.setattr(correlation, "kernel_closed_form",
                        lambda *args: closed(*args) * (1.0 + 1e-14))


def first_basis_column(change):
    """The mutation that replaces the first column w0 of the first block of
    the sampled basis by ``change(w0)``."""

    def mutate(monkeypatch):
        sample = realfield.sample_extended_kernel

        def changed(ext, beta, m):
            sampled = sample(ext, beta, m)
            (indices, (w0, *rest)), *blocks = sampled.basis
            sampled.basis = ((indices, (change(w0), *rest)), *blocks)
            return sampled

        monkeypatch.setattr(realfield, "sample_extended_kernel", changed)

    return mutate


#: Scaled by 1 + 1e-9: still an eigenvector of U, no longer of unit length.
basis_column_scaled = first_basis_column(lambda w0: tuple(a * (1.0 + 1e-9) for a in w0))
#: Its first coefficient NaN: every block entry that reads it is NaN too.
basis_column_nan = first_basis_column(lambda w0: (complex(math.nan), *w0[1:]))


def blocks_edited(old, new):
    """The mutation that replaces ``old`` by ``new`` in the source of
    ``SampledKernel.blocks``, the mixing whose entries the exporter writes."""

    def mutate(monkeypatch):
        source = textwrap.dedent(inspect.getsource(correlation.SampledKernel.blocks))
        assert source.count(old) == 1
        namespace = {}
        exec(source.replace(old, new), vars(correlation), namespace)
        monkeypatch.setattr(correlation.SampledKernel, "blocks", namespace["blocks"])

    return mutate


#: The three ``blocks()`` mutants that survived ROADMAP item 29's survey: a
#: wrong CSV, and every check passed.
blocks_without_conjugate = blocks_edited("col[j].conjugate()", "col[j]")
blocks_quotient = blocks_edited("w_a * row[k] * w_b", "w_a * row[k] / w_b")
blocks_index_minus = blocks_edited("a * n + b", "a * n - b")
#: One column's lag values scaled by 1 + 1e-9 inside the mixing; the basis is right.
blocks_column_scaled = blocks_edited("w_a * row[k] * w_b",
                                     "w_a * row[k] * (1.0 + 1e-9 * (k == 0)) * w_b")


def negated_lambda_0(monkeypatch):
    """``grid_spectrum`` with its first eigenvalue, lambda_0, negated."""
    spectrum = correlation.grid_spectrum

    def negated(*args):
        first, *rest = spectrum(*args)
        return [-first, *rest]

    monkeypatch.setattr(correlation, "grid_spectrum", negated)


def grid_spectrum_nan_at_3(monkeypatch):
    """``grid_spectrum`` with its eigenvalue lambda_3 NaN."""
    spectrum = correlation.grid_spectrum

    def broken(*args):
        values = spectrum(*args)
        values[3] = math.nan
        return values

    monkeypatch.setattr(correlation, "grid_spectrum", broken)


def at_lag_1(name, value):
    """The mutation that makes ``correlation.<name>``, the closed form or the
    Fock-trace oracle, return ``value`` where |t - s| = beta/32: lags +-1
    of a 32-point grid.  Both take (beta, t, s) as their third to fifth
    arguments."""

    def mutate(monkeypatch):
        original = getattr(correlation, name)

        def replaced(*args):
            beta, t, s = args[2:5]
            return complex(value) if abs(t - s) == beta / 32 else original(*args)

        monkeypatch.setattr(correlation, name, replaced)

    return mutate


kernel_nan_at_lag_1 = at_lag_1("kernel_closed_form", math.nan)
kernel_inf_at_lag_1 = at_lag_1("kernel_closed_form", math.inf)
fock_oracle_nan_at_lag_1 = at_lag_1("kernel_oracle", math.nan)


def kernel_scaled_by(factor):
    """The mutation that scales ``kernel_closed_form`` by ``factor`` everywhere."""

    def mutate(monkeypatch):
        closed = correlation.kernel_closed_form
        monkeypatch.setattr(correlation, "kernel_closed_form",
                            lambda *args: closed(*args) * factor)

    return mutate


#: Every lag value finite, but their sum of magnitudes is not: ``math.fsum``
#: overflows.
kernel_scaled_by_4e307 = kernel_scaled_by(4e307)
#: The lag-0 energy overflows too.
kernel_scaled_by_1_7e308 = kernel_scaled_by(1.7e308)
#: One lag value with finite parts whose magnitude is beyond the float range,
#: where ``abs`` raises.
kernel_beyond_abs_at_lag_1 = at_lag_1("kernel_closed_form", complex(1.5e308, 1.5e308))


def kernel_inf_everywhere(monkeypatch):
    """``kernel_closed_form`` infinite at every point: the carrier turns
    some lag values to -inf, and the infinite lag-0 values give the lag-0
    energy an infinite threshold, which it reads as NaN."""
    monkeypatch.setattr(correlation, "kernel_closed_form", lambda *args: complex(math.inf))


def mode_b_odd_lag_defect(monkeypatch):
    """ROADMAP item 21's defect 1: ``kernel_closed_form`` plus
    0.3 sin(2 pi tau/beta) e^{i theta tau/beta} at tau = t - s > 0 where
    omega = 1.5, mode b of the bundled config.  The lag values u_d =
    v_d e^{-i theta d/m} move by a real sequence odd in d, so the real
    part of their transform does not, and mode b's grid turns indefinite."""
    closed = correlation.kernel_closed_form

    def added(omega, theta, beta, t, s):
        value = closed(omega, theta, beta, t, s)
        if omega == 1.5 and t > s:
            tau = t - s
            value += 0.3 * math.sin(2.0 * math.pi * tau / beta) * cmath.exp(1j * theta * tau / beta)
        return value

    monkeypatch.setattr(correlation, "kernel_closed_form", added)


def kernel_scaled_at(omega_0):
    """The mutation that scales ``kernel_closed_form`` by 1.01 at
    omega = omega_0 and leaves every other frequency untouched."""

    def mutate(monkeypatch):
        closed = correlation.kernel_closed_form

        def scaled(omega, theta, beta, t, s):
            return closed(omega, theta, beta, t, s) * (1.01 if omega == omega_0 else 1.0)

        monkeypatch.setattr(correlation, "kernel_closed_form", scaled)

    return mutate


#: Mode b of the bundled config; mode a is untouched.
mode_b_kernel_scaled = kernel_scaled_at(1.5)
#: Mode c of ``anti_pair_fixed.json``, the fixed mode of its pairing.
mode_c_kernel_scaled = kernel_scaled_at(1.3)


#: The check of Z against 1/det(1 - XU), as "suite: name".
DET = "partition: closed form vs 1/det(1 - XU)"
#: The check of the extended blocks against the covering-circle kernel.
BLOCKS = "kernel: exported blocks vs covering-circle kernel"
#: The Fock-trace oracle check of the kernel.
ORACLE = "kernel: closed form vs Fock-trace oracle"

#: The arguments of a scalar ``kernel --verify`` after its config.
GRID_8_VERIFY = ["--beta", "1", "--grid", "8", "--verify", "--output", "{output}"]

#: id -> (mutation, argv, the checks that fail, as "suite: name").  The rows
#: "flipped-twist-sign-realfield" and "imaginary-lag-0-realfield-suite[-anti]"
#: keep the ids CHANGES.md cites; their checks now live in the kernel suite,
#: and "imaginary-lag-0-realfield-suite" runs the realfield suite beside it
#: (--suite all) to show it no longer flags the sampled kernel.
MUST_FAIL = {
    "basis-rotation-kernel": (
        rotate_basis,
        ["kernel", "--config", ANTI2, "--extended", "--verify", "--beta", "1", "--grid", "16",
         "--output", "{output}"],
        [BLOCKS]),
    "basis-rotation-verify": (
        rotate_basis, ["verify", "--config", ANTI2, "--suite", "kernel"],
        [BLOCKS]),
    "u-for-u-star-kernel": (
        u_for_u_star,
        ["kernel", "--config", ANTI, "--extended", "--verify", "--beta", "1", "--grid", "8",
         "--output", "{output}"],
        [BLOCKS]),
    "u-for-u-star-verify": (
        u_for_u_star, ["verify", "--config", ANTI, "--suite", "realfield"],
        ["realfield: doubled-field oracle: symmetry_covariance",
         across("realfield: doubled-field oracle: symmetry_covariance")]),
    "u-for-u-star-kernel-suite": (
        u_for_u_star, ["verify", "--config", ANTI, "--suite", "kernel"],
        [BLOCKS]),
    "j-without-half-swap": (
        j_without_half_swap, ["verify", "--config", ANTI, "--suite", "realfield"],
        ["realfield: doubled-field oracle: adjoint_covariance",
         "realfield: doubled-field oracle: canonical_pair",
         "realfield: doubled-field oracle: annihilation_definition",
         across("realfield: doubled-field oracle: adjoint_covariance"),
         across("realfield: doubled-field oracle: canonical_pair"),
         across("realfield: doubled-field oracle: annihilation_definition")]),
    "flipped-twist-sign-kernel": (
        flipped_twist_sign, ["kernel", *GRID_8_VERIFY], ["kernel: closed form vs Fock-trace oracle"]),
    # a twist that keeps every slot has 1-cycles only, whose blocks and
    # covering-circle references flip alike; a 2-cycle's do not
    "flipped-twist-sign-realfield": (
        flipped_twist_sign, ["verify", "--suite", "kernel"],
        ["kernel: closed form vs Fock-trace oracle"]),
    "flipped-twist-sign-kernel-suite-anti": (
        flipped_twist_sign, ["verify", "--config", ANTI, "--suite", "kernel"],
        ["kernel: closed form vs Fock-trace oracle", BLOCKS]),
    "fock-oracle-plus-1e-7-kernel": (
        fock_oracle_plus_1e_7, ["kernel", "--config", "{minus_one}", *GRID_8_VERIFY],
        ["kernel: closed form vs Fock-trace oracle"]),
    # kernel --extended --verify runs the oracle on column M, as the suite does
    "fock-oracle-plus-1e-7-extended-kernel-anti": (
        fock_oracle_plus_1e_7,
        ["kernel", "--config", ANTI, "--extended", "--verify", "--beta", "1", "--grid", "8",
         "--output", "{output}"],
        ["kernel: closed form vs Fock-trace oracle"]),
    "fock-oracle-plus-1e-7-verify": (
        fock_oracle_plus_1e_7, ["verify", "--config", "{minus_one}", "--suite", "kernel"],
        ["kernel: closed form vs Fock-trace oracle"]),
    "fock-oracle-plus-1e-7-at-lag-1-verify": (
        fock_oracle_plus_1e_7_at_lag_1, ["verify", "--suite", "kernel"],
        ["kernel: closed form vs Fock-trace oracle"]),
    "fock-oracle-plus-1e-7-at-lag-1-kernel": (
        fock_oracle_plus_1e_7_at_lag_1,
        ["kernel", "--beta", "1", "--grid", "32", "--verify", "--output", "{output}"],
        ["kernel: closed form vs Fock-trace oracle"]),
    "fock-oracle-plus-1e-7-at-lag-1-verify-anti": (
        fock_oracle_plus_1e_7_at_lag_1, ["verify", "--config", ANTI, "--suite", "kernel"],
        ["kernel: closed form vs Fock-trace oracle"]),
    "wrong-slot-apply-field": (
        wrong_slot_apply_field, ["verify", "--suite", "all"],
        ["ccr: [A+(f), A+*(g-bar)] = <g,f> on sub-cutoff block",
         "ccr: [A-(g-bar), A-*(f)] = <g,f> on sub-cutoff block",
         across("ccr: [A+(f), A+*(g-bar)] = <g,f> on sub-cutoff block"),
         across("ccr: [A-(g-bar), A-*(f)] = <g,f> on sub-cutoff block"),
         "symmetry: U alpha+*(a) U* = rho alpha+*(a)",
         across("symmetry: U alpha+*(a) U* = rho alpha+*(a)"),
         "realfield: doubled-field oracle: adjoint_covariance",
         "realfield: doubled-field oracle: canonical_pair",
         "realfield: doubled-field oracle: ccr_doubled",
         "realfield: doubled-field oracle: symmetry_covariance",
         across("realfield: doubled-field oracle: adjoint_covariance"),
         across("realfield: doubled-field oracle: canonical_pair"),
         across("realfield: doubled-field oracle: ccr_doubled"),
         across("realfield: doubled-field oracle: symmetry_covariance")]),
    "cross-mode-creation": (
        cross_mode_creation, ["verify", "--suite", "all"],
        [across("ccr: [A+(f), A+*(g-bar)] = <g,f> on sub-cutoff block"),
         across("ccr: [A-(g-bar), A-*(f)] = <g,f> on sub-cutoff block"),
         across("ccr: Heisenberg dynamics of A+* on sub-cutoff block"),
         across("symmetry: U alpha+*(a) U* = rho alpha+*(a)"),
         across("symmetry: U alpha+*(b) U* = rho alpha+*(b)"),
         across("realfield: doubled-field oracle: adjoint_covariance"),
         across("realfield: doubled-field oracle: equal_time_commutator"),
         across("realfield: doubled-field oracle: canonical_pair"),
         across("realfield: doubled-field oracle: ccr_doubled"),
         across("realfield: doubled-field oracle: symmetry_covariance")]),
    # ROADMAP item 12: the one ccr line that commutes two creators
    "jordan-wigner-signs-ccr": (
        jordan_wigner_signs, ["verify", "--suite", "ccr"],
        ["ccr: [A+*(g-bar), A-*(f)] = 0 on full space",
         across("ccr: [A+(f), A+*(g-bar)] = <g,f> on sub-cutoff block"),
         across("ccr: [A-(g-bar), A-*(f)] = <g,f> on sub-cutoff block"),
         across("ccr: [A+*(g-bar), A-*(f)] = 0 on full space")]),
    # ROADMAP item 12: the equal-time commutator on each factor
    "conjugated-field-annihilation": (
        conjugated_field_annihilation, ["verify", "--config", ANTI, "--suite", "realfield"],
        ["realfield: doubled-field oracle: adjoint_covariance",
         "realfield: doubled-field oracle: equal_time_commutator",
         "realfield: doubled-field oracle: canonical_pair",
         "realfield: doubled-field oracle: symmetry_covariance",
         across("realfield: doubled-field oracle: adjoint_covariance"),
         across("realfield: doubled-field oracle: equal_time_commutator"),
         across("realfield: doubled-field oracle: canonical_pair"),
         across("realfield: doubled-field oracle: symmetry_covariance")]),
    "phases-at-mirrored-mode": (
        phases_at_mirrored_mode, ["verify", "--suite", "all"],
        [across("symmetry: U alpha+*(a) U* = rho alpha+*(a)"),
         across("symmetry: U alpha+*(b) U* = rho alpha+*(b)")]),
    # +1e-9j at lag 0 is far above the bound the oracle's cutoff certifies,
    # the oracle check's threshold, as well as the Hermitian check's 1e-10
    "imaginary-lag-0-kernel-suite": (
        imaginary_lag_0, ["verify", "--suite", "kernel"],
        [ORACLE, "kernel: sampled kernel Hermitian"]),
    "imaginary-lag-0-realfield-suite": (
        imaginary_lag_0, ["verify", "--suite", "all"],
        [ORACLE, "kernel: sampled kernel Hermitian"]),
    "imaginary-lag-0-realfield-suite-anti": (
        imaginary_lag_0, ["verify", "--config", ANTI, "--suite", "kernel"],
        [ORACLE, "kernel: sampled kernel Hermitian"]),
    "imaginary-lag-0-kernel": (
        imaginary_lag_0, ["kernel", *GRID_8_VERIFY], [ORACLE, "kernel: sampled kernel Hermitian"]),
    "imaginary-lag-0-extended-kernel": (
        imaginary_lag_0,
        ["kernel", "--config", ANTI, "--extended", "--verify", "--beta", "1", "--grid", "8",
         "--output", "{output}"],
        [ORACLE, "kernel: sampled kernel Hermitian"]),
    "mode-b-kernel-scaled-kernel": (
        mode_b_kernel_scaled, ["kernel", "--mode", "b", *GRID_8_VERIFY],
        ["kernel: closed form vs Fock-trace oracle", "kernel: sampled spectrum vs closed form",
         "kernel: lag-0 energy vs partition function"]),
    "mode-b-kernel-scaled-all": (
        mode_b_kernel_scaled, ["verify", "--suite", "all"],
        ["kernel: sampled spectrum vs closed form", "kernel: lag-0 energy vs partition function"]),
    "mode-b-kernel-scaled-kernel-suite": (
        mode_b_kernel_scaled, ["verify", "--suite", "kernel"],
        ["kernel: sampled spectrum vs closed form", "kernel: lag-0 energy vs partition function"]),
    "mode-c-kernel-scaled-kernel-suite": (
        mode_c_kernel_scaled, ["verify", "--config", ANTI, "--suite", "kernel"],
        ["kernel: sampled spectrum vs closed form", "kernel: lag-0 energy vs partition function"]),
    # the tightest kernel check, on both configs
    "kernel-scaled-by-1e-14-verify-anti": (
        kernel_scaled_by_1e_14, ["verify", "--config", ANTI, "--suite", "kernel"],
        ["kernel: lag-0 energy vs partition function"]),
    "kernel-scaled-by-1e-14-verify": (
        kernel_scaled_by_1e_14, ["verify", "--suite", "kernel"], ["kernel: lag-0 energy vs partition function"]),
    # the energy identity reads Z, not the closed-form spectrum, so it sees
    # a common scale of the lag values and the spectrum, as the oracle on
    # column M does
    "kernel-and-spectrum-scaled-extended": (
        kernel_and_spectrum_scaled_by_1e_6,
        ["kernel", "--config", ANTI, "--extended", "--verify", "--beta", "1", "--grid", "16",
         "--output", "{output}"],
        ["kernel: closed form vs Fock-trace oracle", "kernel: lag-0 energy vs partition function"]),
    "basis-column-scaled-verify": (
        basis_column_scaled, ["verify", "--config", ANTI2, "--suite", "kernel"],
        [BLOCKS]),
    # ROADMAP item 24's family: a NaN basis coefficient fails the block check
    "basis-column-nan-verify": (
        basis_column_nan, ["verify", "--config", ANTI2, "--suite", "kernel"], [BLOCKS]),
    "basis-column-scaled-kernel": (
        basis_column_scaled,
        ["kernel", "--config", ANTI, "--extended", "--verify", "--beta", "1", "--grid", "8",
         "--output", "{output}"],
        [BLOCKS]),
    "negated-lambda-0-kernel": (
        negated_lambda_0, ["kernel", *GRID_8_VERIFY],
        ["kernel: sampled spectrum vs closed form", "kernel: sampled kernel positive definite"]),
    "negated-lambda-0-kernel-suite": (
        negated_lambda_0, ["verify", "--suite", "kernel"],
        ["kernel: sampled spectrum vs closed form", "kernel: sampled kernel positive definite"]),
    "mode-b-odd-lag-defect-kernel-suite": (
        mode_b_odd_lag_defect, ["verify", "--suite", "kernel"],
        ["kernel: sampled kernel twisted-circulant"]),
    "mode-b-odd-lag-defect-extended-kernel": (
        mode_b_odd_lag_defect,
        ["kernel", "--extended", "--verify", "--beta", "1", "--grid", "16", "--output", "{output}"],
        ["kernel: sampled kernel twisted-circulant"]),
    "tc-without-conjugation": (
        tc_without_conjugation, ["verify", "--suite", "tc"],
        ["tc: TC is antiunitary on random vectors",
         "tc: TC A+*(f-bar) TC = A-*(f) on sub-cutoff block",
         "tc: TC phi(t, f-bar) TC = phibar(t, f) on sub-cutoff block",
         "tc: [U_S, TC] = 0",
         across("tc: TC is antiunitary on random vectors"),
         across("tc: TC A+*(f-bar) TC = A-*(f) on sub-cutoff block"),
         across("tc: TC phi(t, f-bar) TC = phibar(t, f) on sub-cutoff block"),
         across("tc: [U_S, TC] = 0")]),
    # the bundled config's unitary twist keeps every slot, so it passes
    "minus-slot-energies-shifted-anti": (
        minus_slot_energies_shifted, ["verify", "--config", ANTI, "--suite", "symmetry"],
        ["symmetry: [U, H] = 0", across("symmetry: [U, H] = 0")]),
    "symmetry-phase-0.1": (
        symmetry_phase_0_1, ["verify", "--suite", "symmetry"],
        ["symmetry: U fixes the vacuum", across("symmetry: U fixes the vacuum")]),
    "symmetry-scaled-by-1e-9": (
        symmetry_scaled_by_1e_9, ["verify", "--suite", "symmetry"],
        ["symmetry: U is unitary", "symmetry: U fixes the vacuum",
         across("symmetry: U is unitary"), across("symmetry: U fixes the vacuum")]),
    "tc-scaled-by-1e-9": (
        tc_scaled_by_1e_9, ["verify", "--suite", "tc"],
        ["tc: TC squares to the identity", "tc: TC is antiunitary on random vectors",
         across("tc: TC squares to the identity"),
         across("tc: TC is antiunitary on random vectors")]),
    "energies-scaled-by-1e-6": (
        energies_scaled_by_1e_6, ["verify", "--suite", "ccr"],
        ["ccr: Heisenberg dynamics of A+* on sub-cutoff block",
         across("ccr: Heisenberg dynamics of A+* on sub-cutoff block")]),
    "turned-eigenphases": (
        turned_eigenphases, ["verify", "--config", ANTI, "--suite", "realfield"],
        ["realfield: induced eigenphases closed under conjugation"]),
    # the slot table is no longer closed under conjugation: 1/det(1 - XU)
    # turns complex, which the closed form cannot show
    "conjugated-slot-0-partition-anti": (
        conjugated_slot_0, ["partition", "--config", ANTI, "--beta", "1"],
        ["partition: antiunitary square-root identity vs truncated trace", DET]),
    "conjugated-slot-0-partition": (
        conjugated_slot_0, ["partition", "--beta", "1"],
        ["partition: unitary product formula vs truncated trace", DET]),
    "trace-without-conjugate-phase-partition": (
        trace_without_conjugate_phase, ["partition", "--beta", "1"],
        ["partition: unitary product formula vs truncated trace"]),
    "trace-without-conjugate-phase-verify": (
        trace_without_conjugate_phase, ["verify", "--suite", "partition"],
        ["partition: unitary product formula vs truncated trace"]),
    "z-below-positivity-bound-partition-anti": (
        z_below_positivity_bound, ["partition", "--config", ANTI, "--beta", "1"],
        ["partition: untwisted product formula vs truncated trace",
         "partition: antiunitary square-root identity vs truncated trace",
         "partition: twist positivity lower bound", DET]),
    "z-below-positivity-bound-verify-anti": (
        z_below_positivity_bound, ["verify", "--config", ANTI, "--suite", "partition"],
        ["partition: untwisted product formula vs truncated trace",
         "partition: antiunitary square-root identity vs truncated trace",
         "partition: twist positivity lower bound", DET]),
    # ROADMAP items 11 and 22: the walk of 1/det(1 - XU) reads the slot
    # table, so it sees a relative error of Z far below the trace's tail
    # bound, and a wrong cycle product that the closed form and the traces
    # share
    **{f"z-scaled-{tag}": (z_scaled_by_5e_11, argv, failing) for tag, argv, failing in (
        ("partition", ["partition", "--beta", "0.5", "--beta", "1"], [DET, DET]),
        ("verify", ["verify", "--config", ANTI, "--suite", "partition"], [DET]))},
    **{f"cycle-phases-{change}-{tag}{config_tag}": (mutate, [*argv, *config], [DET])
       for change, mutate in (("to-1", cycle_phases_to_1), ("squared", cycle_phases_squared))
       for tag, argv in (("partition", ["partition", "--beta", "1"]),
                         ("verify", ["verify", "--suite", "partition"]))
       for config_tag, config in (("", []), ("-anti", ["--config", ANTI]))},
    # the trace's threshold, tail + 1e-10 = 2.6e-9 at beta = 0.5, misses it
    "near-unit-constant-scaled-partition": (
        near_unit_constant_scaled, ["partition", "--beta", "0.5"], [DET]),
    # the untwisted trace reads the frequencies alone, not the identity
    "negated-identity-action-partition": (
        negated_identity_action, ["partition", "--beta", "1"],
        ["partition: untwisted product formula vs truncated trace"]),
    # ROADMAP item 24: a NaN or an infinity at one point fails its checks
    # through the NaN-aware reducer, and the suite exits 1, not 4
    **{f"grid-spectrum-nan-at-3-verify{tag}": (
        grid_spectrum_nan_at_3, ["verify", *config, "--suite", "kernel"],
        ["kernel: sampled spectrum vs closed form", "kernel: sampled kernel positive definite"])
       for tag, config in (("", []), ("-anti", ["--config", ANTI]))},
    "grid-spectrum-nan-at-3-kernel": (
        grid_spectrum_nan_at_3,
        ["kernel", "--beta", "1", "--grid", "32", "--verify", "--output", "{output}"],
        ["kernel: sampled spectrum vs closed form", "kernel: sampled kernel positive definite"]),
    "grid-spectrum-nan-at-3-extended-kernel-anti": (
        grid_spectrum_nan_at_3,
        ["kernel", "--config", ANTI, "--extended", "--beta", "1", "--grid", "32", "--verify",
         "--output", "{output}"],
        ["kernel: sampled spectrum vs closed form", "kernel: sampled kernel positive definite"]),
    **{f"kernel-{kind}-at-lag-1-verify{tag}": (
        mutate, ["verify", *config, "--suite", "kernel"],
        [ORACLE, BLOCKS, "kernel: sampled kernel twisted-circulant",
         "kernel: sampled spectrum vs closed form"])
       for kind, mutate in (("nan", kernel_nan_at_lag_1), ("inf", kernel_inf_at_lag_1))
       for tag, config in (("", []), ("-anti", ["--config", ANTI]))},
    "kernel-inf-everywhere-verify": (
        kernel_inf_everywhere, ["verify", "--suite", "kernel"],
        [ORACLE, BLOCKS, "kernel: sampled kernel twisted-circulant",
         "kernel: sampled spectrum vs closed form", "kernel: lag-0 energy vs partition function"]),
    # ROADMAP item 24: finite lag values whose sum or magnitude overflows
    # fail their checks too, and no OverflowError aborts the run
    **{f"kernel-scaled-by-{scale}-{tag}": (mutate, argv, [f"kernel: {c}" for c in failing])
       for scale, mutate, tag, argv, failing in (
           ("4e307", kernel_scaled_by_4e307, "verify", ["verify", "--suite", "kernel"],
            ["closed form vs Fock-trace oracle", "sampled spectrum vs closed form",
             "lag-0 energy vs partition function"]),
           ("4e307", kernel_scaled_by_4e307, "verify-anti",
            ["verify", "--config", ANTI, "--suite", "kernel"],
            ["closed form vs Fock-trace oracle", "sampled spectrum vs closed form",
             "lag-0 energy vs partition function"]),
           ("4e307", kernel_scaled_by_4e307, "kernel",
            ["kernel", "--beta", "1", "--grid", "32", "--verify", "--output", "{output}"],
            ["closed form vs Fock-trace oracle", "sampled spectrum vs closed form",
             "lag-0 energy vs partition function"]),
           ("4e307", kernel_scaled_by_4e307, "extended-kernel-anti",
            ["kernel", "--config", ANTI, "--extended", "--beta", "1", "--grid", "32", "--verify",
             "--output", "{output}"],
            ["closed form vs Fock-trace oracle", "sampled spectrum vs closed form",
             "lag-0 energy vs partition function"]),
           ("1.7e308", kernel_scaled_by_1_7e308, "verify", ["verify", "--suite", "kernel"],
            ["closed form vs Fock-trace oracle", "sampled spectrum vs closed form",
             "lag-0 energy vs partition function"]),
           ("1.7e308", kernel_scaled_by_1_7e308, "verify-anti",
            ["verify", "--config", ANTI, "--suite", "kernel"],
            ["closed form vs Fock-trace oracle", "exported blocks vs covering-circle kernel",
             "sampled kernel twisted-circulant",
             "sampled spectrum vs closed form", "lag-0 energy vs partition function"]))},
    **{f"kernel-beyond-abs-at-lag-1-{tag}": (
        kernel_beyond_abs_at_lag_1, argv, [f"kernel: {c}" for c in failing])
       for tag, argv, failing in (
           ("verify", ["verify", "--suite", "kernel"],
            ["closed form vs Fock-trace oracle", "exported blocks vs covering-circle kernel",
             "sampled kernel twisted-circulant",
             "sampled spectrum vs closed form"]),
           ("verify-anti", ["verify", "--config", ANTI, "--suite", "kernel"],
            ["closed form vs Fock-trace oracle", "exported blocks vs covering-circle kernel",
             "sampled kernel twisted-circulant",
             "sampled spectrum vs closed form"]),
           ("kernel", ["kernel", "--beta", "1", "--grid", "32", "--verify", "--output", "{output}"],
            ["closed form vs Fock-trace oracle", "sampled kernel twisted-circulant",
             "sampled spectrum vs closed form"]),
           ("extended-kernel-anti",
            ["kernel", "--config", ANTI, "--extended", "--beta", "1", "--grid", "32", "--verify",
             "--output", "{output}"],
            ["closed form vs Fock-trace oracle", "exported blocks vs covering-circle kernel",
             "sampled kernel twisted-circulant",
             "sampled spectrum vs closed form"]))},
    **{f"fock-oracle-nan-at-lag-1-{tag}": (
        fock_oracle_nan_at_lag_1, argv, ["kernel: closed form vs Fock-trace oracle"])
       for tag, argv in (
           ("verify", ["verify", "--suite", "kernel"]),
           ("verify-anti", ["verify", "--config", ANTI, "--suite", "kernel"]),
           ("kernel", ["kernel", "--beta", "1", "--grid", "32", "--verify", "--output", "{output}"]))},
    # the identity of a config without a symmetry is built by the one normal
    # form, and the symmetry suite checks it against the raw rule rho = 1;
    # the untwisted trace reads the frequencies alone
    **{f"{tag}-identity-action": (
        mutate, ["verify", "--config", "{no_symmetry}", "--suite", "all"],
        ["symmetry: U alpha+*(a) U* = rho alpha+*(a)",
         "symmetry: U alpha+*(b) U* = rho alpha+*(b)",
         across("symmetry: U alpha+*(a) U* = rho alpha+*(a)"),
         across("symmetry: U alpha+*(b) U* = rho alpha+*(b)"),
         "partition: untwisted product formula vs truncated trace"])
       for tag, mutate in (("negated", negated_identity_action),
                           ("charge-swapped", charge_swapped_identity_action))},
    # a non-unit eigenphase gives the oracle no unitary: a NaN deviation, not exit 2
    **{f"eigenphases-off-unit-kernel{tag}": (
        eigenphases_off_unit, ["verify", *config, "--suite", "kernel"],
        ["kernel: closed form vs Fock-trace oracle"])
       for tag, config in (("", []), ("-anti", ["--config", ANTI]))},
    # ROADMAP item 12: the per-mode symmetry lines that no other row reaches
    "negated-plus-slot-b": (
        negated_plus_slot("b"), ["verify", "--suite", "symmetry"],
        ["symmetry: U alpha+*(b) U* = rho alpha+*(b)",
         across("symmetry: U alpha+*(b) U* = rho alpha+*(b)")]),
    "negated-plus-slot-c-anti": (
        negated_plus_slot("c"), ["verify", "--config", ANTI, "--suite", "symmetry"],
        ["symmetry: U alpha+*(c) U* = eta alpha-*(pi(c))",
         across("symmetry: U alpha+*(c) U* = eta alpha-*(pi(c))")]),
    "negated-plus-slot-d-two-pairs": (
        negated_plus_slot("d"), ["verify", "--config", ANTI2, "--suite", "symmetry"],
        ["symmetry: U alpha+*(d) U* = eta alpha-*(pi(d))",
         across("symmetry: U alpha+*(d) U* = eta alpha-*(pi(d))")]),
    "negated-plus-slot-e-two-pairs": (
        negated_plus_slot("e"), ["verify", "--config", ANTI2, "--suite", "symmetry"],
        ["symmetry: U alpha+*(e) U* = eta alpha-*(pi(e))"]),
    "unpaired-normal-form": (
        unpaired_normal_form, ["verify", "--config", ANTI, "--suite", "symmetry"],
        ["symmetry: U alpha+*(a) U* = eta alpha-*(pi(a))",
         "symmetry: U alpha+*(b) U* = eta alpha-*(pi(b))",
         across("symmetry: U alpha+*(a) U* = eta alpha-*(pi(a))"),
         across("symmetry: U alpha+*(b) U* = eta alpha-*(pi(b))")]),
    # ROADMAP item 1: the blocks the exporter writes, against the kernel on
    # the covering circle; the survey's three blocks() survivors and a
    # 1e-9 scale of one column inside the mixing
    **{f"blocks-{tag}-{route}": (mutate, argv, [BLOCKS])
       for tag, mutate in (("without-conjugate", blocks_without_conjugate),
                           ("quotient", blocks_quotient), ("index-minus", blocks_index_minus),
                           ("column-scaled", blocks_column_scaled))
       for route, argv in (
           ("extended-kernel-anti",
            ["kernel", "--config", ANTI, "--extended", "--verify", "--beta", "1", "--grid", "8",
             "--output", "{output}"]),
           ("verify-two-pairs", ["verify", "--config", ANTI2, "--suite", "kernel"]))},
    # ROADMAP item 5: the oracle's threshold is the bound its cutoff
    # certifies, 1.5e-314 at omega = 1e300, so a zero oracle no longer
    # passes where every lag value is about 5e-301
    "zero-fock-oracle-at-huge-omega": (
        zero_fock_oracle, ["kernel", "--config", "{omega_1e300}", *GRID_8_VERIFY],
        ["kernel: closed form vs Fock-trace oracle"]),
}

#: id -> (mutation, argv, the exit code today, the ROADMAP item that closes the gap)
UNDETECTED = {
    # the tc identity holds at either sign, and no other check takes tau imaginary
    "imaginary-time-sign-of-field": (
        conjugated_imaginary_time, ["verify", "--suite", "all"], 0, "item 14"),
    "imaginary-time-sign-of-field-anti": (
        conjugated_imaginary_time, ["verify", "--config", ANTI2, "--suite", "all"], 0, "item 14"),
    "creation-weight-sign-of-field": (
        flipped_creation_weight, ["verify", "--suite", "all"], 0, "item 14"),
}


def run(argv, tmp_path):
    """(exit code, the "suite: name" of every [FAIL] line) of one command."""
    minus_one = tmp_path / "minus_one.json"
    minus_one.write_text(json.dumps({
        "modes": [{"label": "k0", "omega": math.log(2.0)}],
        "symmetry": {"kind": "unitary", "phases": [{"re": -1.0, "im": 0.0}]},
    }))
    no_symmetry = tmp_path / "no_symmetry.json"
    no_symmetry.write_text(json.dumps({
        "modes": [{"label": "a", "omega": 0.7}, {"label": "b", "omega": 1.3}]}))
    omega_1e300 = tmp_path / "omega_1e300.json"
    omega_1e300.write_text(json.dumps({"modes": [{"label": "a", "omega": 1e300}]}))
    paths = {"{output}": str(tmp_path / "k.csv"), "{minus_one}": str(minus_one),
             "{no_symmetry}": str(no_symmetry), "{omega_1e300}": str(omega_1e300)}
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([paths.get(a, a) for a in argv])
    failed = re.findall(r"^\[FAIL\] (.+?) \(deviation", out.getvalue() + err.getvalue(), re.M)
    return code, failed


@pytest.mark.parametrize("mutate, argv, failing", MUST_FAIL.values(), ids=MUST_FAIL.keys())
def test_mutation_fails_its_checks(mutate, argv, failing, tmp_path, monkeypatch):
    assert run(argv, tmp_path) == (0, [])
    mutate(monkeypatch)
    assert run(argv, tmp_path) == (1, failing)


@pytest.mark.parametrize("mutate, argv, code, item", UNDETECTED.values(), ids=UNDETECTED.keys())
def test_known_gap_is_still_undetected(mutate, argv, code, item, tmp_path, monkeypatch):
    mutate(monkeypatch)
    assert run(argv, tmp_path) == (code, []), f"closed by ROADMAP {item}? move the row to MUST_FAIL"


#: id -> (mutation, argv) of a command that correct and mutated code alike
#: refuse with exit 3 before the mutated route runs: at beta = 1e-300 every
#: lag value is about 5e-301, far below the oracle check's absolute slack,
#: and the oracle's cutoff would pass MAX_TRACE_STEPS, so the check refuses
#: where it once passed a zero oracle
REFUSED = {
    "zero-fock-oracle-at-tiny-beta": (
        zero_fock_oracle,
        ["kernel", "--beta", "1e-300", "--grid", "3", "--verify", "--output", "{output}"]),
}


@pytest.mark.parametrize("mutate, argv", REFUSED.values(), ids=REFUSED.keys())
def test_refusal_holds_under_the_mutation(mutate, argv, tmp_path, monkeypatch):
    assert run(argv, tmp_path) == (3, [])
    mutate(monkeypatch)
    assert run(argv, tmp_path) == (3, [])
    assert not (tmp_path / "k.csv").exists()


def test_nan_basis_column_fails_the_basis_checks_and_writes_no_file(tmp_path, monkeypatch):
    # the exporter refuses the NaN blocks (exit 5) only after every check
    # has run and printed its failure: the block check reads the NaN entries
    argv = ["kernel", "--config", ANTI, "--extended", "--verify", "--beta", "1", "--grid", "8",
            "--output", "{output}"]
    basis_column_nan(monkeypatch)
    assert run(argv, tmp_path) == (5, [BLOCKS])
    assert not (tmp_path / "k.csv").exists()
