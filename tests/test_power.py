"""The power matrix: named mutations against the checks that must catch them.

Each row breaks one thing with ``monkeypatch`` (a closed form, an oracle,
a basis, a sign or a phase), runs one command through ``cli.main`` and
reads which checks print ``[FAIL]``.  A MUST_FAIL row names exactly the
checks that catch its mutation.  An UNDETECTED row is a known gap: it
asserts the exit code the command gives today, with no check failing, and
names the ROADMAP item that closes it.  The change that closes a gap moves
its row to MUST_FAIL.

The rows reuse the golden configs; "{output}" in an argv stands for a CSV
path and "{minus_one}" for a one-mode config at omega = ln 2, rho = -1.
"""

import contextlib
import io
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from twistkit import cli, correlation, fock, fock_suites, partition, realfield
from twistkit.spectrum import SymmetrySpec

GOLDEN = Path(__file__).parent / "golden"
ANTI = str(GOLDEN / "anti_pair_fixed.json")
ANTI2 = str(GOLDEN / "anti_two_pairs_fixed.json")


def across(check):
    """A check's name in its run on the union of the first two factors."""
    return check + fock_suites.CROSS_FACTOR_SUFFIX


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
    monkeypatch.setattr(fock_suites, "_natural_conjugation", np.conj)


def flipped_twist_sign(monkeypatch):
    """The kernel twist angle of rho as +arg(rho) instead of -arg(rho)."""
    monkeypatch.setattr(correlation, "KERNEL_TWIST_SIGN", -correlation.KERNEL_TWIST_SIGN)


def fourier_oracle_plus_1e_7(monkeypatch):
    fourier = correlation.kernel_fourier

    def shifted(*args):
        values, tail = fourier(*args)
        return [v + 1e-7 for v in values], tail

    monkeypatch.setattr(correlation, "kernel_fourier", shifted)


def z_scaled_by_5e_11(monkeypatch):
    z_twisted = partition.z_twisted
    monkeypatch.setattr(partition, "z_twisted", lambda *args: z_twisted(*args) * (1.0 + 5e-11))


def fock_oracle_plus_1e_7(monkeypatch):
    oracle = correlation.kernel_oracle
    monkeypatch.setattr(correlation, "kernel_oracle", lambda *args: oracle(*args) + 1e-7)


def wrong_slot_apply_field(monkeypatch):
    """Each creation coefficient of a field table moved to the other
    charge's slot of its mode: alpha+* and alpha-* trade places."""
    apply_field = fock.apply_field

    def swapped(space, field, state, subcutoff=False):
        field = field.copy()
        field[0] = field[0, [s ^ 1 for s in range(field.shape[1])]]
        return apply_field(space, field, state, subcutoff)

    monkeypatch.setattr(fock, "apply_field", swapped)


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


def flipped_creation_weight(monkeypatch):
    """Only the creation row of ``fock.field`` at the conjugate tau."""
    field = fock.field

    def flipped(space, q, tau):
        table = field(space, q, tau)
        table[0] = field(space, q, tau.conjugate())[0]
        return table

    monkeypatch.setattr(fock, "field", flipped)


def zero_fock_oracle(monkeypatch):
    monkeypatch.setattr(correlation, "kernel_oracle", lambda *args: 0j)


#: The arguments of a scalar ``kernel --verify`` after its config.
GRID_8_VERIFY = ["--beta", "1", "--grid", "8", "--verify", "--output", "{output}"]

#: id -> (mutation, argv, the checks that fail, as "suite: name")
MUST_FAIL = {
    "basis-rotation-kernel": (
        rotate_basis,
        ["kernel", "--config", ANTI2, "--extended", "--verify", "--beta", "1", "--grid", "16",
         "--output", "{output}"],
        ["realfield: U W = W Lambda"]),
    "basis-rotation-verify": (
        rotate_basis, ["verify", "--config", ANTI2, "--suite", "realfield"],
        ["realfield: U W = W Lambda"]),
    "u-for-u-star-kernel": (
        u_for_u_star,
        ["kernel", "--config", ANTI, "--extended", "--verify", "--beta", "1", "--grid", "8",
         "--output", "{output}"],
        ["realfield: U W = W Lambda"]),
    "u-for-u-star-verify": (
        u_for_u_star, ["verify", "--config", ANTI, "--suite", "realfield"],
        ["realfield: U W = W Lambda", "realfield: doubled-field oracle: symmetry_covariance",
         across("realfield: doubled-field oracle: symmetry_covariance")]),
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
    "flipped-twist-sign-realfield": (
        flipped_twist_sign, ["verify", "--suite", "realfield"], ["realfield: U W = W Lambda"]),
    "fock-oracle-plus-1e-7-kernel": (
        fock_oracle_plus_1e_7, ["kernel", "--config", "{minus_one}", *GRID_8_VERIFY],
        ["kernel: closed form vs Fock-trace oracle"]),
    "fock-oracle-plus-1e-7-verify": (
        fock_oracle_plus_1e_7, ["verify", "--config", "{minus_one}", "--suite", "kernel"],
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
    "phases-at-mirrored-mode": (
        phases_at_mirrored_mode, ["verify", "--suite", "all"],
        [across("symmetry: U alpha+*(a) U* = rho alpha+*(a)"),
         across("symmetry: U alpha+*(b) U* = rho alpha+*(b)")]),
    "unpaired-normal-form": (
        unpaired_normal_form, ["verify", "--config", ANTI, "--suite", "symmetry"],
        ["symmetry: U alpha+*(a) U* = eta alpha-*(pi(a))",
         "symmetry: U alpha+*(b) U* = eta alpha-*(pi(b))",
         across("symmetry: U alpha+*(a) U* = eta alpha-*(pi(a))"),
         across("symmetry: U alpha+*(b) U* = eta alpha-*(pi(b))")]),
}

#: id -> (mutation, argv, the exit code today, the ROADMAP item that closes the gap)
UNDETECTED = {
    "fourier-oracle-plus-1e-7": (
        fourier_oracle_plus_1e_7, ["kernel", "--config", "{minus_one}", *GRID_8_VERIFY],
        0, "item 3"),
    "z-scaled-partition": (
        z_scaled_by_5e_11, ["partition", "--beta", "0.5", "--beta", "1"], 0, "item 11"),
    "z-scaled-verify": (
        z_scaled_by_5e_11, ["verify", "--config", ANTI, "--suite", "partition"], 0, "item 11"),
    "zero-fock-oracle-at-tiny-beta": (
        zero_fock_oracle,
        ["kernel", "--beta", "1e-300", "--grid", "3", "--verify", "--output", "{output}"],
        0, "item 5"),
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
    paths = {"{output}": str(tmp_path / "k.csv"), "{minus_one}": str(minus_one)}
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
