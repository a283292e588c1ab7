"""Acceptance gate: one test per criterion, one pass/fail line each.

The lines are printed outside pytest's capture so they appear in the run
log regardless of outcome.
"""

import cmath
import math
import time

import numpy as np
import pytest

import dense
from twistkit import correlation as co, partition, realfield as rf, verify
from twistkit.spectrum import SymmetrySpec, validate_spectrum

LN2 = math.log(2.0)


def announce(capsys, number, label, ok, detail=""):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        print(f"[{status}] acceptance {number}: {label}{suffix}")


def cutoff_for_tail(spectrum, beta, target=1e-10):
    n = 2
    while verify.truncation_tail_bound(spectrum, beta, n) >= target:
        n += 5
    return n


def random_unit(rng):
    return cmath.exp(2j * math.pi * float(rng.uniform()))


def test_criterion_1_product_formula_equivalence(capsys):
    rng = np.random.default_rng(101)
    start = time.monotonic()
    worst = 0.0
    configs = [1] * 200 + [2] * 50
    for n_modes in configs:
        omegas = rng.uniform(0.5, 3.0, size=n_modes)
        spec = validate_spectrum([(f"m{i}", w) for i, w in enumerate(omegas)])
        sym = SymmetrySpec(
            kind="unitary", phases=tuple(random_unit(rng) for _ in range(n_modes))
        )
        for beta in (0.5, 1.0, 2.0):
            n = cutoff_for_tail(spec, beta)
            tail = verify.truncation_tail_bound(spec, beta, n)
            z = partition.z_twisted(spec, sym, beta)
            oracle = verify.partition_trace(spec, sym, beta, n)
            rel = abs(z - oracle) / z
            worst = max(worst, rel - tail)
    elapsed = time.monotonic() - start
    ok = worst <= 1e-10 and elapsed < 30.0
    announce(
        capsys, 1, "product-formula equivalence", ok,
        f"worst excess {worst:.2e}, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_2_twist_positivity(capsys):
    rng = np.random.default_rng(102)
    failures = 0
    for _ in range(1000):
        n_modes = int(rng.integers(1, 5))
        spec = validate_spectrum(
            [(f"m{i}", w) for i, w in enumerate(rng.uniform(0.3, 4.0, size=n_modes))]
        )
        sym = SymmetrySpec(
            kind="unitary", phases=tuple(random_unit(rng) for _ in range(n_modes))
        )
        beta = float(rng.uniform(0.2, 3.0))
        z = partition.z_twisted(spec, sym, beta)
        if not (z > 0.0 and z >= partition.positivity_lower_bound(spec, beta) * (1 - 1e-12)):
            failures += 1
    announce(capsys, 2, "twist positivity on 1000 random specs", failures == 0,
             f"{failures} failures")
    assert failures == 0


def test_criterion_3_antiunitary_identity(capsys):
    worst = 0.0
    # worked example: single-mode conjugation, value 4/3
    spec1 = validate_spectrum([("k0", LN2)])
    sym1 = SymmetrySpec(
        kind="antiunitary", phases=(1.0 + 0j,), pairing=(0,)
    )
    z1 = partition.z_twisted(spec1, sym1, 1.0)
    oracle1 = verify.partition_trace(spec1, sym1, 1.0, 40)
    worst = max(worst, abs(z1 - 4.0 / 3.0), abs(z1 - oracle1) / z1)
    # worked example: two-mode swap, value 16/9
    spec2 = validate_spectrum([("a", LN2), ("b", LN2)])
    sym2 = SymmetrySpec(
        kind="antiunitary",
        phases=(1.0 + 0j, 1.0 + 0j),
        pairing=(1, 0),
    )
    z2 = partition.z_twisted(spec2, sym2, 1.0)
    n2 = 30
    oracle2 = verify.partition_trace(spec2, sym2, 1.0, n2)
    tail2 = verify.truncation_tail_bound(spec2, 1.0, n2)
    worst = max(worst, abs(z2 - 16.0 / 9.0), abs(z2 - oracle2) / z2 - tail2)
    # 50 random 2-mode pairings (both swap and fixed-point shapes)
    rng = np.random.default_rng(103)
    excess = 0.0
    for i in range(50):
        if i % 2 == 0:
            w = float(rng.uniform(0.5, 3.0))
            spec = validate_spectrum([("a", w), ("b", w)])
            pairing = (1, 0)
        else:
            spec = validate_spectrum(
                [("a", float(rng.uniform(0.5, 3.0))), ("b", float(rng.uniform(0.5, 3.0)))]
            )
            pairing = (0, 1)
        sym = SymmetrySpec(
            kind="antiunitary",
            phases=(random_unit(rng), random_unit(rng)),
            pairing=pairing,
        )
        n = 30
        z = partition.z_twisted(spec, sym, 1.0)
        oracle = verify.partition_trace(spec, sym, 1.0, n)
        tail = verify.truncation_tail_bound(spec, 1.0, n)
        excess = max(excess, abs(z - oracle) / abs(z) - tail)
    ok = worst <= 1e-8 and excess <= 1e-8
    announce(capsys, 3, "antiunitary square-root identity", ok,
             f"worked {worst:.2e}, random excess {excess:.2e}")
    assert ok


def test_criterion_4_kernel_three_way(capsys):
    rng = np.random.default_rng(104)
    start = time.monotonic()
    worst_oracle = 0.0
    worst_fourier = 0.0
    for _ in range(20):
        omega = float(rng.uniform(0.5, 3.0))
        beta = float(rng.uniform(0.5, 2.0))
        rho = random_unit(rng)
        theta = co.kernel_twist_angle(rho)
        spec = validate_spectrum([("m", omega)])
        sym = SymmetrySpec(kind="unitary", phases=(rho,))
        cutoff = 2500
        tail = verify.truncation_tail_bound(spec, beta, cutoff)
        times = np.arange(8) * beta / 8
        ftail = dense.fourier_tail(beta, 3000)
        for t in times:
            for s in times:
                closed = co.kernel_closed_form(omega, theta, beta, float(t), float(s))
                oracle = co.kernel_oracle(spec, sym, beta, float(t), float(s), cutoff)
                four, _ = dense.kernel_fourier(omega, theta, beta, float(t), float(s), 3000)
                worst_oracle = max(worst_oracle, abs(closed - oracle) - tail)
                worst_fourier = max(worst_fourier, abs(closed - four) - ftail)
    elapsed = time.monotonic() - start
    ok = worst_oracle <= 1e-8 and worst_fourier <= 0.0 and elapsed < 60.0
    announce(
        capsys, 4, "kernel three-way agreement", ok,
        f"oracle excess {worst_oracle:.2e}, fourier excess {worst_fourier:.2e}, "
        f"{elapsed:.1f}s",
    )
    assert ok


def test_criterion_5_resolvent_residual(capsys):
    rng = np.random.default_rng(105)
    ok = True
    detail = []
    for _ in range(3):
        omega = float(rng.uniform(0.5, 3.0))
        beta = float(rng.uniform(1.0, 2.0))
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        n_mode = int(rng.integers(-1, 1))  # n in {-1, 0}
        nu = (theta + 2.0 * math.pi * n_mode) / beta
        residuals = []
        for m in (64, 128, 256):
            residual = dense.verify_resolvent(
                omega,
                theta,
                beta,
                lambda t: cmath.exp(1j * nu * t),
                lambda t: -(nu**2) * cmath.exp(1j * nu * t),
                m=m,
            )
            residuals.append(residual)
            if residual > 5.0 * (beta / m) ** 2:
                ok = False
        orders = [
            math.log(r1 / r2) / math.log(2.0)
            for r1, r2 in zip(residuals, residuals[1:])
        ]
        if any(o < 1.9 for o in orders):
            ok = False
        detail.append(f"orders {', '.join(f'{o:.2f}' for o in orders)}")
    announce(capsys, 5, "resolvent quadrature residual", ok, "; ".join(detail))
    assert ok


def test_criterion_6_algebraic_suite(capsys):
    from twistkit import verify

    rng = np.random.default_rng(106)
    ok = True
    failing = []
    configs = []
    spec1 = validate_spectrum([("a", float(rng.uniform(0.5, 2.0)))])
    configs.append((spec1, SymmetrySpec(kind="unitary", phases=(random_unit(rng),))))
    w = float(rng.uniform(0.5, 2.0))
    spec2 = validate_spectrum([("a", w), ("b", w)])
    configs.append(
        (
            spec2,
            SymmetrySpec(
                kind="antiunitary",
                phases=(random_unit(rng), random_unit(rng)),
                pairing=(1, 0),
            ),
        )
    )
    for spec, sym in configs:
        for suite in ("ccr", "tc", "symmetry"):
            for result in verify.run_suite(suite, spec, sym, seed=0):
                if not result.passed:
                    ok = False
                    failing.append(result.name)
    announce(capsys, 6, "algebraic suite (TC, U_S, CCR, dynamics)", ok,
             "; ".join(failing) if failing else "all exact/sub-tolerance")
    assert ok


def test_criterion_7_doubled_space_consistency(capsys):
    rng = np.random.default_rng(107)
    worst_z = 0.0
    for _ in range(50):
        n_pairs = int(rng.integers(0, 3))
        n_fixed = int(rng.integers(1, 3))
        labels, omegas, pairing, phases = [], [], [], []
        for i in range(n_pairs):
            w = float(rng.uniform(0.5, 3.0))
            pairing += [len(labels) + 1, len(labels)]
            labels += [f"p{i}a", f"p{i}b"]
            omegas += [w, w]
            phases += [random_unit(rng), random_unit(rng)]
        for i in range(n_fixed):
            pairing.append(len(labels))
            labels.append(f"f{i}")
            omegas.append(float(rng.uniform(0.5, 3.0)))
            phases.append(random_unit(rng))
        spec = validate_spectrum(list(zip(labels, omegas)))
        sym = SymmetrySpec(
            kind="antiunitary",
            phases=tuple(phases),
            pairing=tuple(pairing),
        )
        beta = float(rng.uniform(0.4, 2.0))
        z_sqrt = partition.z_twisted(spec, sym, beta)
        z_rf = verify.z_via_realfield(rf.extend(spec, sym), beta)
        worst_z = max(worst_z, abs(z_sqrt - z_rf) / abs(z_sqrt))
    # extended kernel block structure and positivity
    spec_u = validate_spectrum([("a", 0.9), ("b", 1.4)])
    sym_u = SymmetrySpec(kind="unitary", phases=(1j, cmath.exp(2.4j)))
    block = dense.extended_kernel(rf.extend(spec_u, sym_u), 1.0, 0.6, 0.2)
    off = max(float(np.abs(block[:2, 2:]).max()), float(np.abs(block[2:, :2]).max()))
    spec_a = validate_spectrum([("a", 0.8)])
    sym_a = SymmetrySpec(
        kind="antiunitary", phases=(1.0 + 0j,), pairing=(0,)
    )
    min_eig = min(
        float(np.linalg.eigvalsh(dense.extended_kernel_grid(rf.extend(s, y), 1.0, 10)).min())
        for s, y in ((spec_u, sym_u), (spec_a, sym_a))
    )
    ok = worst_z <= 1e-10 and off < 1e-12 and min_eig > 0.0
    announce(
        capsys, 7, "doubled-space consistency", ok,
        f"z routes {worst_z:.2e}, off-diag {off:.2e}, min eig {min_eig:.2e}",
    )
    assert ok


def test_criterion_8_trace_bound_inequality(capsys):
    rng = np.random.default_rng(108)
    failures = 0
    for _ in range(500):
        n_modes = int(rng.integers(1, 8))
        w = rng.uniform(0.2, 5.0, size=n_modes)
        beta = float(rng.uniform(0.1, 4.0))
        mu = float(w.min())
        lhs = float(np.sum(np.exp(-beta * w) / (1.0 - np.exp(-beta * w))))
        rhs = float(np.sum(np.exp(-beta * w)) / (1.0 - math.exp(-beta * mu)))
        if lhs > rhs + 1e-12:
            failures += 1
    announce(capsys, 8, "trace-bound inequality on 500 random spectra",
             failures == 0, f"{failures} failures")
    assert failures == 0
