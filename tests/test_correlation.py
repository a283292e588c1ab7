import cmath
import math
import warnings

import numpy as np
import pytest

import dense
from twistkit import correlation as co, verify
from twistkit.errors import ConfigError, DomainError, RangeError
from twistkit.spectrum import SymmetrySpec, validate_spectrum


def dense_kernel_oracle(spec, sym, beta, t, s, cutoff):
    """Literal Fock-trace evaluation with dense np.kron matrices (small cutoffs)."""
    (omega,) = spec.omegas
    rho = sym.phases[0] if sym is not None else 1.0
    a_plus = dense.slot_creation(2, cutoff, 0)
    a_minus = dense.slot_creation(2, cutoff, 1)

    def field(tau, conjugate):
        # phi(t, 1) = [e^{-t w} A+* + e^{t w} A-] / sqrt(2 w); phibar swaps the charges
        create, destroy = (a_minus, a_plus) if conjugate else (a_plus, a_minus)
        return (math.exp(-tau * omega) * create + math.exp(tau * omega) * destroy.T) / math.sqrt(
            2.0 * omega
        )

    twist = dense.unitary_symmetry([rho], cutoff) @ np.diag(
        np.exp(-beta * np.diag(dense.hamiltonian([omega], cutoff)))
    )
    phi, phibar = field(t, False), field(s, True)
    ordered = phibar @ phi if t >= s else phi @ phibar
    return complex(np.trace(ordered @ twist) / np.trace(twist))


EPS = np.finfo(float).eps


class TestKernelTwistAngle:
    def test_frozen_sign_convention(self):
        # the kernel produced by symmetry phase rho = e^{i theta} is K_{-theta}
        assert co.kernel_twist_angle(1.0 + 0j) == 0.0
        assert abs(co.kernel_twist_angle(cmath.exp(0.7j)) - (2 * math.pi - 0.7)) < 1e-12
        assert abs(co.kernel_twist_angle(-1.0 + 0j) - math.pi) < 1e-12

    def test_untwisted_angle_is_positive_zero(self):
        # the angle -0.0 of rho = 1 is what CLI range errors used to print
        assert math.copysign(1.0, co.kernel_twist_angle(1)) == 1.0

    def test_convention_pinned_by_dense_oracle(self):
        # adjudicates the sign: with phase e^{i*0.9}, only theta = -0.9
        # (mod 2pi) matches the literal Fock trace.
        spec = validate_spectrum([("m", 1.1)])
        rho = cmath.exp(0.9j)
        sym = SymmetrySpec(kind="unitary", phases=(rho,))
        beta, t, s = 1.0, 0.6, 0.25
        oracle = dense_kernel_oracle(spec, sym, beta, t, s, 18)
        good = co.kernel_closed_form(1.1, co.kernel_twist_angle(rho), beta, t, s)
        flipped = co.kernel_closed_form(1.1, 0.9, beta, t, s)
        assert abs(oracle - good) < 1e-6
        assert abs(oracle - flipped) > 1e-3


class TestKernelFourier:
    """The tests' term-by-term Fourier sum, ``dense.kernel_fourier``: the
    reference for the closed form from the kernel's Fourier series."""

    def test_coth_limit_at_coincident_points(self):
        omega, beta = 1.0, 1.0
        target = (1.0 / (2.0 * omega)) / math.tanh(beta * omega / 2.0)
        val, _ = dense.kernel_fourier(omega, 0.0, beta, 0.0, 0.0, 20000)
        tail = dense.fourier_tail(beta, 20000)
        assert abs(val - target) <= tail
        assert abs(val - target) < 1e-4

    @pytest.mark.parametrize("omega", [1e160, 1e300])
    def test_huge_omega_does_not_overflow(self, omega):
        # omega^2 overflows a float; each term is below 1/omega^2 < 1e-308
        val, _ = dense.kernel_fourier(omega, 0.5, 1.0, 0.25, 0.0, 100)
        assert abs(val) <= 1e-300
        closed = co.kernel_closed_form(omega, 0.5, 1.0, 0.25, 0.0)
        assert abs(val - closed) <= dense.fourier_tail(1.0, 100)

    @pytest.mark.parametrize("beta", [1e-300, 1e-150])
    def test_tiny_beta_keeps_every_term(self, beta):
        # nu_n = (theta + 2 pi n)/beta squares beyond the float range for the
        # largest |n|, but the term beta/((theta + 2 pi n)^2 + (beta omega)^2)
        # is representable and must not count as 0
        theta = co.kernel_twist_angle(1j)
        tail = dense.fourier_tail(beta, 4000)
        for d in range(1 - 3, 3):
            t, s = (d * (beta / 3), 0.0) if d >= 0 else (0.0, -d * (beta / 3))
            val, _ = dense.kernel_fourier(1.0, theta, beta, t, s, 4000)
            assert abs(val - co.kernel_closed_form(1.0, theta, beta, t, s)) <= tail


class TestClosedForm:
    def test_matches_fourier_at_random_points(self):
        rng = np.random.default_rng(2)
        omega, theta, beta = 1.4, 2.2, 0.9
        tail = dense.fourier_tail(beta, 3000)
        for _ in range(100):
            t, s = rng.uniform(0.0, beta, size=2)
            closed = co.kernel_closed_form(omega, theta, beta, t, s)
            four, _ = dense.kernel_fourier(omega, theta, beta, t, s, 3000)
            assert abs(closed - four) <= tail

    def test_matches_fock_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            omega = float(rng.uniform(0.5, 3.0))
            beta = float(rng.uniform(0.5, 2.0))
            rho = cmath.exp(2j * math.pi * float(rng.uniform()))
            theta = co.kernel_twist_angle(rho)
            spec = validate_spectrum([("m", omega)])
            sym = SymmetrySpec(kind="unitary", phases=(rho,))
            cutoff = 2000
            tail = verify.truncation_tail_bound(spec, beta, cutoff)
            t, s = rng.uniform(0.0, beta, size=2)
            closed = co.kernel_closed_form(omega, theta, beta, t, s)
            oracle = co.kernel_oracle(spec, sym, beta, t, s, cutoff)
            assert abs(closed - oracle) <= tail + 1e-8

    def test_unit_derivative_jump(self):
        omega, theta, beta, s = 1.2, 0.7, 1.0, 0.45
        h = 1e-5
        right = (
            co.kernel_closed_form(omega, theta, beta, s + 2 * h, s)
            - co.kernel_closed_form(omega, theta, beta, s, s)
        ) / (2 * h)
        left = (
            co.kernel_closed_form(omega, theta, beta, s, s)
            - co.kernel_closed_form(omega, theta, beta, s - 2 * h, s)
        ) / (2 * h)
        assert abs((right - left) - (-1.0)) < 1e-4

    def test_hermitian_symmetry(self):
        k = co.kernel_closed_form(0.9, 1.7, 1.3, 0.2, 0.9)
        k_swapped = co.kernel_closed_form(0.9, 1.7, 1.3, 0.9, 0.2)
        assert k == k_swapped.conjugate()

    def test_domain_checked(self):
        with pytest.raises(DomainError):
            co.kernel_closed_form(1.0, 0.0, 1.0, 1.5, 0.2)

    @pytest.mark.parametrize("t, s", [(0.95, 0.05), (0.05, 0.95), (0.75, 0.25), (0.25, 0.75)])
    def test_large_omega_two_image_limit(self, t, s):
        # x = e^{-beta omega} underflows, so only the two nearest images remain
        omega, theta, beta = 1000.0, 0.7, 1.0
        tau = abs(t - s)
        phase = cmath.exp(1j * theta if t >= s else -1j * theta)
        want = (math.exp(-omega * tau) + math.exp(-omega * (beta - tau)) * phase) / (2 * omega)
        got = co.kernel_closed_form(omega, theta, beta, t, s)
        assert abs(got - want) <= 1e-12 * abs(want)


    @pytest.mark.parametrize("omega, theta", [(1e-20, 0.0), (1e-310, 0.5), (1e-12, 0.5)])
    def test_tiny_beta_omega_matches_fourier(self, omega, theta):
        # 1 - e^{-beta*omega} cancels completely here; the expm1 form does not
        beta, m, d = 1.0, 5, 1
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            closed = co.kernel_closed_form(omega, theta, beta, d * beta / m, 0.0)
        four, _ = dense.kernel_fourier(omega, theta, beta, d * beta / m, 0.0, 4000)
        assert abs(closed - four) <= dense.fourier_tail(beta, 4000) + 1e-15 * abs(four)

    @pytest.mark.parametrize("omega", [1e-200, 1e-160])
    def test_unrepresentable_kernel_raises_range_error(self, omega):
        # 1e-200: the denominator underflows to 0; 1e-160: K ~ 1e320 overflows
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(RangeError):
                co.kernel_closed_form(omega, 0.0, 1.0, 0.3, 0.1)

    def test_diagonal_is_real(self):
        for theta in (0.3, 1.7, 4.0):
            assert co.kernel_closed_form(0.9, theta, 1.3, 0.4, 0.4).imag == 0.0

class TestKernelOracle:
    def test_factorized_matches_dense(self):
        spec = validate_spectrum([("m", 0.9)])
        rho = cmath.exp(1.3j)
        sym = SymmetrySpec(kind="unitary", phases=(rho,))
        for (t, s) in [(0.2, 0.8), (0.8, 0.2), (0.5, 0.5)]:
            fast = co.kernel_oracle(spec, sym, 1.0, t, s, 14)
            dense = dense_kernel_oracle(spec, sym, 1.0, t, s, 14)
            assert abs(fast - dense) < 1e-12

    def test_value_beyond_the_float_range_raises(self):
        # 1/(2 omega) at omega = 1e-310 times sums of order 1 overflows
        spec = validate_spectrum([("m", 1e-310)])
        with pytest.raises(RangeError, match="outside the float range"):
            co.kernel_oracle(spec, None, 1.0, 0.5, 0.0, 8)

    def test_coth_value_at_coincident_points(self):
        spec = validate_spectrum([("m", 1.0)])
        val = co.kernel_oracle(spec, None, 1.0, 0.5, 0.5, 400)
        target = 0.5 / math.tanh(0.5)
        tail = verify.truncation_tail_bound(spec, 1.0, 400)
        assert abs(val - target) <= target * tail + 1e-12

    def test_branch_continuity_at_equal_times(self):
        spec = validate_spectrum([("m", 1.3)])
        sym = SymmetrySpec(kind="unitary", phases=(cmath.exp(0.4j),))
        eps = 1e-9
        above = co.kernel_oracle(spec, sym, 1.0, 0.4 + eps, 0.4, 600)
        below = co.kernel_oracle(spec, sym, 1.0, 0.4 - eps, 0.4, 600)
        assert abs(above - below) < 1e-7

    def test_beta_scaling(self):
        # kernel for (c*omega, beta/c) at scaled times is 1/c times the original
        spec = validate_spectrum([("m", 0.8)])
        sym = SymmetrySpec(kind="unitary", phases=(cmath.exp(2.1j),))
        c = 1.7
        scaled_spec = validate_spectrum([("m", 0.8 * c)])
        t, s, beta = 0.9, 0.3, 1.2
        base = co.kernel_oracle(spec, sym, beta, t, s, 1200)
        scaled = co.kernel_oracle(scaled_spec, sym, beta / c, t / c, s / c, 1200)
        assert abs(scaled - base / c) < 1e-9

    @pytest.mark.parametrize("omega", [700.0, 1000.0])
    def test_large_omega_matches_closed_form(self, omega):
        # e^{omega tau} alone overflows a float from omega*tau ~ 710 on; the
        # exponents carry a rounding error of about beta*omega*eps ~ 1e-13
        spec = validate_spectrum([("m", omega)])
        rho = cmath.exp(0.7j)
        sym = SymmetrySpec(kind="unitary", phases=(rho,))
        theta = co.kernel_twist_angle(rho)
        for t, s in [(0.0, 0.0), (0.999, 0.0), (0.0, 0.999), (0.5, 0.25), (0.1, 0.9)]:
            oracle = co.kernel_oracle(spec, sym, 1.0, t, s, 800)
            closed = co.kernel_closed_form(omega, theta, 1.0, t, s)
            assert abs(oracle - closed) <= 1e-12 * abs(closed)

    def test_matches_high_precision_trace(self):
        # Phase near -1 at small beta*omega: the truncated sums of 800 terms
        # oscillate, so powers y**n taken one by one lose about 1e-9 here.
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        omega, beta, rho, cutoff = 0.081, 0.244, cmath.exp(-2.48j), 800
        t = beta / 2
        w, x = mpmath.mpf(omega), mpmath.exp(-mpmath.mpf(beta) * omega)

        def sums(y):
            powers = [y**n for n in range(cutoff + 1)]
            z = mpmath.fsum(powers)
            create = mpmath.fsum(n * p for n, p in enumerate(powers)) / z
            return create, mpmath.fsum((n + 1) * p for n, p in enumerate(powers[:-1])) / z

        _, p_destroy = sums(mpmath.mpc(rho.real, rho.imag) * x)
        m_create, _ = sums(mpmath.mpc(rho.real, -rho.imag) * x)
        want = complex((mpmath.exp(w * t) * m_create + mpmath.exp(-w * t) * p_destroy) / (2 * w))
        spec = validate_spectrum([("m", omega)])
        sym = SymmetrySpec(kind="unitary", phases=(rho,))
        got = co.kernel_oracle(spec, sym, beta, t, 0.0, cutoff)
        assert abs(got - want) <= 1e-11 * abs(want)

    def test_agrees_with_the_growing_factor_form(self):
        # The form that multiplied e^{omega |tau|} in, wherever it is finite
        # and the truncated geometric sums do not cancel (beta*omega >= 0.5).
        def growing(omega, rho, beta, t, s, cutoff):
            n = np.arange(cutoff + 1)

            def sums(y):
                powers = y**n
                z = np.sum(powers)
                return np.sum(n * powers) / z, np.sum((n[:-1] + 1) * powers[:-1]) / z

            x = math.exp(-beta * omega)
            p_create, p_destroy = sums(rho * x)
            m_create, m_destroy = sums(rho.conjugate() * x)
            tau = t - s
            if tau >= 0.0:
                val = math.exp(omega * tau) * m_create + math.exp(-omega * tau) * p_destroy
            else:
                val = math.exp(-omega * tau) * p_create + math.exp(omega * tau) * m_destroy
            return complex(val) / (2.0 * omega)

        rng = np.random.default_rng(4)
        for _ in range(300):
            beta = float(rng.uniform(0.25, 4.0))
            omega = max(float(rng.uniform(0.3, 3.0)), 0.5 / beta)
            rho = cmath.exp(2j * math.pi * float(rng.uniform()))
            m = int(rng.integers(8, 64))
            t, s = (beta * int(k) / m for k in rng.integers(0, m, size=2))
            spec = validate_spectrum([("m", omega)])
            sym = SymmetrySpec(kind="unitary", phases=(rho,))
            want = growing(omega, rho, beta, t, s, 800)
            got = co.kernel_oracle(spec, sym, beta, t, s, 800)
            assert abs(got - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize(
        "other",
        [{"rho": cmath.exp(2.1j)}, {"beta": 1.7}, {"cutoff": 5}],
        ids=["rho", "beta", "cutoff"],
    )
    def test_memo_gives_fresh_values(self, other):
        # Alternating between two kernels that differ in one of the memo's
        # inputs (beta through x = e^{-beta omega}), every value is bitwise
        # the one a call with an empty memo gives.
        spec = validate_spectrum([("m", 0.9)])

        def call(rho=cmath.exp(0.4j), beta=1.2, cutoff=800, t=0.3, s=0.1):
            sym = SymmetrySpec(kind="unitary", phases=(rho,))
            return co.kernel_oracle(spec, sym, beta, t, s, cutoff)

        def bits(z):
            return z.real.hex(), z.imag.hex()

        points = [(0.3, 0.1), (0.1, 0.3), (0.5, 0.5)]
        fresh = {}
        for which in ({}, other):
            for t, s in points:
                co._oscillator_sums.cache_clear()
                fresh[len(which), t, s] = bits(call(t=t, s=s, **which))
        for _ in range(2):
            for t, s in points:
                for which in ({}, other):
                    assert bits(call(t=t, s=s, **which)) == fresh[len(which), t, s]


class TestKernelGrid:
    def test_hermitian_and_positive_definite(self):
        grid = dense.kernel_grid(1.1, 2.3, 1.0, 24)
        assert np.abs(grid - grid.conj().T).max() < 1e-10
        assert np.linalg.eigvalsh(grid).min() > 0.0

    def test_norm_bound(self):
        # discrete operator norm of C_beta is at most 1/(nu_min^2 + omega^2)
        omega, theta, beta = 0.8, 1.1, 1.4
        grid = dense.kernel_grid(omega, theta, beta, 64)
        op_norm = np.linalg.norm(grid, 2) * (beta / 64)
        nu_min = min(abs(theta + 2.0 * math.pi * n) / beta for n in range(-2, 3))
        slack = 5.0 * (beta / 64) ** 2  # discretization error of the kinked kernel
        assert op_norm <= 1.0 / (nu_min**2 + omega**2) + slack
        assert op_norm <= 1.0 / omega**2 + slack


    @pytest.mark.parametrize("m", [33, 64])
    def test_twisted_circulant_matches_pointwise(self, m):
        omega, theta, beta = 0.9, 2.1, 1.3
        grid = dense.kernel_grid(omega, theta, beta, m)
        times = (np.arange(m) * (beta / m)).tolist()
        pointwise = np.array(
            [[co.kernel_closed_form(omega, theta, beta, t, s) for s in times] for t in times]
        )
        assert np.abs(grid - pointwise).max() <= 1e-15 * np.abs(pointwise).max()
        off = ~np.eye(m, dtype=bool)
        assert np.array_equal(grid[off], grid.conj().T[off])


    @pytest.mark.parametrize("m", [8, 33, 64])
    @pytest.mark.parametrize("theta", [0.0, 2.1, 5.9])
    def test_fft_spectrum_matches_eigvalsh(self, m, theta):
        spectrum = np.array(co.sample_kernels(1.3, [0.9], [theta], m).spectrum())
        eigs = np.linalg.eigvalsh(dense.kernel_grid(0.9, theta, 1.3, m))
        assert spectrum.shape == (m, 1)
        assert np.abs(np.sort(spectrum[:, 0]) - eigs).max() <= 1e-13 * np.abs(eigs).max()


def unreduced_grid_spectrum(omega, theta, beta, m):
    """The closed form as first written: sin((theta + 2 pi n)/(2m)) at n itself."""
    h = beta / m
    return [
        math.sinh(omega * h)
        / (4 * omega * (math.sinh(omega * h / 2) ** 2 + math.sin((theta + 2 * math.pi * n) / (2 * m)) ** 2))
        for n in range(m)
    ]


class TestGridSpectrum:
    @staticmethod
    def worst_relative_error(spectrum_fn, draws):
        """Largest error per eigenvalue, in eps, against 40-digit arithmetic."""
        mpmath = pytest.importorskip("mpmath")
        worst = 0.0
        with mpmath.workdps(40):
            for omega, theta, beta, m in draws:
                w, h = mpmath.mpf(omega), mpmath.mpf(beta) / m
                for n, got in enumerate(spectrum_fn(omega, theta, beta, m)):
                    s = mpmath.sin((mpmath.mpf(theta) + 2 * mpmath.pi * n) / (2 * m))
                    want = mpmath.sinh(w * h) / (4 * w * (mpmath.sinh(w * h / 2) ** 2 + s**2))
                    worst = max(worst, float(abs(got - want) / want) / EPS)
        return worst

    def test_accurate_near_a_full_turn(self):
        # theta near 2 pi puts (theta + 2 pi n)/(2m) near pi at n = m - 1, where
        # the sine cancels unless it is taken at the signed index n - m
        rng = np.random.default_rng(31)
        draws = [
            (10 ** rng.uniform(-3.0, 0.5), 2 * math.pi - 10 ** rng.uniform(-6.0, -1.0), 1.0, 384)
            for _ in range(12)
        ]
        assert self.worst_relative_error(co.grid_spectrum, draws) <= 16.0
        assert self.worst_relative_error(unreduced_grid_spectrum, draws) > 16.0

    def test_accurate_over_the_range(self):
        rng = np.random.default_rng(32)
        draws = [
            (10 ** rng.uniform(-3.0, 2.5), rng.uniform(0.0, 2 * math.pi),
             rng.uniform(0.25, 4.0), int(rng.integers(1, 385)))
            for _ in range(12)
        ]
        draws += [(1e-12, 0.0, 1.0, 16), (1e3, 0.7, 1.0, 8), (1e300, 5.9, 1.0, 4)]
        assert self.worst_relative_error(co.grid_spectrum, draws) <= 16.0

    def test_equals_the_aliasing_sum(self):
        # the theorem itself: lambda_n = (1/h) sum_{k = n mod m} 1/(nu_k^2 + omega^2),
        # summed term by term near its peak and by Euler-Maclaurin in the tails
        # (Richardson extrapolation, nsum's default, misjudges these tails at
        # large omega/m), at 40 digits
        mpmath = pytest.importorskip("mpmath")
        draws = [(1e-3, 2 * math.pi - 1e-9, 1.0, 1), (1e3, 0.7, 1.0, 1),
                 (1e3, 2 * math.pi - 1e-3, 0.5, 384), (1e-3, 2 * math.pi - 1e-6, 1.0, 128),
                 (0.9, 2.1, 1.3, 33)]
        worst = 0.0
        with mpmath.workdps(40):
            for omega, theta, beta, m in draws:
                got = co.grid_spectrum(omega, theta, beta, m)
                w, th, b = mpmath.mpf(omega), mpmath.mpf(theta), mpmath.mpf(beta)
                for n in sorted({0, 1 % m, m // 2, m - 1}):
                    def term(j):
                        return 1 / (((th + 2 * mpmath.pi * (n + m * j)) / b) ** 2 + w**2)

                    peak = mpmath.fsum(term(j) for j in range(-10, 11))
                    tails = sum(mpmath.nsum(term, span, method="euler-maclaurin")
                                for span in ([11, mpmath.inf], [-mpmath.inf, -11]))
                    want = (peak + tails) * m / b
                    worst = max(worst, float(abs(got[n] - want) / want) / EPS)
        assert worst <= 16.0

    def test_tiny_omega_minimum(self):
        # the FFT of these lag values rounds this eigenvalue to about -5.4e8
        assert min(co.grid_spectrum(1e-12, 0.0, 1.0, 16)) == pytest.approx(1.0 / 64, rel=1e-12)

    @pytest.mark.parametrize(
        "omega, theta, beta, m",
        [(1.3, 0.7, 1.0, 33), (0.081, 2.48, 0.244, 64), (10.0, 0.0, 1.0, 128),
         (3.0, 5.9, 2.0, 384), (1e-3, 0.0, 1.0, 16), (1e-12, 0.0, 1.0, 16),
         (0.05, 2 * math.pi - 1e-5, 1.0, 200), (1e300, 1.0, 1.0, 8)],
    )
    def test_transform_of_the_lag_values_agrees(self, omega, theta, beta, m):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sampled = co.sample_kernels(beta, [omega], [theta], m)
        checks = verify.sampled_kernel_checks(sampled)
        (check,) = [c for c in checks if c.name == "sampled spectrum vs closed form"]
        assert check.passed, check

    def test_spectrum_out_of_range_raises_range_error(self):
        # lambda_0 ~ 1/(omega^2 h) = 1e320 at omega = 1e-160
        with pytest.raises(RangeError):
            co.grid_spectrum(1e-160, 0.0, 1.0, 1)


class TestApplyInverse:
    def test_eigenfunction(self):
        spec = validate_spectrum([("m", 1.2)])
        rho = cmath.exp(0.8j)
        sym = SymmetrySpec(kind="unitary", phases=(rho,))
        theta = co.kernel_twist_angle(rho)
        beta, m = 1.3, 64
        times = np.arange(m) * beta / m
        nu = (theta + 2.0 * math.pi * 0) / beta
        samples = np.exp(1j * nu * times)[:, None]
        out = dense.apply_inverse(spec, sym, beta, samples)
        assert np.abs(out - samples / (nu**2 + 1.2**2)).max() < 1e-12

    def test_linearity(self):
        spec = validate_spectrum([("m", 0.9)])
        sym = SymmetrySpec(kind="unitary", phases=(1j,))
        rng = np.random.default_rng(9)
        x = rng.normal(size=(32, 1)) + 1j * rng.normal(size=(32, 1))
        y = rng.normal(size=(32, 1)) + 1j * rng.normal(size=(32, 1))
        a, b = 1.7 - 0.3j, -0.6 + 2.1j
        lhs = dense.apply_inverse(spec, sym, 1.0, a * x + b * y)
        rhs = a * dense.apply_inverse(spec, sym, 1.0, x) + b * dense.apply_inverse(
            spec, sym, 1.0, y
        )
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_stencil_recovers_input(self):
        spec = validate_spectrum([("m", 1.1)])
        rho = cmath.exp(1.9j)
        sym = SymmetrySpec(kind="unitary", phases=(rho,))
        theta = co.kernel_twist_angle(rho)
        beta, m = 1.0, 256
        h = beta / m
        times = np.arange(m) * h
        # band-limited twisted input: a few low eigenmodes
        nus = [(theta + 2.0 * math.pi * n) / beta for n in (-1, 0, 1)]
        samples = sum(
            c * np.exp(1j * nu * times) for c, nu in zip([0.5, 1.0, -0.3j], nus)
        )[:, None]
        out = dense.apply_inverse(spec, sym, beta, samples)
        g = out[:, 0]
        twist = cmath.exp(1j * theta)
        up = np.concatenate([g[1:], [twist * g[0]]])
        down = np.concatenate([[g[-1] / twist], g[:-1]])
        stencil = -(up - 2.0 * g + down) / h**2 + 1.1**2 * g
        assert np.abs(stencil - samples[:, 0]).max() < 60.0 * h**2

    def test_huge_omega_gives_zero(self):
        # nu^2 + omega^2 overflows; 1/omega^2 = 1e-600 is 0 in floats
        out = dense.apply_inverse(validate_spectrum([("a", 1e300)]), None, 1.0, np.ones((8, 1)))
        assert out.shape == (8, 1) and not out.any()

    def test_unrepresentable_value_raises_range_error(self):
        # omega^2 underflows to 0 on the untwisted zero mode: the value 1e400 is not a float
        with pytest.raises(RangeError):
            dense.apply_inverse(validate_spectrum([("a", 1e-200)]), None, 1.0, np.ones((8, 1)))

    def test_direct_sum_law(self):
        two = validate_spectrum([("a", 0.7), ("b", 1.9)])
        sym = SymmetrySpec(kind="unitary", phases=(1j, -1.0 + 0j))
        rng = np.random.default_rng(13)
        samples = rng.normal(size=(32, 2)) + 1j * rng.normal(size=(32, 2))
        joint = dense.apply_inverse(two, sym, 1.0, samples)
        for k, lbl in enumerate(two.labels):
            single = validate_spectrum([(lbl, two.omegas[k])])
            single_sym = SymmetrySpec(kind="unitary", phases=(sym.phases[k],))
            alone = dense.apply_inverse(single, single_sym, 1.0, samples[:, [k]])
            assert np.abs(joint[:, [k]] - alone).max() == 0.0


class TestVerifyResolvent:
    def test_eigenmode_residual(self):
        nu = (2.0 + 2.0 * math.pi * 0) / 1.0

        residual = dense.verify_resolvent(
            1.0, 2.0, 1.0,
            lambda t: cmath.exp(1j * nu * t),
            lambda t: -(nu**2) * cmath.exp(1j * nu * t),
            m=128,
        )
        assert residual <= 5.0 * (1.0 / 128) ** 2

    def test_smooth_compliant_function_converges(self):
        theta, beta, omega = 1.1, 1.0, 1.4
        nus = [(theta + 2.0 * math.pi * n) / beta for n in (-1, 0, 1)]
        coeffs = [0.4, 1.0, 0.2 - 0.5j]

        def g(t):
            return sum(c * cmath.exp(1j * nu * t) for c, nu in zip(coeffs, nus))

        def g2(t):
            return sum(
                -c * nu**2 * cmath.exp(1j * nu * t) for c, nu in zip(coeffs, nus)
            )

        residuals = [dense.verify_resolvent(omega, theta, beta, g, g2, m=m) for m in (32, 64, 128)]
        orders = [
            math.log(r1 / r2) / math.log(2.0) for r1, r2 in zip(residuals, residuals[1:])
        ]
        assert all(o >= 1.9 for o in orders)

    def test_matches_pointwise_quadrature(self):
        theta, beta, omega, m = 1.1, 1.0, 1.4, 64
        nus = [(theta + 2.0 * math.pi * n) / beta for n in (-1, 0, 2)]
        coeffs = [0.4, 1.0, 0.2 - 0.5j]

        def g(t):
            return sum(c * cmath.exp(1j * nu * t) for c, nu in zip(coeffs, nus))

        def g2(t):
            return sum(-c * nu**2 * cmath.exp(1j * nu * t) for c, nu in zip(coeffs, nus))

        times = [j * (beta / m) for j in range(m)]
        source = np.array([-g2(s) + omega**2 * g(s) for s in times])
        loop = max(
            abs((beta / m) * np.dot([co.kernel_closed_form(omega, theta, beta, t, s)
                                     for s in times], source) - g(t))
            for t in times
        )
        assert abs(dense.verify_resolvent(omega, theta, beta, g, g2, m=m) - loop) <= 1e-13

    def test_eigenmode_residual_is_one_sum_of_the_lag_values(self):
        # on an eigenmode the quadrature's residual is one sum of the lag
        # values, |h lambda_hat_0 (nu^2 + omega^2) - 1| with lambda_hat_0 the
        # carrier-stripped sum of the m lag values, within 16 eps R
        rng = np.random.default_rng(116)
        beta = 1.0
        worst = 0.0
        for i in range(500):
            omega = 10 ** rng.uniform(-3.0, 3.0)
            if i % 10 == 0:
                theta = 0.0
            elif i % 10 == 1:
                theta = 2 * math.pi - 10 ** rng.uniform(-12.0, -1.0)
            else:
                theta = rng.uniform(0.0, 2 * math.pi)
            nu, w2 = theta / beta, (theta / beta) ** 2 + omega**2
            for m in (32, 128):
                h = beta / m
                residual = dense.verify_resolvent(
                    omega, theta, beta, lambda t: cmath.exp(1j * nu * t),
                    lambda t: -(nu**2) * cmath.exp(1j * nu * t), m,
                )
                lags = co.sample_kernels(beta, [omega], [theta], m).lags
                lam_hat = math.fsum(
                    (row[0] * cmath.rect(1.0, -theta * j / m)).real for j, row in enumerate(lags)
                )
                r = h * max(co.grid_spectrum(omega, theta, beta, m)) * w2
                worst = max(worst, abs(residual - abs(h * lam_hat * w2 - 1.0)) / (EPS * r))
        assert worst <= 16.0

    def test_noncompliant_function_rejected(self):
        with pytest.raises(ValueError):
            dense.verify_resolvent(1.0, 1.5, 1.0, lambda t: t, lambda t: 0.0, m=32)


class TestCsvExport:
    def test_deterministic_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        co.export_kernel_csv(p1, co.sample_kernels(1.0, [1.0], [0.5], 8))
        co.export_kernel_csv(p2, co.sample_kernels(1.0, [1.0], [0.5], 8))
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_and_row_count(self, tmp_path):
        p = tmp_path / "k.csv"
        co.export_kernel_csv(p, co.sample_kernels(1.0, [1.0], [0.5], 6))
        lines = p.read_text().splitlines()
        assert lines[0] == "t,s,re_k,im_k,tail_bound"
        assert len(lines) == 1 + 36

    @pytest.mark.parametrize("m", [1, 2, 3, 7, 8])
    def test_rows_are_grid_entries(self, tmp_path, m):
        p = tmp_path / "k.csv"
        co.export_kernel_csv(p, co.sample_kernels(1.3, [0.7], [4.4], m))
        grid = dense.kernel_grid(0.7, 4.4, 1.3, m)
        times = np.arange(m) * (1.3 / m)
        want = [
            f"{t:.16e},{s:.16e},{grid[i, j].real:.16e},"
            f"{grid[i, j].imag:.16e},{0.0:.16e}"
            for i, t in enumerate(times)
            for j, s in enumerate(times)
        ]
        assert p.read_text().splitlines()[1:] == want

    @pytest.mark.parametrize(
        "build",
        [lambda: co.SampledKernel(1.0, (), (), ((),) * 3, basis=()),
         lambda: co.sample_kernels(1.0, [], [], 3)],
        ids=["SampledKernel", "sample_kernels"],
    )
    def test_layout_without_columns_is_refused(self, build):
        with pytest.raises(ConfigError) as exc:
            build()
        assert str(exc.value) == "a sampled kernel needs at least one column"

    @pytest.mark.parametrize("m", [1, 3])
    def test_basis_free_layout_with_two_columns_writes_both(self, tmp_path, m):
        # two columns and no basis: every (t, s, row, col) entry, not column 0
        # alone under the scalar header
        sampled = co.sample_kernels(1.3, [0.7, 1.9], [4.4, 0.3], m)
        p = tmp_path / "k.csv"
        co.export_kernel_csv(p, sampled)
        grid = dense.grid(sampled).reshape(m, 2, m, 2)
        times = np.arange(m) * (1.3 / m)
        want = [
            f"{times[i]:.16e},{times[k]:.16e},{a},{b},{grid[i, a, k, b].real:.16e},"
            f"{grid[i, a, k, b].imag:.16e},{0.0:.16e}"
            for i in range(m) for k in range(m) for a in range(2) for b in range(2)
        ]
        lines = p.read_text().splitlines()
        assert lines[0] == "t,s,row_sector,col_sector,re_k,im_k,tail_bound"
        assert lines[1:] == want

