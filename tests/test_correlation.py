import cmath
import math
import warnings

import numpy as np
import pytest

import dense
from twistkit import correlation as co, partition
from twistkit.errors import DomainError, PreconditionError, RangeError
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


class TestKernelTwistAngle:
    def test_frozen_sign_convention(self):
        # the kernel produced by symmetry phase rho = e^{i theta} is K_{-theta}
        assert co.kernel_twist_angle(1.0 + 0j) == 0.0
        assert abs(co.kernel_twist_angle(cmath.exp(0.7j)) - (2 * math.pi - 0.7)) < 1e-12
        assert abs(co.kernel_twist_angle(-1.0 + 0j) - math.pi) < 1e-12

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
    def test_coth_limit_at_coincident_points(self):
        omega, beta = 1.0, 1.0
        target = (1.0 / (2.0 * omega)) / math.tanh(beta * omega / 2.0)
        val, tail = co.kernel_fourier(omega, 0.0, beta, 0.3, 0.3, 20000)
        assert abs(val - target) <= tail
        assert abs(val - target) < 1e-4

    def test_large_omega_decay(self):
        val, _ = co.kernel_fourier(200.0, 0.0, 1.0, 0.2, 0.7, 50)
        assert abs(val) < 1e-3

    @pytest.mark.parametrize("omega", [1e160, 1e300])
    def test_huge_omega_does_not_overflow(self, omega):
        # omega^2 overflows a float; each term is below 1/omega^2 < 1e-308
        val, tail = co.kernel_fourier(omega, 0.5, 1.0, 0.25, 0.0, 100)
        assert abs(val) <= 1e-300
        assert abs(val - co.kernel_closed_form(omega, 0.5, 1.0, 0.25, 0.0)) <= tail

    def test_hermitian_termwise(self):
        val_ts, _ = co.kernel_fourier(1.3, 0.9, 1.1, 0.2, 0.8, 300)
        val_st, _ = co.kernel_fourier(1.3, 0.9, 1.1, 0.8, 0.2, 300)
        assert abs(val_ts - val_st.conjugate()) < 1e-14


class TestClosedForm:
    def test_matches_fourier_at_random_points(self):
        rng = np.random.default_rng(2)
        omega, theta, beta = 1.4, 2.2, 0.9
        for _ in range(100):
            t, s = rng.uniform(0.0, beta, size=2)
            closed = co.kernel_closed_form(omega, theta, beta, t, s)
            four, tail = co.kernel_fourier(omega, theta, beta, t, s, 3000)
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
            tail = partition.truncation_tail_bound(spec, beta, cutoff)
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
        beta, t, s = 1.0, 0.3, 0.1
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            closed = co.kernel_closed_form(omega, theta, beta, t, s)
        four, tail = co.kernel_fourier(omega, theta, beta, t, s, 4000)
        assert abs(closed - four) <= tail + 1e-15 * abs(four)

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

    def test_coth_value_at_coincident_points(self):
        spec = validate_spectrum([("m", 1.0)])
        val = co.kernel_oracle(spec, None, 1.0, 0.5, 0.5, 400)
        target = 0.5 / math.tanh(0.5)
        tail = partition.truncation_tail_bound(spec, 1.0, 400)
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


class TestKernelGrid:
    def test_hermitian_and_positive_definite(self):
        grid = co.kernel_grid(co.TwistedKernel(1.1, 2.3, 1.0), 24)
        assert np.abs(grid.matrix - grid.matrix.conj().T).max() < 1e-10
        assert np.linalg.eigvalsh(grid.matrix).min() > 0.0

    def test_norm_bound(self):
        # discrete operator norm of C_beta is at most 1/(nu_min^2 + omega^2)
        omega, theta, beta = 0.8, 1.1, 1.4
        grid = co.kernel_grid(co.TwistedKernel(omega, theta, beta), 64)
        op_norm = np.linalg.norm(grid.matrix, 2) * (beta / 64)
        nu_min = min(abs(theta + 2.0 * math.pi * n) / beta for n in range(-2, 3))
        slack = 5.0 * (beta / 64) ** 2  # discretization error of the kinked kernel
        assert op_norm <= 1.0 / (nu_min**2 + omega**2) + slack
        assert op_norm <= 1.0 / omega**2 + slack


    @pytest.mark.parametrize("m", [33, 64])
    def test_twisted_circulant_matches_pointwise(self, m):
        omega, theta, beta = 0.9, 2.1, 1.3
        grid = co.kernel_grid(co.TwistedKernel(omega, theta, beta), m)
        times = grid.times.tolist()
        pointwise = np.array(
            [[co.kernel_closed_form(omega, theta, beta, t, s) for s in times] for t in times]
        )
        assert np.abs(grid.matrix - pointwise).max() <= 1e-15 * np.abs(pointwise).max()
        off = ~np.eye(m, dtype=bool)
        assert np.array_equal(grid.matrix[off], grid.matrix.conj().T[off])


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
        out = co.apply_inverse(spec, sym, beta, samples)
        assert np.abs(out - samples / (nu**2 + 1.2**2)).max() < 1e-12

    def test_linearity(self):
        spec = validate_spectrum([("m", 0.9)])
        sym = SymmetrySpec(kind="unitary", phases=(1j,))
        rng = np.random.default_rng(9)
        x = rng.normal(size=(32, 1)) + 1j * rng.normal(size=(32, 1))
        y = rng.normal(size=(32, 1)) + 1j * rng.normal(size=(32, 1))
        a, b = 1.7 - 0.3j, -0.6 + 2.1j
        lhs = co.apply_inverse(spec, sym, 1.0, a * x + b * y)
        rhs = a * co.apply_inverse(spec, sym, 1.0, x) + b * co.apply_inverse(
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
        out = co.apply_inverse(spec, sym, beta, samples)
        g = out[:, 0]
        twist = cmath.exp(1j * theta)
        up = np.concatenate([g[1:], [twist * g[0]]])
        down = np.concatenate([[g[-1] / twist], g[:-1]])
        stencil = -(up - 2.0 * g + down) / h**2 + 1.1**2 * g
        assert np.abs(stencil - samples[:, 0]).max() < 60.0 * h**2

    def test_direct_sum_law(self):
        two = validate_spectrum([("a", 0.7), ("b", 1.9)])
        sym = SymmetrySpec(kind="unitary", phases=(1j, -1.0 + 0j))
        rng = np.random.default_rng(13)
        samples = rng.normal(size=(32, 2)) + 1j * rng.normal(size=(32, 2))
        joint = co.apply_inverse(two, sym, 1.0, samples)
        for k, lbl in enumerate(two.labels):
            single = validate_spectrum([(lbl, two.omegas[k])])
            single_sym = SymmetrySpec(kind="unitary", phases=(sym.phases[k],))
            alone = co.apply_inverse(single, single_sym, 1.0, samples[:, [k]])
            assert np.abs(joint[:, [k]] - alone).max() == 0.0


class TestVerifyResolvent:
    def test_eigenmode_residual(self):
        kern = co.TwistedKernel(1.0, 2.0, 1.0)
        nu = (2.0 + 2.0 * math.pi * 0) / 1.0

        report = co.verify_resolvent(
            kern,
            lambda t: cmath.exp(1j * nu * t),
            lambda t: -(nu**2) * cmath.exp(1j * nu * t),
            m=128,
        )
        assert report.max_residual <= 5.0 * (1.0 / 128) ** 2

    def test_smooth_compliant_function_converges(self):
        theta, beta, omega = 1.1, 1.0, 1.4
        kern = co.TwistedKernel(omega, theta, beta)
        nus = [(theta + 2.0 * math.pi * n) / beta for n in (-1, 0, 1)]
        coeffs = [0.4, 1.0, 0.2 - 0.5j]

        def g(t):
            return sum(c * cmath.exp(1j * nu * t) for c, nu in zip(coeffs, nus))

        def g2(t):
            return sum(
                -c * nu**2 * cmath.exp(1j * nu * t) for c, nu in zip(coeffs, nus)
            )

        residuals = [co.verify_resolvent(kern, g, g2, m=m).max_residual for m in (32, 64, 128)]
        orders = [
            math.log(r1 / r2) / math.log(2.0) for r1, r2 in zip(residuals, residuals[1:])
        ]
        assert all(o >= 1.9 for o in orders)

    def test_matches_pointwise_quadrature(self):
        theta, beta, omega, m = 1.1, 1.0, 1.4, 64
        kern = co.TwistedKernel(omega, theta, beta)
        nus = [(theta + 2.0 * math.pi * n) / beta for n in (-1, 0, 2)]
        coeffs = [0.4, 1.0, 0.2 - 0.5j]

        def g(t):
            return sum(c * cmath.exp(1j * nu * t) for c, nu in zip(coeffs, nus))

        def g2(t):
            return sum(-c * nu**2 * cmath.exp(1j * nu * t) for c, nu in zip(coeffs, nus))

        times = [j * (beta / m) for j in range(m)]
        source = np.array([-g2(s) + omega**2 * g(s) for s in times])
        loop = max(
            abs((beta / m) * np.dot([kern(t, s) for s in times], source) - g(t)) for t in times
        )
        report = co.verify_resolvent(kern, g, g2, m=m)
        assert abs(report.max_residual - loop) <= 1e-13

    def test_noncompliant_function_rejected(self):
        kern = co.TwistedKernel(1.0, 1.5, 1.0)
        with pytest.raises(PreconditionError):
            co.verify_resolvent(kern, lambda t: t, lambda t: 0.0, m=32)


class TestCsvExport:
    def test_deterministic_bytes(self, tmp_path):
        kern = co.TwistedKernel(1.0, 0.5, 1.0)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        co.export_kernel_csv(p1, kern, 8)
        co.export_kernel_csv(p2, kern, 8)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_and_row_count(self, tmp_path):
        kern = co.TwistedKernel(1.0, 0.5, 1.0)
        p = tmp_path / "k.csv"
        co.export_kernel_csv(p, kern, 6)
        lines = p.read_text().splitlines()
        assert lines[0] == "t,s,re_k,im_k,tail_bound"
        assert len(lines) == 1 + 36

    @pytest.mark.parametrize("m", [7, 8])
    def test_rows_are_grid_entries(self, tmp_path, m):
        kern = co.TwistedKernel(0.7, 4.4, 1.3)
        p = tmp_path / "k.csv"
        co.export_kernel_csv(p, kern, m)
        grid = co.kernel_grid(kern, m)
        want = [
            f"{t:.16e},{s:.16e},{grid.matrix[i, j].real:.16e},"
            f"{grid.matrix[i, j].imag:.16e},{0.0:.16e}"
            for i, t in enumerate(grid.times)
            for j, s in enumerate(grid.times)
        ]
        assert p.read_text().splitlines()[1:] == want
