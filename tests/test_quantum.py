import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.signal import find_peaks
from scipy.special import wofz

from rydfm import quantum
from rydfm.constants import HBAR
from rydfm.errors import (
    DomainError,
    InvariantViolation,
    NonConvergenceError,
    SingularSystemError,
)
from rydfm.quantum import (
    CHUNK,
    DensityMatrix,
    FieldDrive,
    LadderSystem,
    _steady_rho21_many,
    build_hamiltonian,
    build_liouvillian,
    cs_vapor_density,
    doppler_average,
    steady_state,
    susceptibility_batch,
)

TWO_PI = 2 * math.pi


def solve(sys, drive, v=0.0):
    return steady_state(build_liouvillian(build_hamiltonian(sys, drive, v), sys))


def complex_trace_solve(lam, unit_cols=()):
    """Trace-1 steady state of complex Liouvillians, solved in the row-major vec basis.

    An oracle for the kernel's real-basis solve: each generator is normalized
    by its largest entry and its row 0 replaced by ones on the populations;
    column 0 is vec(rho), the others solve for the unit vectors e_j.
    """
    a = lam / np.max(np.abs(lam), axis=(-2, -1), keepdims=True)
    a[..., 0, :] = 0.0
    a[..., 0, [0, 5, 10, 15]] = 1.0
    rhs = np.eye(16, dtype=complex)[:, [0, *unit_cols]]
    return np.linalg.solve(a, np.broadcast_to(rhs, lam.shape[:-2] + rhs.shape))


def shift_diagonal(h):
    """Vec-space diagonal of -i[H, .] for a diagonal H: -i (h_ii - h_jj) on coherence (i, j)."""
    s = np.diag(h).real
    return (-1j * (s[:, None] - s[None, :])).ravel()


def velocity_diagonal(sys):
    """d L / d v as a vec-space diagonal."""
    return shift_diagonal(build_hamiltonian(sys, FieldDrive(), 1.0))


def oracle_rho21(sys, drive, diagonal, xs):
    """Complex-oracle rho21 of `drive` moved by each of `xs` along a vec-space `diagonal` of L."""
    base = build_liouvillian(build_hamiltonian(sys, drive, 0.0), sys)
    return complex_trace_solve(base + np.multiply.outer(xs, diagonal)[..., None] * np.eye(16))[..., 4, 0]


def rho21_at_velocities(sys, drive, velocities):
    """Complex-oracle rho21 of one operating point for a stack of velocity classes."""
    return oracle_rho21(sys, drive, velocity_diagonal(sys), velocities)


def kernel_rho21_at_velocities(sys, drive, velocities):
    """The kernel's own direct solves of one operating point for a stack of velocity classes."""
    reference = replace(drive, omega_rf=0.0, delta_p=0.0, delta_rf=0.0)
    base = quantum._real(build_liouvillian(build_hamiltonian(sys, reference), sys))
    gen = quantum._detuned(base, [drive.delta_p, drive.delta_rf, drive.omega_rf])
    return _steady_rho21_many(gen + np.multiply.outer(velocities, quantum._generator(sys, v=1.0)))


class TestHamiltonian:
    def test_zero_drive_zero_matrix(self, cold_system):
        h = build_hamiltonian(cold_system, FieldDrive(), 0.0)
        assert np.all(h == 0)

    def test_cumulative_detuning_diagonal(self, cold_system):
        h = build_hamiltonian(cold_system, FieldDrive(delta_p=TWO_PI * 1e6), 0.0)
        assert h[0, 0] == 0
        assert np.allclose(np.diag(h)[1:], -TWO_PI * 1e6)

    def test_doppler_shift_magnitude(self, cold_system):
        # k_p v / 2pi = (10 m/s) / 852 nm = 11.737 MHz
        h = build_hamiltonian(cold_system, FieldDrive(), 10.0)
        expected = TWO_PI * 10.0 / 852e-9
        assert abs(abs(h[1, 1]) - expected) < 1e-6 * expected
        assert abs(expected / TWO_PI - 11.737e6) < 0.001e6

    def test_counter_propagating_signs(self, cold_system):
        h = build_hamiltonian(cold_system, FieldDrive(), 10.0)
        # probe shifted by -k_p v, coupling by +k_c v: cumulative second
        # detuning is -(k_p - k_c) v which is negative for k_p < k_c
        kp = TWO_PI / 852e-9
        kc = TWO_PI / 509e-9
        assert h[1, 1] == pytest.approx(kp * 10.0)
        assert h[2, 2] == pytest.approx((kp - kc) * 10.0)

    def test_couplings_and_hermiticity(self, cold_system):
        drive = FieldDrive(omega_p=1e6, omega_c=2e6, omega_rf=3e6)
        h = build_hamiltonian(cold_system, drive, 0.0)
        assert h[0, 1] == -0.5e6
        assert h[1, 2] == -1e6
        assert h[2, 3] == -1.5e6
        assert np.allclose(h, h.conj().T)


class TestLiouvillian:
    def test_trace_preserving_on_random_hermitian(self):
        # O(1) rates so the 1e-12 trace tolerance is meaningful
        sys = LadderSystem(gamma2=1.0, gamma3=0.3, gamma4=0.2, gamma_deph=0.5, n_atoms=1e13)
        drive = FieldDrive(omega_p=0.8, omega_c=1.1, omega_rf=0.7, delta_p=0.4)
        lam = build_liouvillian(build_hamiltonian(sys, drive, 0.0), sys)
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            x = a + a.conj().T
            out = (lam @ x.reshape(16)).reshape(4, 4)
            assert abs(np.trace(out)) < 1e-12

    def test_population_flow_topology(self):
        # decay channels 2->1, 3->2, 4->1 show up in the diagonal dynamics
        sys = LadderSystem(gamma2=1.0, gamma3=0.5, gamma4=0.25, gamma_deph=0.0, n_atoms=1e13)
        lam = build_liouvillian(np.zeros((4, 4), dtype=complex), sys)

        def flow(level):
            rho = np.zeros((4, 4), dtype=complex)
            rho[level, level] = 1.0
            return (lam @ rho.reshape(16)).reshape(4, 4).real

        f2 = flow(1)
        assert f2[0, 0] == pytest.approx(1.0) and f2[1, 1] == pytest.approx(-1.0)
        f3 = flow(2)
        assert f3[1, 1] == pytest.approx(0.5) and f3[2, 2] == pytest.approx(-0.5)
        f4 = flow(3)
        assert f4[0, 0] == pytest.approx(0.25) and f4[3, 3] == pytest.approx(-0.25)


class TestDensityMatrix:
    def test_nan_matrix_rejected(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        rho[1, 0] = math.nan
        with pytest.raises(InvariantViolation, match="non-finite"):
            DensityMatrix(rho)


class TestSteadyState:
    def test_no_excitation(self, cold_system):
        rho = solve(cold_system, FieldDrive())
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert np.allclose(rho.matrix, expected, atol=1e-12)

    def test_two_level_value(self, cold_system):
        gamma = cold_system.gamma2
        rho = solve(cold_system, FieldDrive(omega_p=gamma))
        assert rho.population(2) == pytest.approx(1 / 3, rel=1e-10)

    def test_two_level_oracle_grid(self, cold_system):
        gamma = cold_system.gamma2
        for omega in np.linspace(0.2 * gamma, 3 * gamma, 6):
            for delta in np.linspace(-3 * gamma, 3 * gamma, 7):
                rho = solve(cold_system, FieldDrive(omega_p=omega, delta_p=delta))
                analytic = (omega ** 2 / 4) / (delta ** 2 + gamma ** 2 / 4 + omega ** 2 / 2)
                assert rho.population(2) == pytest.approx(analytic, rel=1e-8)

    def test_eit_reduces_absorption(self, cold_system):
        weak = FieldDrive(omega_p=TWO_PI * 0.5e6)
        with_coupling = replace(weak, omega_c=TWO_PI * 10e6)
        rho_eit = solve(cold_system, with_coupling)
        rho_bare = solve(cold_system, weak)
        assert abs(rho_eit.matrix[1, 0].imag) < abs(rho_bare.matrix[1, 0].imag)

    def test_degenerate_system_raises(self):
        sys = LadderSystem(gamma2=0, gamma3=0, gamma4=0, gamma_deph=0, n_atoms=1e13)
        lam = build_liouvillian(build_hamiltonian(sys, FieldDrive(), 0.0), sys)
        with pytest.raises(SingularSystemError):
            steady_state(lam)

    def test_generator_that_breaks_hermiticity_rejected(self):
        # the real solve sees only Re U^H L U: this L passes its residual check
        sys = LadderSystem()
        lam = build_liouvillian(build_hamiltonian(sys, FieldDrive(omega_p=1e7, omega_c=2e7)), sys)
        lam[1, 1] += 1e6
        with pytest.raises(InvariantViolation, match="does not preserve Hermiticity"):
            steady_state(lam)

    def test_random_draws_physical(self, cold_system):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            drive = FieldDrive(
                omega_p=rng.uniform(0, 1e8),
                omega_c=rng.uniform(0, 1e8),
                omega_rf=rng.uniform(0, 1e8),
                delta_p=rng.uniform(-1e8, 1e8),
                delta_c=rng.uniform(-1e8, 1e8),
                delta_rf=rng.uniform(-1e8, 1e8),
            )
            sys = LadderSystem(
                gamma2=rng.uniform(1e6, 1e8),
                gamma3=rng.uniform(0, 1e6),
                gamma4=rng.uniform(0, 1e6),
                gamma_deph=rng.uniform(0, 1e7),
                n_atoms=1e13,
            )
            rho = solve(sys, drive, v=rng.uniform(-300, 300))
            # DensityMatrix construction enforces hermiticity/trace/PSD
            assert isinstance(rho, DensityMatrix)

    def test_batch_matches_single(self, warm_system, default_drive):
        velocities = np.array([-120.0, -3.0, 0.0, 7.5, 220.0])
        batch = rho21_at_velocities(warm_system, default_drive, velocities)
        for v, value in zip(velocities, batch):
            rho = solve(warm_system, default_drive, v)
            assert value == pytest.approx(rho.matrix[1, 0], abs=1e-14)


def fixed_rule_average(sys, drive, panels=2000, order=16):
    """<rho21> by 16-point Gauss-Legendre on uniform panels over +-7 sigma."""
    sigma = sys.v_thermal
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(-7 * sigma, 7 * sigma, panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x).ravel()
    weights = (half[:, None] * w).ravel()
    weights *= np.exp(-0.5 * (nodes / sigma) ** 2) / (math.sqrt(TWO_PI) * sigma)
    return sum(
        np.sum(weights[chunk] * rho21_at_velocities(sys, drive, nodes[chunk]))
        for chunk in np.array_split(np.arange(nodes.size), 16)
    )


class TestDopplerAverage:
    def test_cold_floor_returns_center_value(self, cold_system, default_drive):
        result = doppler_average(cold_system, default_drive)
        assert result == kernel_rho21_at_velocities(cold_system, default_drive, np.zeros(1))[0]
        assert result == pytest.approx(solve(cold_system, default_drive).rho21, abs=1e-14)

    def test_matches_fixed_quadrature(self, warm_system, default_drive):
        rng = np.random.default_rng(7)
        for _ in range(3):
            drive = replace(
                default_drive,
                delta_p=rng.uniform(-TWO_PI * 30e6, TWO_PI * 30e6),
                omega_rf=rng.uniform(0, TWO_PI * 20e6),
                delta_rf=rng.uniform(-TWO_PI * 10e6, TWO_PI * 10e6),
            )
            exact = doppler_average(warm_system, drive)
            reference = fixed_rule_average(warm_system, drive)
            assert abs(exact - reference) <= 1e-9 * abs(reference)

    def test_self_check_catches_mismatch(self, warm_system, default_drive, monkeypatch):
        direct = quantum._steady_rho21_many
        monkeypatch.setattr(quantum, "_steady_rho21_many", lambda *a: direct(*a) * (1 + 1e-6))
        with pytest.raises(NonConvergenceError, match="cond"):
            doppler_average(warm_system, default_drive)
        with pytest.raises(NonConvergenceError, match="cond"):
            susceptibility_batch(warm_system, default_drive, TWO_PI * np.linspace(-20e6, 20e6, 7))

    def test_self_check_names_worst_detuning(self, warm_system, default_drive, monkeypatch):
        direct = quantum._steady_rho21_many

        def perturbed(lam):
            out = direct(lam)
            out[2] *= 1 + 1e-7
            out[3] *= 1 + 1e-6       # the worst point: +5 MHz
            return out

        monkeypatch.setattr(quantum, "_steady_rho21_many", perturbed)
        grid = TWO_PI * np.array([-10e6, -5e6, 0.0, 5e6, 10e6])
        with pytest.raises(NonConvergenceError, match=r"at probe detuning 5e\+06 Hz"):
            susceptibility_batch(warm_system, default_drive, grid)

    @pytest.mark.parametrize("n, stacks", [(1, 1), (CHUNK, 1), (CHUNK + 1, 2)])
    def test_self_check_solves_four_velocities_per_stack(self, warm_system, default_drive, monkeypatch,
                                                         n, stacks):
        # +-sigma and +-3 sigma; the pole form's own solve is the v = 0 check
        direct, calls = quantum._steady_rho21_many, []
        monkeypatch.setattr(quantum, "_steady_rho21_many", lambda lam: calls.append(lam.shape) or direct(lam))
        quantum._mean_rho21(warm_system, default_drive, TWO_PI * np.linspace(-20e6, 20e6, n), 0.0)
        assert len(calls) == 4 * stacks

    def test_negative_temperature_rejected(self):
        with pytest.raises(InvariantViolation):
            LadderSystem(temperature=-1.0, n_atoms=1e13)

    def test_nonfinite_system_rejected(self):
        with pytest.raises(InvariantViolation, match="gamma2"):
            LadderSystem(gamma2=math.inf)


def pole_expansion_oracle(sys, drive):
    """Velocity-pole expansion of one operating point, from its complex Liouvillian."""
    base = build_liouvillian(build_hamiltonian(sys, drive, 0.0), sys)
    d_v = velocity_diagonal(sys)
    moving = np.flatnonzero(d_v)
    sol = complex_trace_solve(base, moving)
    x0, inv_cols = sol[:, 0], sol[:, 1:]
    d_p = d_v[moving] / np.max(np.abs(base))
    poles, vecs = np.linalg.eig(d_p[:, None] * inv_cols[moving, :])
    alpha = (inv_cols[4, :] @ vecs) * np.linalg.solve(vecs, d_p * x0[moving])
    return x0[4] - np.sum(alpha * quantum._mean_pole_term(poles, sys.v_thermal))


def random_detunings(n, seed):
    rng = np.random.default_rng(seed)
    delta_p = rng.uniform(-TWO_PI * 30e6, TWO_PI * 30e6, n)
    return delta_p, rng.uniform(-TWO_PI * 10e6, TWO_PI * 10e6, n)


def max_rel_diff(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)) / np.abs(b)))


# the cold drive of configs/at_calibration.cfg, RF off
ATCAL_DRIVE = FieldDrive(omega_p=2.5132741228718345e6, omega_c=7.5398223686155035e6)


def per_point_rho21(sys, drive, delta_p, delta_rf):
    """rho21 of `steady_state` on a Liouvillian assembled afresh at each point."""
    dissipator = build_liouvillian(np.zeros((4, 4)), sys)
    eye = np.eye(4)
    out = []
    for p, r in zip(np.ravel(delta_p), np.ravel(np.broadcast_to(delta_rf, np.shape(delta_p)))):
        h = build_hamiltonian(sys, replace(drive, delta_p=p, delta_rf=r))
        out.append(steady_state(dissipator - 1j * (np.kron(h, eye) - np.kron(eye, h.T))).rho21)
    return np.reshape(out, np.shape(delta_p))


class TestBatchedKernel:
    @pytest.mark.parametrize("n", [1, CHUNK, CHUNK + 1])
    def test_cold_matches_per_point_solves(self, cold_system, n):
        drive = FieldDrive(omega_p=TWO_PI * 0.4e6, omega_c=TWO_PI * 1.2e6, omega_rf=TWO_PI * 20e6)
        delta_p, delta_rf = random_detunings(n, seed=n)
        batch = quantum._mean_rho21(cold_system, drive, delta_p, delta_rf)
        oracle = [solve(cold_system, replace(drive, delta_p=p, delta_rf=r)).rho21
                  for p, r in zip(delta_p, delta_rf)]
        assert max_rel_diff(batch, oracle) <= 1e-12

    @pytest.mark.parametrize("n", [1, CHUNK, CHUNK + 1])
    def test_warm_matches_per_point_expansion(self, warm_system, default_drive, n):
        drive = replace(default_drive, omega_rf=TWO_PI * 5e6)
        delta_p, delta_rf = random_detunings(n, seed=100 + n)
        batch = quantum._mean_rho21(warm_system, drive, delta_p, delta_rf)
        oracle = [pole_expansion_oracle(warm_system, replace(drive, delta_p=p, delta_rf=r))
                  for p, r in zip(delta_p, delta_rf)]
        assert max_rel_diff(batch, oracle) <= 1e-12

    def test_warm_matches_fixed_quadrature_in_a_batch(self, warm_system, default_drive):
        drive = replace(default_drive, omega_rf=TWO_PI * 5e6)
        delta_p, delta_rf = random_detunings(2, seed=3)
        batch = quantum._mean_rho21(warm_system, drive, delta_p, delta_rf)
        oracle = [fixed_rule_average(warm_system, replace(drive, delta_p=p, delta_rf=r))
                  for p, r in zip(delta_p, delta_rf)]
        assert max_rel_diff(batch, oracle) <= 1e-9

    def test_detunings_broadcast(self, warm_system, default_drive):
        grid = TWO_PI * np.linspace(-20e6, 20e6, 9)
        rf = TWO_PI * np.array([-2e6, 0.0, 3e6])
        chi = susceptibility_batch(warm_system, default_drive, grid, rf[:, None])
        assert chi.shape == (3, 9)
        for row, d_rf in zip(chi, rf):
            drive = replace(default_drive, delta_rf=d_rf)
            assert max_rel_diff(row, susceptibility_batch(warm_system, drive, grid)) <= 1e-15

    def test_single_point_is_a_size_one_batch(self, warm_system, default_drive):
        drive = replace(default_drive, delta_p=TWO_PI * 3e6, delta_rf=TWO_PI * 1e6)
        assert doppler_average(warm_system, drive) == quantum._mean_rho21(
            warm_system, replace(drive, delta_rf=0.0), [drive.delta_p], [drive.delta_rf])[0]

    @pytest.mark.parametrize("e_rf", [0.0, 0.9, 2.7])
    def test_cold_probe_scan_through_the_doublet(self, cold_system, e_rf):
        # one RF detuning: a single group, expanded along the probe detuning
        drive = replace(ATCAL_DRIVE, omega_rf=cold_system.mu_rf * e_rf / HBAR)
        grid = TWO_PI * np.linspace(-35e6, 35e6, 1401)
        batch = quantum._mean_rho21(cold_system, drive, grid, 0.0)
        assert max_rel_diff(batch, per_point_rho21(cold_system, drive, grid, 0.0)) <= 1e-12

    @pytest.mark.parametrize("span_hz", [100e9, 10e12, 100e12])
    def test_cold_probe_scan_exact_at_any_span(self, cold_system, span_hz):
        # far from resonance rho21 -> 0 along delta_p; the pole form reaches it
        # without cancelling a constant against its pole terms
        drive = replace(ATCAL_DRIVE, omega_rf=cold_system.mu_rf * 1.8 / HBAR)
        grid = TWO_PI * np.linspace(-span_hz, span_hz, 20001)
        batch = quantum._mean_rho21(cold_system, drive, grid, 0.0)
        probe = shift_diagonal(build_hamiltonian(cold_system, FieldDrive(delta_p=1.0)))
        oracle = np.concatenate([oracle_rho21(cold_system, drive, probe, chunk)
                                 for chunk in np.array_split(grid, 10)])
        assert max_rel_diff(batch, oracle) <= 1e-13

    def test_cold_probe_by_rf_grid(self, cold_system, monkeypatch):
        # 17 probe detunings x 121 RF detunings: 17 groups, expanded along delta_rf
        drive = replace(ATCAL_DRIVE, omega_rf=cold_system.mu_rf * 1.8 / HBAR)
        probe = TWO_PI * (2e6 + 10e6 * np.arange(-8, 9))[:, None]
        rf = TWO_PI * np.linspace(-6e6, 6e6, 121)[None, :]
        expansions = []
        pole_form = quantum._pole_form
        monkeypatch.setattr(quantum, "_pole_form", lambda *a: expansions.append(1) or pole_form(*a))
        batch = quantum._mean_rho21(cold_system, drive, probe, rf)
        assert batch.shape == (17, 121) and len(expansions) == 17
        oracle = per_point_rho21(cold_system, drive, *np.broadcast_arrays(probe, rf))
        assert max_rel_diff(batch, oracle) <= 1e-12

    def test_cold_self_check_catches_mismatch(self, cold_system, monkeypatch):
        direct = quantum._steady_rho21_many

        def perturbed(lam):
            out = direct(lam)
            out[:-1] *= 1 + 1e-7
            out[-1] *= 1 + 1e-6      # the group's last point, +5 MHz, is checked last
            return out

        monkeypatch.setattr(quantum, "_steady_rho21_many", perturbed)
        grid = TWO_PI * np.array([-10e6, -5e6, 0.0, 5e6])
        with pytest.raises(NonConvergenceError, match=r"at probe detuning 5e\+06 Hz.*cond"):
            quantum._mean_rho21(cold_system, ATCAL_DRIVE, grid, 0.0)

    def test_cold_self_check_fails_on_nan(self, cold_system, monkeypatch):
        direct = quantum._steady_rho21_many

        def poisoned(lam):
            out = direct(lam)
            out[0] = math.nan
            return out

        monkeypatch.setattr(quantum, "_steady_rho21_many", poisoned)
        with pytest.raises(NonConvergenceError, match="cond"):
            quantum._mean_rho21(cold_system, ATCAL_DRIVE, TWO_PI * np.linspace(-35e6, 35e6, 1401), 0.0)

    @pytest.mark.parametrize("system", ["cold_system", "warm_system"])
    def test_empty_batch(self, system, default_drive, request):
        sys = request.getfixturevalue(system)
        assert quantum._mean_rho21(sys, default_drive, np.empty((0, 3)), 0.0).shape == (0, 3)

    def test_nonfinite_detuning_rejected(self, cold_system):
        drive = FieldDrive(omega_p=TWO_PI * 1e6)
        with pytest.raises(InvariantViolation, match="finite"):
            susceptibility_batch(cold_system, drive, np.array([0.0, math.nan]))


class TestRealBasis:
    """The kernel solves R = U^H L U in the orthonormal Hermitian basis; checked against complex L."""

    @staticmethod
    def random_liouvillians(n, seed, gamma2_min=0.0):
        rng = np.random.default_rng(seed)
        for _ in range(n):
            # some rates exactly zero
            rates = rng.uniform(0.0, 1e7, 4) * (rng.random(4) < 0.7)
            rates[0] = max(rates[0], gamma2_min)
            sys = LadderSystem(gamma2=rates[0], gamma3=rates[1], gamma4=rates[2],
                               gamma_deph=rates[3], n_atoms=1e13)
            drive = FieldDrive(*rng.uniform(0.0, 1e8, 3), *rng.uniform(-1e8, 1e8, 3))
            yield build_liouvillian(build_hamiltonian(sys, drive, rng.normal(scale=300.0)), sys)

    def test_basis_is_unitary_and_generators_real(self):
        u = quantum._U
        assert np.max(np.abs(u.conj().T @ u - np.eye(16))) <= 1e-15
        for lam in self.random_liouvillians(200, seed=20):
            full = u.conj().T @ lam @ u
            top = np.max(np.abs(lam))
            assert np.max(np.abs(full.imag)) <= 1e-16 * top
            r = quantum._real(lam)
            assert np.max(np.abs(u @ r @ u.conj().T - lam)) <= 1e-15 * top
            # the residual's scale is never above max|L|
            assert 0.5 * np.max(np.abs(r)) <= top

    def test_generators_match_complex_derivatives(self, warm_system):
        h_probe = build_hamiltonian(warm_system, FieldDrive(delta_p=1.0))
        h_rf = build_hamiltonian(warm_system, FieldDrive(delta_rf=1.0))
        rabi = [build_liouvillian(build_hamiltonian(warm_system, FieldDrive(omega_rf=w)), warm_system)
                for w in (1.0, 0.0)]
        for generator, lam, moved in [
                (quantum._GENERATORS[0], np.diag(shift_diagonal(h_probe)), 6),
                (quantum._GENERATORS[1], np.diag(shift_diagonal(h_rf)), 6),
                (quantum._generator(warm_system, v=1.0), np.diag(velocity_diagonal(warm_system)), 10),
                (quantum._GENERATORS[2], rabi[0] - rabi[1], 11)]:
            expected = quantum._real(lam)
            assert np.max(np.abs(generator - expected)) <= 1e-15 * np.max(np.abs(expected))
            assert np.count_nonzero(np.any(generator, axis=0)) == moved
        # a detuning or the velocity rotates each coherence pair it shifts: one 2x2 block each
        for generator in (quantum._GENERATORS[0], quantum._generator(warm_system, v=1.0)):
            pairs = np.flatnonzero(np.any(generator, axis=0)).reshape(-1, 2)
            assert np.all(pairs[:, 1] == pairs[:, 0] + 1) and np.all(pairs[:, 0] % 2 == 0)
            assert np.array_equal(generator[pairs[:, 0], pairs[:, 1]], -generator[pairs[:, 1], pairs[:, 0]])
            assert np.count_nonzero(generator) == pairs.size

    def test_steady_state_matches_complex_oracle(self):
        # a decaying probe level keeps the system well posed (gamma2 = 0 draws
        # are near-degenerate, and there two good solves differ by up to 1e-8)
        for lam in self.random_liouvillians(200, seed=21, gamma2_min=1e6):
            rho = steady_state(lam).matrix
            assert np.all(np.diag(rho).imag == 0) and np.array_equal(rho, rho.conj().T)
            oracle = complex_trace_solve(lam)[:, 0].reshape(4, 4)
            assert np.max(np.abs(rho - oracle)) <= 1e-12

    @pytest.mark.parametrize("system", ["cold_system", "warm_system"])
    def test_mean_rho21_matches_complex_oracle(self, system, default_drive, request):
        sys = request.getfixturevalue(system)
        delta_p, delta_rf = random_detunings(40, seed=22)
        omega_rf = np.random.default_rng(23).choice(TWO_PI * np.array([0.0, 4e6, 11e6]), 40)
        batch = quantum._mean_rho21(sys, default_drive, delta_p, delta_rf, omega_rf)
        drives = [replace(default_drive, delta_p=p, delta_rf=r, omega_rf=w)
                  for p, r, w in zip(delta_p, delta_rf, omega_rf)]
        if system == "warm_system":
            oracle = [pole_expansion_oracle(sys, d) for d in drives]
        else:
            oracle = [oracle_rho21(sys, d, velocity_diagonal(sys), np.zeros(1))[0] for d in drives]
        assert max_rel_diff(batch, oracle) <= 1e-12


def weak_probe_average(sys, drive, delta_p, delta_rf=0.0, omega_rf=0.0):
    """Maxwell average of the weak-probe ladder rho21, with the RF dressing |3>-|4>.

    rho21(v) = (i Omega_p / 2) (a3 a4 + Omega_rf^2 / 4)
               / (a2 (a3 a4 + Omega_rf^2 / 4) + (Omega_c^2 / 4) a4)
    with a2 = gamma21 - i d2, a3 = gamma31 - i d3, a4 = gamma41 - i d4,
    d2 = delta_p - k_p v, d3 = d2 + delta_c + k_c v, d4 = d3 + delta_rf,
    gamma21 = Gamma2 / 2, gamma31 = Gamma3 / 2 + gamma_deph and gamma41 =
    Gamma4 / 2 + gamma_deph.  With the RF off it is (i Omega_p / 2) / (a2 +
    (Omega_c^2 / 4) / a3).  As N(v) / D(v) with D cubic in v it has three
    simple poles v_k; <1 / (v - v_k)> over a Gaussian of standard deviation
    sigma is Z(zeta_k) / (sqrt(2) sigma), Z the plasma-dispersion function,
    so the average is three Faddeeva terms (Gea-Banacloche et al., PRA 51,
    576 (1995)).  No code is shared with the Woodbury/eig expansion.
    """
    kp, kc = sys.k_probe, sys.k_coupling
    gamma21 = sys.gamma2 / 2
    gamma31 = sys.gamma3 / 2 + sys.gamma_deph
    gamma41 = sys.gamma4 / 2 + sys.gamma_deph
    out = []
    for dp in np.atleast_1d(delta_p):
        # each factor a_k as the polynomial b_k v + a_k(0) (np.poly* order)
        a2 = np.array([1j * kp, gamma21 - 1j * dp])
        a3 = np.array([-1j * (kc - kp), gamma31 - 1j * (dp + drive.delta_c)])
        a4 = np.array([-1j * (kc - kp), gamma41 - 1j * (dp + drive.delta_c + delta_rf)])
        dressed = np.polyadd(np.polymul(a3, a4), [omega_rf ** 2 / 4])
        den = np.polyadd(np.polymul(a2, dressed), drive.omega_c ** 2 / 4 * a4)
        slope = np.polyder(den)
        total = 0.0
        for v_k in np.roots(den):
            residue = 0.5j * drive.omega_p * np.polyval(dressed, v_k) / np.polyval(slope, v_k)
            zeta = v_k / (math.sqrt(2) * sys.v_thermal)
            s = 1.0 if zeta.imag >= 0 else -1.0
            plasma = 1j * s * math.sqrt(math.pi) * wofz(s * zeta)
            total += residue * plasma / (math.sqrt(2) * sys.v_thermal)
        out.append(total)
    return np.array(out)


class TestFaddeeva:
    def test_matches_wofz_on_the_closed_upper_half_plane(self):
        # log-polar: 10 moduli per decade from 1e-3 to 1e6 at 11 angles inside
        # (0, pi), both halves of the real axis, and z = 0
        r = np.geomspace(1e-3, 1e6, 91)
        theta = np.linspace(0.0, math.pi, 13)[1:-1]
        z = np.concatenate([(r[:, None] * np.exp(1j * theta)).ravel(), r, -r, [0.0]]).astype(complex)
        assert np.all(z.imag >= 0)
        ref = wofz(z)
        assert np.max(np.abs(quantum._faddeeva(z) - ref) / np.abs(ref)) <= 5e-14


class TestWeakProbeOracle:
    def test_error_scales_as_probe_rabi_squared(self, warm_system, default_drive):
        # the default warm coupling (7 MHz, +1 MHz detuned) with the RF off;
        # the oracle is first order in Omega_p, so the relative error of the
        # full steady state against it falls 100x per decade of Omega_p
        delta_p = TWO_PI * np.linspace(-30e6, 30e6, 13)
        errors = []
        for omega_p in TWO_PI * np.array([0.5e6, 0.05e6, 0.005e6]):
            drive = replace(default_drive, omega_p=omega_p, omega_rf=0.0)
            full = quantum._mean_rho21(warm_system, drive, delta_p, 0.0)
            oracle = weak_probe_average(warm_system, drive, delta_p)
            errors.append(np.max(np.abs(full - oracle)) / np.max(np.abs(oracle)))
        ratios = [errors[0] / errors[1], errors[1] / errors[2]]
        assert all(80 < r < 125 for r in ratios), (errors, ratios)

    def test_error_scales_as_probe_rabi_squared_with_the_rf_on(self, warm_system, default_drive):
        # the same coupling, dressed by the RF at three Rabi frequencies and
        # three RF detunings of both signs: each case's relative error falls
        # 100x per decade of Omega_p, which a wrong sign of delta_rf, Doppler
        # shift on |4> or rho41 damping in either model would stop.  |4>
        # decays at its own rate, so Gamma4 cannot stand in for Gamma3.
        sys = replace(warm_system, gamma4=TWO_PI * 0.5e6)
        delta_p = TWO_PI * np.linspace(-30e6, 30e6, 13)
        cases = [(TWO_PI * r, TWO_PI * w) for w in (4e6, 11e6, 40e6) for r in (-5e6, 0.0, 3e6)]
        errors = []
        for omega_p in TWO_PI * np.array([0.5e6, 0.05e6, 0.005e6]):
            drive = replace(default_drive, omega_p=omega_p)
            row = []
            for delta_rf, omega_rf in cases:
                full = quantum._mean_rho21(sys, drive, delta_p, delta_rf, omega_rf)
                oracle = weak_probe_average(sys, drive, delta_p, delta_rf, omega_rf)
                row.append(np.max(np.abs(full - oracle)) / np.max(np.abs(oracle)))
            errors.append(row)
        errors = np.array(errors)
        ratios = errors[:-1] / errors[1:]
        assert np.all((80 < ratios) & (ratios < 125)), (errors, ratios)
        assert np.all(errors[-1] < 1e-5), errors


class TestSusceptibility:
    def test_empty_cell(self, cold_system):
        sys = replace(cold_system, n_atoms=0.0)
        drive = FieldDrive(omega_p=TWO_PI * 1e6)
        assert susceptibility_batch(sys, drive, drive.delta_p) == 0

    def test_requires_probe(self, cold_system):
        with pytest.raises(InvariantViolation):
            susceptibility_batch(cold_system, FieldDrive(), 0.0)

    def test_nonfinite_drive_rejected(self, cold_system):
        with pytest.raises(InvariantViolation, match="omega_c"):
            susceptibility_batch(cold_system, FieldDrive(omega_p=4.2e7, omega_c=math.nan), 0.0)

    def test_wings_monotone(self, cold_system):
        gamma = cold_system.gamma2
        drive = FieldDrive(omega_p=TWO_PI * 1e6)
        detunings = np.linspace(3 * gamma, 30 * gamma, 12)
        mags = [abs(susceptibility_batch(cold_system, drive, d)) for d in detunings]
        assert np.all(np.diff(mags) < 0)

    def test_absorption_peaks_on_resonance(self, cold_system):
        drive = FieldDrive(omega_p=TWO_PI * 1e6)
        grid = TWO_PI * np.linspace(-20e6, 20e6, 41)
        ims = [susceptibility_batch(cold_system, drive, d).imag for d in grid]
        assert np.argmax(ims) == 20

    def test_passivity_random_points(self, warm_system, default_drive):
        rng = np.random.default_rng(5)
        for _ in range(4):
            drive = replace(
                default_drive,
                delta_p=rng.uniform(-TWO_PI * 20e6, TWO_PI * 20e6),
                omega_rf=rng.uniform(0, TWO_PI * 10e6),
            )
            chi = susceptibility_batch(warm_system, drive, drive.delta_p)
            assert chi.imag >= -1e-12 * max(1.0, abs(chi))


class TestPhysicality:
    """Random drives, warm and cold: a passive medium and a physical steady state."""

    COLD = LadderSystem(temperature=1e-9, n_atoms=1e13)
    PROBE_GRID = TWO_PI * np.linspace(-50e6, 50e6, 5)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        warm=st.booleans(),
        omega_p=st.floats(1e5, 1e8),
        omega_c=st.floats(0.0, 1e8),
        omega_rf=st.floats(0.0, 1e8),
        delta_p=st.floats(-1e8, 1e8),
        delta_c=st.floats(-1e8, 1e8),
        delta_rf=st.floats(-1e8, 1e8),
    )
    def test_random_drive(self, warm, omega_p, omega_c, omega_rf, delta_p, delta_c, delta_rf):
        sys = LadderSystem() if warm else self.COLD
        drive = FieldDrive(omega_p=omega_p, omega_c=omega_c, omega_rf=omega_rf,
                           delta_p=delta_p, delta_c=delta_c, delta_rf=delta_rf)
        chi = susceptibility_batch(sys, drive, np.r_[delta_p, self.PROBE_GRID])
        assert np.all(np.isfinite(chi)) and np.all(chi.imag >= -1e-12 * np.maximum(1.0, np.abs(chi)))
        rho = solve(sys, drive)  # DensityMatrix construction runs its physicality checks
        cold = doppler_average(self.COLD, drive)
        assert abs(rho.rho21 - cold) <= 1e-10 * abs(cold)


class TestAtStructure:
    def test_two_transparency_maxima_at_dressed_positions(self, cold_system):
        omega_rf = TWO_PI * 20e6
        drive = FieldDrive(omega_p=TWO_PI * 0.5e6, omega_c=TWO_PI * 4e6, omega_rf=omega_rf)
        grid = TWO_PI * np.linspace(-20e6, 20e6, 401)
        transparency = np.array(
            [-solve(cold_system, replace(drive, delta_p=d)).matrix[1, 0].imag for d in grid]
        )
        peaks, _ = find_peaks(
            transparency, prominence=0.02 * (transparency.max() - transparency.min())
        )
        assert peaks.size == 2
        # dressed 3<->4 block eigenvalues set the transparency positions
        block = np.array([[0.0, -omega_rf / 2], [-omega_rf / 2, 0.0]])
        dressed = np.linalg.eigvalsh(block)
        expected = np.sort(-dressed)  # detunings matching the dressed energies
        measured = np.sort(grid[peaks])
        assert np.all(np.abs(measured - expected) < 0.05 * omega_rf)


class TestVaporDensity:
    def test_room_temperature_value(self):
        # Taylor-Langmuir solid-phase fit at 294 K
        assert cs_vapor_density(294.0) == pytest.approx(3.21e16, rel=0.05)

    def test_monotone_in_temperature(self):
        temps = [280.0, 294.0, 305.0, 330.0]
        densities = [cs_vapor_density(t) for t in temps]
        assert np.all(np.diff(densities) > 0)

    def test_default_density_filled(self):
        sys = LadderSystem()
        assert sys.n_atoms == pytest.approx(cs_vapor_density(294.0))


def kron_liouvillian(h, sys):
    """The Liouvillian by its np.kron formula, term by term in the order of `_dissipator`."""
    eye = np.eye(4)
    d = np.zeros((16, 16), dtype=complex)
    for rate, target, source in ((sys.gamma2, 0, 1), (sys.gamma3, 1, 2), (sys.gamma4, 0, 3)):
        c = np.zeros((4, 4))
        c[target, source] = math.sqrt(rate)
        cdc = c.T @ c
        d += np.kron(c, c)
        d -= 0.5 * np.kron(cdc, eye)
        d -= 0.5 * np.kron(eye, cdc.T)
    damp = np.zeros(16)
    for i in range(4):
        for j in range(4):
            if i != j and (i >= 2 or j >= 2):
                damp[4 * i + j] = -sys.gamma_deph
    d += np.diag(damp).astype(complex)
    return -1j * (np.kron(h, eye) - np.kron(eye, h.T)) + d


class TestRabiFrequencyRows:
    """One batched call at several RF Rabi frequencies, bit for bit one call per frequency."""

    def test_liouvillian_matches_kron_formula(self):
        rng = np.random.default_rng(16)
        for _ in range(25):
            # some rates exactly zero, so signed zeros are compared too
            rates = rng.uniform(0.0, 1e7, 4) * (rng.random(4) < 0.8)
            sys = LadderSystem(gamma2=rates[0], gamma3=rates[1], gamma4=rates[2],
                               gamma_deph=rates[3], n_atoms=1e13)
            drive = FieldDrive(*rng.uniform(0.0, 1e8, 3), *rng.uniform(-1e8, 1e8, 3))
            h = build_hamiltonian(sys, drive, rng.normal(scale=300.0))
            assert build_liouvillian(h, sys).tobytes() == kron_liouvillian(h, sys).tobytes()

    @pytest.mark.parametrize("zeros", [(0.0, -0.0, 0), (-0.0, 0, 0.0), (0, 0.0, -0.0)])
    def test_cached_dissipator_matches_kron_formula_for_equal_rates(self, zeros):
        # 0, 0.0 and -0.0 share one cache entry, whichever of them fills it
        h = build_hamiltonian(LadderSystem(n_atoms=1e13), FieldDrive(1e7, 2e7, 3e7, 1e6, -2e6, 5e5))
        quantum._dissipator.cache_clear()
        for z in zeros:
            sys = LadderSystem(gamma2=z, gamma3=1.4e6, gamma4=z, gamma_deph=z, n_atoms=1e13)
            assert build_liouvillian(h, sys).tobytes() == kron_liouvillian(h, sys).tobytes()
        assert quantum._dissipator.cache_info().currsize == 1
        assert not quantum._dissipator(0.0, 1.4e6, 0.0, 0.0).flags.writeable

    def test_cold_rows_match_per_row_calls(self, cold_system):
        # 3 fields x 17 probe x 121 RF detunings: 51 groups, so the checks span two pools
        omega_rf = cold_system.mu_rf * np.array([0.9, 1.8, 2.7]) / HBAR
        probe = TWO_PI * (2e6 + 10e6 * np.arange(-8, 9))[:, None]
        rf = TWO_PI * np.linspace(-6e6, 6e6, 121)[None, :]
        batch = susceptibility_batch(cold_system, ATCAL_DRIVE, probe, rf, omega_rf[:, None, None])
        rows = [susceptibility_batch(cold_system, replace(ATCAL_DRIVE, omega_rf=w), probe, rf)
                for w in omega_rf]
        assert batch.shape == (3, 17, 121) and np.array_equal(batch, rows)

    def test_warm_rows_match_per_row_calls(self, warm_system, default_drive):
        # 3 x 45 points: most stacks of CHUNK hold points of two rows
        omega_rf = TWO_PI * np.array([0.0, 5e6, 12e6])
        grid = TWO_PI * np.linspace(-30e6, 30e6, 45)
        batch = susceptibility_batch(warm_system, default_drive, grid, omega_rf=omega_rf[:, None])
        rows = [susceptibility_batch(warm_system, replace(default_drive, omega_rf=w), grid)
                for w in omega_rf]
        assert np.array_equal(batch, rows)

    def test_negative_rabi_frequency_rejected(self, cold_system):
        with pytest.raises(InvariantViolation, match="omega_rf"):
            susceptibility_batch(cold_system, ATCAL_DRIVE, [0.0, 1e6], omega_rf=[[1e6], [-1e6]])

    def test_overflowing_probe_dipole_named(self, cold_system):
        sys = replace(cold_system, mu12=1e300)
        with pytest.raises(DomainError, match="mu12 = 1e\\+300"):
            susceptibility_batch(sys, ATCAL_DRIVE, [0.0])


class TestFloatingPointPolicy:
    """inf and NaN propagate silently inside the kernel, and its checks raise the one error."""

    WARM_DRIVE = FieldDrive(omega_p=TWO_PI * 6.7e6, omega_c=TWO_PI * 7.0e6, delta_c=TWO_PI * 1e6)

    @pytest.mark.filterwarnings("error")
    def test_steady_state_of_an_infinite_liouvillian(self):
        with pytest.raises(SingularSystemError, match="residual nan"):
            steady_state(np.full((16, 16), np.inf))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("system", [{"lambda_probe": 5e-324}, {"temperature": 1e308}],
                             ids=["lambda_probe", "temperature"])
    def test_doppler_average_of_an_infinite_doppler_shift(self, system):
        with pytest.raises(SingularSystemError, match="residual nan"):
            doppler_average(LadderSystem(**system), self.WARM_DRIVE)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("system, drive", [({"n_atoms": 1e308}, {}), ({}, {"omega_p": 1e-300})],
                             ids=["n_atoms", "omega_p"])
    def test_susceptibility_that_overflows(self, system, drive):
        with pytest.raises(NonConvergenceError, match="susceptibility is not finite at 3 of 3"):
            susceptibility_batch(LadderSystem(**system), replace(self.WARM_DRIVE, **drive), np.zeros(3))
