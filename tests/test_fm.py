import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.special import jv

from conftest import asymmetric_medium, bessel_series, symmetric_medium
from rydfm import fm
from rydfm.errors import (
    EvenHarmonicError,
    InvariantViolation,
    OutOfGridError,
    TruncationError,
)
from rydfm.fm import (
    BESSEL_CLOSURE_TOL,
    FmConfig,
    RamParams,
    SidebandSet,
    apply_ram,
    dc_power,
    demodulate,
    index_from_dbm,
    propagate,
    ram_mod_depth,
    ram_photocurrent,
    sidebands,
)
from rydfm.pipelines import (
    _sideband_grid, drive_at_field, fm_probe_scan, fm_response, rf_detuning_scan, sideband_spectrum,
)
from rydfm.quantum import CHUNK, FieldDrive, LadderSystem
from rydfm.scenario import load_scenario
from rydfm.spectroscopy import scan_probe

TWO_PI = 2 * math.pi
OMEGA_M = TWO_PI * 10e6


def time_domain_lockin(sb, lo_phase, n_time=256):
    """Lock-in output and DC power from |E(t)|^2 sampled over one period.

    Independent oracle for the closed forms: twice the period average of
    photocurrent * cos(omega_m t + lo_phase), and the period average of the
    photocurrent, for each carrier row.  Exact while n_time > 4 n_max.
    """
    theta = 2 * np.pi * np.arange(n_time) / n_time
    field = np.atleast_2d(sb.amps) @ np.exp(1j * np.outer(sb.orders, theta))
    current = np.abs(field) ** 2
    return 2.0 * np.mean(current * np.cos(theta + lo_phase), axis=-1), np.mean(current, axis=-1)


def first_order_signal(spec, carrier, beta, lo_phase):
    """Closed-form first-order FM spectroscopy output (independent oracle)."""
    dets = carrier + np.array([-1.0, 0.0, 1.0]) * OMEGA_M
    t = np.interp(dets, spec.grid, spec.amp_transmission)
    phi = np.interp(dets, spec.grid, spec.phase)
    response = t * np.exp(1j * phi)
    b1 = bessel_series(0, beta) * bessel_series(1, beta) * (
        response[2] * np.conj(response[1]) - response[1] * np.conj(response[0])
    )
    return 2 * (b1 * np.exp(-1j * lo_phase)).real


class TestSidebands:
    def test_zero_index_pure_carrier(self):
        sb = sidebands(0.0, 4)
        assert sb.amps[sb.orders == 0] == [1.0]
        assert all(sb.amps[sb.orders == n] == [0.0] for n in (-2, -1, 1, 2))

    def test_first_order_bessel_value(self):
        sb = sidebands(0.2, 8)
        oracle = bessel_series(1, 0.2)
        assert oracle == pytest.approx(0.0995, abs=1e-4)
        assert sb.amps[sb.orders == 1].real == pytest.approx([oracle], rel=1e-10)

    def test_negative_order_parity(self):
        sb = sidebands(0.7, 6)
        for n in range(1, 7):
            assert sb.amps[sb.orders == -n] == pytest.approx((-1) ** n * sb.amps[sb.orders == n])

    def test_closure_across_indices(self):
        for beta in (0.1, 0.5, 1.0, 2.0):
            assert dc_power(sidebands(beta, 8)) == pytest.approx(1.0, abs=1e-9)

    def test_truncation_error(self):
        with pytest.raises(TruncationError):
            sidebands(2.0, 1)
        with pytest.raises(TruncationError):
            FmConfig(beta=2.0, n_max=1)

    @pytest.mark.parametrize("orders", [[-1, 1, 2], [1, 0, -1], [0, 0, 1]])
    def test_non_consecutive_orders_rejected(self, orders):
        # the lock-in beat pairs each order with its neighbour
        with pytest.raises(InvariantViolation, match="consecutive"):
            SidebandSet(orders=orders, amps=np.ones(np.shape(orders)[-1]))

    def test_closure_helper(self):
        # the power the truncation check reads is that of the set it builds
        assert closure(0.7, 8) == dc_power(sidebands(0.7, 8))
        assert closure(0.7, 8) == pytest.approx(1.0, abs=1e-12)

    def test_nan_index_rejected(self):
        with pytest.raises(TruncationError, match="nan"):
            sidebands(math.nan, 8)
        with pytest.raises(TruncationError, match="nan"):
            FmConfig(beta=math.nan)

    @pytest.mark.parametrize("field", ["omega_m", "lo_phase"])
    def test_nonfinite_config_rejected(self, field):
        for value in (math.nan, math.inf):
            with pytest.raises(InvariantViolation, match=field):
                FmConfig(**{field: value})


def closure(beta: float, n_max: int) -> float:
    """Retained power sum_{|n| <= n_max} J_n(beta)^2 of the in-repo kernel."""
    return float(np.sum(fm._bessel_j(beta, n_max) ** 2))


def bits(a):
    """The IEEE bit patterns of a float array, so that -0.0 and 0.0 differ."""
    return np.asarray(a, dtype=float).view(np.int64)


class TestBesselKernel:
    """fm._bessel_j against scipy's jv, and the identities J_n must keep."""

    N = 40
    ORDERS = np.arange(-N, N + 1)
    BETAS = np.concatenate([np.geomspace(1e-6, 100, 81), -np.geomspace(1e-6, 100, 81)])

    def test_matches_jv(self):
        got = np.array([fm._bessel_j(beta, self.N) for beta in self.BETAS])
        ref = jv(self.ORDERS, self.BETAS[:, None])
        assert np.max(np.abs(got - ref)) <= 2e-15
        # relative accuracy where J_n has no zero, |beta| <= |n| + 1 < j_(n,1),
        # which takes in every tiny order at small beta; nearer a zero jv's own
        # error shows (at J_24(100) = -4.4e-4 it is 4.1e-13 relative)
        no_zero = (np.abs(self.BETAS[:, None]) <= np.abs(self.ORDERS) + 1) & (np.abs(ref) >= 1e-290)
        assert np.count_nonzero(no_zero & (np.abs(ref) < 1e-200)) > 100
        assert np.max(np.abs(got - ref)[no_zero] / np.abs(ref[no_zero])) <= 1e-12

    @pytest.mark.parametrize("beta", [1000.0, -1000.0])
    def test_matches_jv_at_the_work_bound(self, beta):
        # the largest |beta| the recurrence takes with fewer orders than |beta|
        assert np.max(np.abs(fm._bessel_j(beta, self.N) - jv(self.ORDERS, beta))) <= 2e-15
        assert np.all(np.isnan(fm._bessel_j(np.nextafter(beta, 2 * beta), self.N)))

    @pytest.mark.parametrize("beta", [2000.5, -2000.5])
    def test_matches_jv_past_the_work_bound_within_n_max(self, beta):
        # 1000 < |beta| <= n_max still runs the recurrence.  Orders up to 40 and
        # from |beta| - 1 on are held to 2e-15; in between, scipy's jv is itself
        # off by up to 2.9e-14 here (against 40-digit mpmath, where the kernel
        # is within 1.2e-16), so those orders get jv's own accuracy
        n_max = 2200
        orders = np.arange(-n_max, n_max + 1)
        err = np.abs(fm._bessel_j(beta, n_max) - jv(orders, beta))
        sharp = (np.abs(orders) <= self.N) | (np.abs(orders) >= abs(beta) - 1)
        assert np.max(err[sharp]) <= 2e-15
        assert np.max(err) <= 5e-14
        sidebands(beta, n_max)  # keeps the power, so the set is accepted

    def test_zero_index_is_the_carrier_alone(self):
        assert np.array_equal(fm._bessel_j(0.0, self.N), (self.ORDERS == 0).astype(float))

    def test_order_and_argument_parity_bit_for_bit(self):
        # J_(-n)(beta) = J_n(-beta) = (-1)^n J_n(beta)
        sign = np.where(np.arange(1, self.N + 1) % 2, -1.0, 1.0)
        for beta in [0.0, *self.BETAS, 2e3, 1e308]:
            j = fm._bessel_j(beta, self.N)
            if abs(beta) > 1000:  # past max(n_max, 1000): all NaN, which sidebands rejects
                assert np.all(np.isnan(j))
                continue
            assert np.all(np.isfinite(j))
            assert np.array_equal(bits(j[: self.N][::-1]), bits(sign * j[self.N + 1:]))
            if beta:
                flipped = np.where(self.ORDERS % 2, -j, j)
                assert np.array_equal(bits(fm._bessel_j(-beta, self.N)), bits(flipped))

    @pytest.mark.parametrize("beta", np.linspace(-20, 20, 41))
    def test_closure_at_forty_orders(self, beta):
        assert abs(closure(beta, self.N) - 1) <= 1e-15

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
    def test_non_finite_index_gives_nan(self, beta):
        assert np.all(np.isnan(fm._bessel_j(beta, 3)))
        with pytest.raises(TruncationError, match="nan"):
            sidebands(beta, 3)

    @pytest.mark.parametrize("beta", [1e308, -1e308, 5e-324])
    def test_extreme_finite_index_is_finite(self, beta):
        # finite wherever the recurrence runs, all NaN past max(n_max, 1000)
        j = fm._bessel_j(beta, 1000)
        assert np.all(np.isnan(j)) if abs(beta) > 1000 else np.all(np.isfinite(j))

    @pytest.mark.parametrize("beta", [1e308, -1e308, 1e300, math.nan, math.inf, 1000.5])
    def test_past_the_work_bound_gives_nan(self, beta):
        assert np.all(np.isnan(fm._bessel_j(beta, 8)))
        with pytest.raises(TruncationError, match="keeps nan"):
            sidebands(beta, 8)
        with pytest.raises(TruncationError, match="keeps nan"):
            FmConfig(beta=beta)


def closure_crossing(n_max: int) -> float:
    """The beta > 0 where the float closure crosses 1 - BESSEL_CLOSURE_TOL, by bisection."""
    lo, hi = 0.0, n_max + 2.0
    assert closure(hi, n_max) < 1 - BESSEL_CLOSURE_TOL
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if closure(mid, n_max) >= 1 - BESSEL_CLOSURE_TOL:
            lo = mid
        else:
            hi = mid
    return hi


def truncation_cases(n_max: int) -> list[float]:
    """Betas on a grid, around the closure crossing, and the non-finite edge cases."""
    crossing = closure_crossing(n_max)
    near = [np.nextafter(crossing, sign * np.inf) for sign in (-1, 1)]
    near += [np.nextafter(near[0], 0.0), np.nextafter(near[1], np.inf)]
    betas = [0.0, crossing, *near, *(crossing * np.linspace(0.5, 1.5, 61))]
    betas += list(np.geomspace(1e-6, 1e2, 25))
    betas += [-b for b in betas]
    return betas + [math.nan, math.inf, -math.inf, 1e308, -1e308]


def dropped_power(beta: float, n_max: int) -> float:
    """2 sum_{n > n_max} J_n(beta)^2, summed directly from the tail orders."""
    return float(2 * np.sum(jv(np.arange(n_max + 1, n_max + 60), beta) ** 2))


class TestTruncationCheck:
    """The one truncation check, run by `sidebands` and `FmConfig`, against the closure and jv."""

    @staticmethod
    def decision(beta, n_max):
        """The messages `sidebands` and `FmConfig` raise, or None for both when they accept."""
        messages = []
        for make in (sidebands, lambda b, n: FmConfig(beta=b, n_max=n)):
            try:
                make(beta, n_max)
                messages.append(None)
            except TruncationError as exc:
                messages.append(str(exc))
        assert messages[0] == messages[1], beta
        return messages[0]

    @pytest.mark.parametrize("n_max", range(1, 41))
    def test_same_decision_and_message_as_exact_closure(self, n_max):
        oracle_checked = 0
        for beta in truncation_cases(n_max):
            kept = closure(beta, n_max)
            message = self.decision(beta, n_max)
            if kept >= 1 - BESSEL_CLOSURE_TOL:
                assert message is None, beta
            else:
                assert message == (
                    f"sideband truncation keeps {kept:.12f} of the power at "
                    f"n_max = {n_max}, beta = {beta}"
                )
            # the jv tail is the whole dropped power while |beta| stays below
            # n_max + 2, far under the 60th order past the cutoff
            if abs(beta) < n_max + 2:
                dropped = dropped_power(beta, n_max)
                if dropped <= BESSEL_CLOSURE_TOL / 10:
                    assert message is None, beta
                    oracle_checked += 1
                elif dropped >= 10 * BESSEL_CLOSURE_TOL:
                    assert message is not None, beta
                    oracle_checked += 1
        assert oracle_checked >= 40

    def test_fewer_orders_than_beta_fail(self):
        # the soundness of NaN past max(n_max, 1000), from jv alone: with
        # n_max = ceil(|beta|) - 1, order ceil(|beta|) by itself drops more
        # than the tolerance.  J_nu(nu) ~ 0.447 nu^(-1/3), so that one order
        # falls below 1e-9 near |beta| ~ 8e12, but the ~|beta|^(1/3) orders
        # of the turning region drop a tail that falls only as |beta|^(-1/3)
        # and stays above 1e-9 to |beta| ~ 5e24, where 2 n_max + 1 orders
        # cannot be allocated.  J_n(-x)^2 = J_n(x)^2, so |beta| covers both signs
        for beta in np.geomspace(1e3, 1e12, 37):
            assert 2 * jv(math.ceil(beta), beta) ** 2 > BESSEL_CLOSURE_TOL, beta

    @pytest.mark.parametrize("beta", [1000.0, 1990.0, 2003.0, 2100.0])
    def test_large_orders_near_the_ratio_limit(self, beta):
        # a thousand orders, with beta from the cutoff to just past twice it
        n_max = 1000
        if closure(beta, n_max) >= 1 - BESSEL_CLOSURE_TOL:
            sidebands(beta, n_max)
        else:
            with pytest.raises(TruncationError):
                sidebands(beta, n_max)


class TestPropagate:
    def test_vacuum_unchanged(self):
        grid = np.linspace(-TWO_PI * 100e6, TWO_PI * 100e6, 401)
        spec_vac = symmetric_medium(depth=0.0)
        sb = sidebands(0.7, 8, omega_m=OMEGA_M)
        out = propagate(sb, spec_vac, 0.0)
        assert np.allclose(out.amps, sb.amps)

    def test_uniform_attenuation_halves(self):
        from rydfm.spectroscopy import MediumSpectrum

        grid = np.linspace(-TWO_PI * 100e6, TWO_PI * 100e6, 11)
        spec = MediumSpectrum(grid, np.zeros(11, complex), np.full(11, 0.5), np.zeros(11))
        sb = sidebands(0.7, 8, omega_m=OMEGA_M)
        out = propagate(sb, spec, 0.0)
        assert np.allclose(out.amps, 0.5 * sb.amps)

    def test_out_of_grid(self):
        spec = symmetric_medium(span=TWO_PI * 50e6)
        sb = sidebands(0.7, 8, omega_m=OMEGA_M)
        with pytest.raises(OutOfGridError):
            propagate(sb, spec, 0.0)  # order 8 lands at 80 MHz

    @pytest.mark.parametrize("edge", [0, -1])
    def test_out_of_grid_at_one_edge_carrier(self, edge):
        # only the first or only the last carrier's outer sideband leaves
        # the +-120 MHz grid
        spec = symmetric_medium()
        sb = sidebands(0.7, 8, omega_m=OMEGA_M)
        carriers = TWO_PI * np.linspace(-35e6, 35e6, 2 * CHUNK + 1)
        carriers[edge] = TWO_PI * 45e6 * np.sign(carriers[edge])
        with pytest.raises(OutOfGridError):
            propagate(sb, spec, carriers)
        assert propagate(sb, spec, np.delete(carriers, edge)).amps.shape == (2 * CHUNK, 17)

    def test_carrier_array_rows_match_scalar_calls(self):
        spec = asymmetric_medium()
        sb = apply_ram(sidebands(0.7, 8, omega_m=OMEGA_M), RamParams(dphi_n=0.3))
        carriers = TWO_PI * np.linspace(-30e6, 30e6, 7)
        rows = propagate(sb, spec, carriers).amps
        for row, carrier in zip(rows, carriers):
            assert np.array_equal(row, propagate(sb, spec, float(carrier)).amps)

    @pytest.mark.parametrize("carriers", [0.3e6, np.linspace(-30e6, 30e6, 7)])
    def test_bitwise_equal_to_product_formula(self, carriers):
        # propagate is amps * t * exp(1j * phi) of the interpolated samples, bit for bit
        spec = asymmetric_medium()
        sb = apply_ram(sidebands(0.7, 8, omega_m=OMEGA_M), RamParams(dphi_n=0.3))
        detunings = np.add.outer(TWO_PI * carriers, sb.orders * OMEGA_M)
        t = np.interp(detunings, spec.grid, spec.amp_transmission)
        phi = np.interp(detunings, spec.grid, spec.phase)
        expected = sb.amps * t * np.exp(1j * phi)
        got = propagate(sb, spec, TWO_PI * carriers).amps
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    def test_needs_omega_m(self):
        sb = sidebands(0.1, 2)
        with pytest.raises(InvariantViolation):
            propagate(sb, symmetric_medium(), 0.0)

    def test_row_stacked_spectrum_rejected(self):
        from rydfm.spectroscopy import MediumSpectrum

        one, two = symmetric_medium(), asymmetric_medium()
        stacked = MediumSpectrum(one.grid, np.stack([one.chi, two.chi]),
                                 np.stack([one.amp_transmission, two.amp_transmission]),
                                 np.stack([one.phase, two.phase]))
        with pytest.raises(InvariantViolation, match="one row"):
            propagate(sidebands(0.7, 8, omega_m=OMEGA_M), stacked, 0.0)


class TestDemodulate:
    def test_pure_fm_demodulates_to_zero(self):
        sb = sidebands(0.7, 8, omega_m=OMEGA_M)
        for theta in np.linspace(0, 2 * math.pi, 9):
            assert abs(demodulate(sb, theta)) < 1e-9

    def test_small_index_first_order_oracle(self):
        spec = asymmetric_medium()
        for beta in (0.05, 0.1):
            sb = sidebands(beta, 8, omega_m=OMEGA_M)
            numeric, analytic = [], []
            for carrier in TWO_PI * np.linspace(-35e6, 35e6, 41):
                prop = propagate(sb, spec, carrier)
                numeric.append(demodulate(prop, 0.0))
                analytic.append(first_order_signal(spec, carrier, beta, 0.0))
            numeric = np.array(numeric)
            analytic = np.array(analytic)
            assert np.max(np.abs(numeric - analytic)) < 0.01 * np.max(np.abs(numeric))

    def test_quadrature_antisymmetry(self):
        spec = symmetric_medium()
        sb = sidebands(0.7, 8, omega_m=OMEGA_M)
        carriers = TWO_PI * np.linspace(-30e6, 30e6, 31)
        signal = np.array([demodulate(propagate(sb, spec, c), math.pi / 2) for c in carriers])
        assert np.max(np.abs(signal + signal[::-1])) < 1e-6 * np.max(np.abs(signal))

    def test_lo_phase_decomposition(self):
        spec = asymmetric_medium()
        sb = propagate(sidebands(0.7, 8, omega_m=OMEGA_M), spec, TWO_PI * 5e6)
        s0 = demodulate(sb, 0.0)
        s90 = demodulate(sb, math.pi / 2)
        for theta in np.linspace(-math.pi, math.pi, 17):
            combined = s0 * math.cos(theta) + s90 * math.sin(theta)
            assert demodulate(sb, theta) == pytest.approx(combined, abs=1e-9)

    def test_dc_power_matches_amplitude_sum(self):
        spec = asymmetric_medium()
        sb = propagate(sidebands(0.7, 8, omega_m=OMEGA_M), spec, TWO_PI * 3e6)
        assert dc_power(sb) == pytest.approx(np.sum(np.abs(sb.amps) ** 2), abs=1e-15)
        assert dc_power(sb) == pytest.approx(time_domain_lockin(sb, 0.0)[1][0], abs=1e-13)

    @pytest.mark.parametrize("ram", [None, RamParams(dphi_n=0.3), RamParams(m_diff=0.4, dphi_n=-1.1)])
    @pytest.mark.parametrize("beta", [0.05, 0.7, 2.0])
    def test_closed_form_matches_time_domain_lockin(self, ram, beta):
        sb = sidebands(beta, 8, omega_m=OMEGA_M)
        sb = sb if ram is None else apply_ram(sb, ram)
        carriers = TWO_PI * np.linspace(-35e6, 35e6, 9)
        for spec in (symmetric_medium(), asymmetric_medium()):
            prop = propagate(sb, spec, carriers)
            for s in (sb, prop):
                for theta in np.linspace(-math.pi, math.pi, 7):
                    signal, dc = time_domain_lockin(s, theta)
                    assert np.all(np.abs(demodulate(s, theta) - signal) <= 1e-13 * dc)
                    assert np.all(np.abs(dc_power(s) - dc) <= 1e-13 * dc)

    def test_closed_form_has_no_band_limit(self):
        # orders up to 80 are beyond a 256-sample lock-in (n_max < 64);
        # a 1024-sample one still resolves them
        spec = asymmetric_medium(span=TWO_PI * 1e9, n=20001)
        sb = propagate(sidebands(40.0, 80, omega_m=OMEGA_M), spec, TWO_PI * np.array([-5e6, 2e6]))
        for theta in (0.0, 0.4, math.pi / 2):
            signal, dc = time_domain_lockin(sb, theta, n_time=1024)
            assert np.all(np.abs(demodulate(sb, theta) - signal) <= 1e-13 * dc)
            assert np.all(np.abs(dc_power(sb) - dc) <= 1e-13 * dc)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        beta=st.floats(0.0, 2.5),
        n_max=st.integers(1, 8),
        alpha=st.floats(-1.5, 1.5),
        beta_angle=st.floats(-1.5, 1.5),
        m_diff=st.floats(-3.0, 3.0),
        dphi=st.floats(-math.pi, math.pi),
        lo_phase=st.floats(-10.0, 10.0),
        carrier=st.floats(-35e6, 35e6),
    )
    def test_closed_form_property(self, beta, n_max, alpha, beta_angle, m_diff, dphi, lo_phase,
                                  carrier):
        # closed-form and time-domain lock-ins agree on any set the
        # modulator and RAM model produce, before and after the medium
        assume(closure(beta, n_max) >= 1 - 1e-9)
        sb = sidebands(beta, n_max, omega_m=OMEGA_M)
        ram = RamParams(alpha=alpha, beta_angle=beta_angle, m_diff=m_diff, dphi_n=dphi)
        sb = apply_ram(sb, ram)
        for s in (sb, propagate(sb, asymmetric_medium(), TWO_PI * carrier)):
            signal, dc = time_domain_lockin(s, lo_phase)
            assert abs(demodulate(s, lo_phase) - signal[0]) <= 1e-13 * dc[0]
            assert abs(dc_power(s) - dc[0]) <= 1e-13 * dc[0]

    def test_slope_peaks_at_interior_index(self):
        # on-resonance quadrature slope rises then falls with beta
        spec = symmetric_medium()
        d = TWO_PI * 0.5e6
        slopes = []
        betas = np.linspace(0.1, 2.9, 15)
        for beta in betas:
            sb = sidebands(beta, 10, omega_m=OMEGA_M)
            hi = demodulate(propagate(sb, spec, d), math.pi / 2)
            lo = demodulate(propagate(sb, spec, -d), math.pi / 2)
            slopes.append(abs(hi - lo) / (2 * d))
        best = int(np.argmax(slopes))
        assert 0 < best < len(betas) - 1


def comb_lockin(system, drive, cfg, carrier, lo_phase, ram=None):
    """Lock-in output and DC power at one carrier by a path apart from rydfm.pipelines.

    The medium is solved by scan_probe on the exact comb carrier +
    arange(-n_max, n_max + 1) * omega_m, read by fm.propagate and demodulated
    by the time-domain lock-in.
    """
    comb = carrier + np.arange(-cfg.n_max, cfg.n_max + 1) * cfg.omega_m
    sb = sidebands(cfg.beta, cfg.n_max, omega_m=cfg.omega_m)
    sb = sb if ram is None else apply_ram(sb, ram)
    signal, dc = time_domain_lockin(propagate(sb, scan_probe(system, drive, comb), carrier),
                                    lo_phase)
    return signal[0], dc[0]


def assert_scan_matches_comb_lockin(system, drive, cfg, carriers, ram):
    inphase, quadrature = fm_probe_scan(system, drive, cfg, carriers, ram=ram)
    for i, carrier in enumerate(carriers):
        in_ref, dc = comb_lockin(system, drive, cfg, float(carrier), 0.0, ram)
        quad_ref, _ = comb_lockin(system, drive, cfg, float(carrier), math.pi / 2, ram)
        assert abs(inphase[i] - in_ref) <= 1e-13 * dc
        assert abs(quadrature[i] - quad_ref) <= 1e-13 * dc


class TestFmResponse:
    @pytest.mark.parametrize("lo_phase", [math.pi / 2, 0.0, 0.4])
    @pytest.mark.parametrize("carrier_hz", [0.0, -7.3e6, 12e6])
    def test_matches_comb_lockin(self, cold_system, default_drive, lo_phase, carrier_hz):
        cfg = FmConfig(n_max=6, lo_phase=lo_phase)
        dressed = drive_at_field(cold_system, default_drive, 0.05)
        signal, dc = fm_response(cold_system, dressed, cfg, TWO_PI * carrier_hz)
        ref, ref_dc = comb_lockin(cold_system, dressed, cfg, TWO_PI * carrier_hz, cfg.lo_phase)
        assert abs(signal - ref) <= 1e-13 * ref_dc
        assert abs(dc - ref_dc) <= 1e-13 * ref_dc


class TestFmProbeScan:
    @pytest.mark.parametrize("n_carriers", [1, CHUNK, CHUNK + 1])
    @pytest.mark.parametrize("ram", [None, RamParams(dphi_n=0.3)])
    def test_matches_per_carrier_lockin(self, cold_system, default_drive, n_carriers, ram):
        # the whole scan against one medium solve, propagation and
        # time-domain lock-in per carrier
        carriers = TWO_PI * np.linspace(-12e6, 9e6, n_carriers)
        assert_scan_matches_comb_lockin(cold_system, default_drive, FmConfig(n_max=6), carriers,
                                        ram)

    @pytest.mark.parametrize("n_carriers", [1, CHUNK, CHUNK + 1])
    @pytest.mark.parametrize("ram", [None, RamParams(dphi_n=0.3)])
    def test_off_lattice_step_matches_fm_response(self, warm_system, default_drive, n_carriers,
                                                  ram):
        # against the FM response of each carrier by the comb path; a 0.3 MHz
        # step is no divisor of the 10 MHz modulation, so no sideband of a
        # carrier lands on another carrier
        carriers = TWO_PI * (-5e6 + 0.3e6 * np.arange(n_carriers))
        assert_scan_matches_comb_lockin(warm_system, default_drive, FmConfig(), carriers, ram)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(
        ratio=st.floats(0.01, 3.0),
        n_carriers=st.integers(1, 12),
        start_hz=st.floats(-20e6, 20e6),
        omega_m_hz=st.floats(1e6, 20e6),
        n_max=st.integers(5, 8),
    )
    def test_any_step_ratio_matches_fm_response(self, ratio, n_carriers, start_hz, omega_m_hz,
                                                n_max):
        cold = LadderSystem(temperature=1e-9, n_atoms=1e13)
        drive = FieldDrive(omega_p=TWO_PI * 6.7e6, omega_c=TWO_PI * 7.0e6, delta_c=TWO_PI * 1e6)
        cfg = FmConfig(omega_m=TWO_PI * omega_m_hz, n_max=n_max)
        carriers = TWO_PI * (start_hz + ratio * omega_m_hz * np.arange(n_carriers))
        assert_scan_matches_comb_lockin(cold, drive, cfg, carriers, None)

    def test_medium_samples_on_shipped_grid(self, cold_system, default_drive):
        # on the shipped commensurate grid, coinciding sidebands share a
        # sample: 121 carriers and 16 sideband steps of 20 grid steps each
        scn = load_scenario(str(Path(__file__).resolve().parent.parent / "configs" / "default.cfg"))
        carriers = scn.scan.probe_grid_rad_s()
        spec = sideband_spectrum(cold_system, default_drive, scn.fm, carriers)
        assert carriers.size == 121 and spec.grid.size == 441 and spec.chi.shape == (441,)
        assert np.all(np.diff(spec.grid) > 0)
        assert spec.grid[0] == carriers[0] - 8 * scn.fm.omega_m
        assert spec.grid[-1] == carriers[-1] + 8 * scn.fm.omega_m

    @pytest.mark.parametrize("carrier", [0.0, -TWO_PI * 3.7e6, TWO_PI * 29.9e6])
    def test_one_carrier_grid_is_the_sideband_comb(self, carrier):
        cfg = FmConfig()
        expected = carrier + np.arange(-cfg.n_max, cfg.n_max + 1) * cfg.omega_m
        assert np.array_equal(_sideband_grid(cfg, carrier), expected)

    @pytest.mark.parametrize("carrier", [1e10, -1e10])
    def test_merged_comb_keeps_exact_ends(self, carrier):
        # 4e-6 rad/s is 2 ulps at a 1e10 rad/s carrier: the orders merge,
        # but the first and last samples stay the extreme detunings
        cfg = FmConfig(omega_m=4e-6)
        comb = carrier + np.arange(-cfg.n_max, cfg.n_max + 1) * cfg.omega_m
        grid = _sideband_grid(cfg, carrier)
        assert grid.size < comb.size and np.all(np.diff(grid) > 0)
        assert (grid[0], grid[-1]) == (comb.min(), comb.max())


class TestRfDetuningScan:
    def test_matches_per_row_lockin(self, cold_system, default_drive):
        # every RF row at once against one medium solve, propagation and
        # time-domain lock-in per RF detuning
        cfg = FmConfig(n_max=6)
        rf_grid = TWO_PI * np.linspace(-6e6, 6e6, CHUNK + 1)
        dressed = drive_at_field(cold_system, default_drive, 0.05)
        signal = rf_detuning_scan(cold_system, dressed, cfg, rf_grid)
        assert signal.shape == rf_grid.shape
        for value, delta_rf in zip(signal, rf_grid):
            drive = replace(dressed, delta_rf=delta_rf)
            ref, dc = comb_lockin(cold_system, drive, cfg, drive.delta_p, cfg.lo_phase)
            assert abs(value - ref) <= 1e-13 * dc

    def test_merged_orders_match_fm_response(self, cold_system, default_drive):
        # sidebands 2 ulps apart at a 1e10 rad/s carrier merge into shared
        # samples, which every RF row reads alike
        cfg = FmConfig(omega_m=4e-6)
        dressed = drive_at_field(cold_system, replace(default_drive, delta_p=1e10), 0.05)
        assert _sideband_grid(cfg, dressed.delta_p).size < 2 * cfg.n_max + 1
        rf_grid = TWO_PI * np.array([-3e6, 0.0, 2e6])
        signal = rf_detuning_scan(cold_system, dressed, cfg, rf_grid)
        for value, delta_rf in zip(signal, rf_grid):
            drive = replace(dressed, delta_rf=delta_rf)
            ref, dc = fm_response(cold_system, drive, cfg, drive.delta_p)
            assert abs(value - ref) <= 1e-12 * dc


class TestRamPhotocurrent:
    def test_null_conditions_exact_zero(self):
        t = np.linspace(0, 1e-7, 32)
        null_phase = RamParams(alpha=0.3, beta_angle=0.2, m_diff=0.4, dphi_n=0.7, dphi_dc=-0.7)
        assert np.all(ram_photocurrent(null_phase, 1, OMEGA_M, t) == 0.0)
        null_alpha = RamParams(alpha=0.0, beta_angle=0.2, m_diff=0.4, dphi_n=0.5)
        assert np.all(ram_photocurrent(null_alpha, 1, OMEGA_M, t) == 0.0)
        null_analyzer = RamParams(alpha=0.2, beta_angle=0.0, m_diff=0.4, dphi_n=0.5)
        assert np.all(ram_photocurrent(null_analyzer, 1, OMEGA_M, t) == 0.0)

    def test_even_harmonic_rejected(self):
        with pytest.raises(EvenHarmonicError):
            ram_photocurrent(RamParams(), 2, OMEGA_M, 0.0)
        with pytest.raises(InvariantViolation):
            ram_photocurrent(RamParams(), -1, OMEGA_M, 0.0)

    def test_peak_amplitude_quarter_wave_angles(self):
        p = RamParams(alpha=math.pi / 4, beta_angle=math.pi / 4, m_diff=0.2,
                      dphi_n=math.pi / 2, dphi_dc=0.0, e0_sq=2.0)
        t = np.linspace(0, 2 * math.pi / OMEGA_M, 1024, endpoint=False)
        peak = np.max(np.abs(ram_photocurrent(p, 1, OMEGA_M, t)))
        assert peak == pytest.approx(2.0 * bessel_series(1, 0.2), rel=1e-4)


class TestRamParams:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("dphi_n", math.nan),
            ("dphi_n", math.inf),
            ("dphi_dc", math.inf),
            ("dphi_dc", math.nan),
            ("e0_sq", math.nan),
            ("e0_sq", math.inf),
            ("e0_sq", -1.0),
            ("m_diff", math.nan),
            ("m_diff", -math.inf),
            ("alpha", math.nan),
            ("beta_angle", math.nan),
        ],
    )
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(InvariantViolation):
            RamParams(**{field: value})

    @pytest.mark.parametrize("m_diff", [1000.0, -1000.0])
    def test_m_diff_at_the_bessel_bound_loads(self, m_diff):
        assert math.isfinite(ram_mod_depth(RamParams(m_diff=m_diff, dphi_n=0.3)))

    @pytest.mark.parametrize("m_diff", [1000.5, 2000.0, -2000.0, math.nan])
    def test_m_diff_past_the_bessel_bound_is_rejected(self, m_diff):
        # past |m_diff| = 1000 _bessel_j gives NaN at the RAM orders
        with pytest.raises(InvariantViolation, match="m_diff"):
            RamParams(m_diff=m_diff)

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_amplitude_formula_bitwise(self, n):
        # the written-out product, evaluated left to right, is the oracle
        rng = np.random.default_rng(n)
        t = np.linspace(0, 1e-7, 16)
        for _ in range(200):
            alpha, beta_angle = rng.uniform(-1.5, 1.5, 2)
            m_diff, dphi_n, dphi_dc = rng.uniform(-3.0, 3.0, 3)
            p = RamParams(alpha=alpha, beta_angle=beta_angle, m_diff=m_diff, dphi_n=dphi_n,
                          dphi_dc=dphi_dc, e0_sq=rng.uniform(0.0, 5.0))
            amplitude = (
                -p.e0_sq
                * math.sin(2 * p.alpha)
                * math.sin(2 * p.beta_angle)
                * float(fm._bessel_j(p.m_diff, n)[-1])
                * math.sin(p.dphi_n + p.dphi_dc)
            )
            if n == 1:
                assert ram_mod_depth(p) == amplitude
            expected = amplitude * np.sin(n * OMEGA_M * t)
            assert np.array_equal(ram_photocurrent(p, n, OMEGA_M, t), expected)


class TestApplyRam:
    def test_null_leaves_set_unchanged(self):
        sb = SidebandSet(orders=np.arange(-8, 9), amps=[sidebands(b, 8).amps for b in (0.3, 0.7)],
                         omega_m=OMEGA_M)
        nulls = [RamParams(dphi_n=d, dphi_dc=-d) for d in (0.0, 0.4, -0.4, 3.0, -3.0)]
        nulls += [RamParams(dphi_n=0.3, **{field: 0.0}) for field in ("alpha", "beta_angle", "e0_sq")]
        for p in nulls:
            out = apply_ram(sb, p)
            assert out.amps is not sb.amps and out.orders is not sb.orders
            assert out.amps.tobytes() == sb.amps.tobytes() and out.orders.tobytes() == sb.orders.tobytes()
            assert out.omega_m == sb.omega_m

    def test_near_null_applies_the_exact_depth(self, monkeypatch):
        # sin(pi) is 1.2e-16, not 0: no tolerance may round this onto the null
        p = RamParams(dphi_n=math.pi)
        assert math.sin(p.dphi_n + p.dphi_dc) != 0.0
        depth = ram_mod_depth(p)
        assert depth != 0.0
        amplitude, calls = fm._ram_amplitude, []

        def counted(p, n):
            calls.append(n)
            return amplitude(p, n)

        monkeypatch.setattr(fm, "_ram_amplitude", counted)
        sb = sidebands(0.7, 8, omega_m=OMEGA_M)
        out = apply_ram(sb, p)
        assert calls == [1]
        kick = depth / 4j
        expected = sb.amps.copy()
        expected[1:] += kick * sb.amps[:-1]
        expected[:-1] -= kick * sb.amps[1:]
        assert out.amps.tobytes() == expected.tobytes()
        assert out.amps.tobytes() != sb.amps.tobytes()

    def test_transparent_medium_reproduces_photocurrent(self):
        p = RamParams(alpha=0.05, beta_angle=0.05, m_diff=0.1, dphi_n=0.3)
        expected = ram_mod_depth(p)
        for beta in (0.2, 0.7, 1.2):
            sb = apply_ram(sidebands(beta, 8, omega_m=OMEGA_M), p)
            # RAM is a sine-phase AM: it demodulates to -depth*sin(theta)
            measured = demodulate(sb, -math.pi / 2)
            assert measured == pytest.approx(expected, rel=0.01)

    def test_baseline_offset_with_symmetric_medium(self):
        spec = symmetric_medium()
        p = RamParams(alpha=0.05, beta_angle=0.05, m_diff=0.1, dphi_n=0.3)
        sb = apply_ram(sidebands(0.7, 8, omega_m=OMEGA_M), p)
        clean = sidebands(0.7, 8, omega_m=OMEGA_M)
        # at the symmetric point the clean quadrature signal vanishes;
        # RAM leaves a nonzero baseline there
        with_ram = demodulate(propagate(sb, spec, 0.0), math.pi / 2)
        without = demodulate(propagate(clean, spec, 0.0), math.pi / 2)
        assert abs(without) < 1e-12
        assert abs(with_ram) > 100 * abs(without) + 1e-6

    def test_baseline_smooth_in_beta(self, warm_system, default_drive):
        # the RAM baseline at line centre through the warm medium has no pole
        # at the root 1.8411... of J1'(beta), where J0 - J2 vanishes
        p = RamParams(dphi_n=0.3)
        carrier = np.array([0.0])

        def baseline(beta):
            cfg = FmConfig(beta=beta)
            with_ram = fm_probe_scan(warm_system, default_drive, cfg, carrier, ram=p)[1][0]
            without = fm_probe_scan(warm_system, default_drive, cfg, carrier)[1][0]
            return (with_ram - without) / ram_mod_depth(p)

        reference = baseline(0.7)
        for beta in (0.2, 0.5, 1.0, 1.4, 1.8, 1.84, 1.8411837813406593, 1.845, 1.9):
            ratio = baseline(beta) / reference
            assert np.isfinite(ratio) and 0.5 <= ratio <= 2.0, (beta, ratio)

    @pytest.mark.parametrize("beta", [0.2, 0.7, 1.8411837813406593, 3.0])
    @pytest.mark.parametrize("m_diff, dphi_n", [(0.05, 1.0), (0.1, 1.3), (0.15, -1.2)])
    def test_matches_fft_of_modulated_field(self, beta, m_diff, dphi_n):
        # orders of sqrt(1 + M sin(theta)) exp(i beta sin(theta)) over one period,
        # which differ from the first-order AM by about M^2 / 16
        p = RamParams(alpha=0.7, beta_angle=0.7, m_diff=m_diff, dphi_n=dphi_n)
        depth = ram_mod_depth(p)
        assert 0.02 <= abs(depth) <= 0.07
        sb = apply_ram(sidebands(beta, 12, omega_m=OMEGA_M), p)
        theta = 2 * np.pi * np.arange(256) / 256
        field = np.sqrt(1 + depth * np.sin(theta)) * np.exp(1j * beta * np.sin(theta))
        oracle = np.fft.fft(field)[sb.orders] / theta.size
        assert np.max(np.abs(sb.amps - oracle)) <= depth ** 2 / 8

    def test_transparent_medium_reads_depth_at_every_index(self):
        # a depth well above the ~1e-16 rounding of the pure-FM beat
        p = RamParams(alpha=0.7, beta_angle=0.7, m_diff=0.1, dphi_n=1.3)
        depth = ram_mod_depth(p)
        for beta in (0.2, 0.7, 1.2, 1.84, 1.8411837813406593, 2.4, 3.0):
            sb = apply_ram(sidebands(beta, 12, omega_m=OMEGA_M), p)
            for theta in np.linspace(-math.pi, math.pi, 9):
                expected = -depth * math.sin(theta)
                assert abs(demodulate(sb, theta) - expected) <= 1e-12 * abs(depth), (beta, theta)


class TestIndexFromDbm:
    def test_default_drive_level(self):
        assert index_from_dbm(8.0) == pytest.approx(0.713, abs=0.01)

    def test_monotone(self):
        levels = [index_from_dbm(d) for d in (0.0, 4.0, 8.0, 14.0)]
        assert np.all(np.diff(levels) > 0)


class TestFmConfig:
    def test_defaults_valid(self):
        cfg = FmConfig()
        assert cfg.omega_m == pytest.approx(TWO_PI * 10e6)
        assert cfg.n_max == 8

    def test_invalid_settings(self):
        with pytest.raises(InvariantViolation):
            FmConfig(omega_m=0.0)
        with pytest.raises(InvariantViolation):
            FmConfig(n_max=0)

    @pytest.mark.parametrize("n_max", [8.5, True])
    def test_non_integer_n_max_rejected(self, n_max):
        with pytest.raises(InvariantViolation, match="n_max must be an integer"):
            FmConfig(n_max=n_max)

    def test_numpy_integer_n_max_accepted(self):
        assert FmConfig(n_max=np.int64(8)).n_max == 8

