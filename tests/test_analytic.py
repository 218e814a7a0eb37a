import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbattery.analytic import (
    entanglement_entropy,
    excited_quarter_period,
    mps_scan,
    separable_initial_bloch,
    wp_closed_form,
    wp_excited_closed_form,
    wp_excited_oracle,
    wp_excited_sine_variant,
    wp_small_t,
)
from qbattery.battery import HamiltonianSpec
from qbattery.errors import ConfigError, DomainError
from qbattery.protocol import Z_BASIS, run_protocol

SPEC = HamiltonianSpec()


def oracle_wp(s, theta, spec, t):
    """Brute-force value of the reference protocol (aux ground, z-basis)."""
    return run_protocol(separable_initial_bloch(s, theta), spec, t, Z_BASIS, 1).w_p


class TestClosedForm:
    def test_no_evolution_no_extraction(self):
        for s, theta in ((0.0, 0.0), (0.5, 1.0), (1.0, 2.0)):
            assert wp_closed_form(s, theta, SPEC, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_excited_eigenstate_axis_vanishes(self):
        for t in np.linspace(0.0, 10.0, 40):
            assert wp_closed_form(1.0, 0.0, SPEC, t) == pytest.approx(0.0, abs=1e-12)

    def test_matches_protocol_oracle(self):
        rng = np.random.default_rng(99)
        worst = 0.0
        for _ in range(300):
            s, theta, t = rng.random(), np.pi * rng.random(), 10.0 * rng.random()
            worst = max(worst, abs(oracle_wp(s, theta, SPEC, t) - wp_closed_form(s, theta, SPEC, t)))
        assert worst < 1e-9

    def test_maximally_mixed_battery_small_times(self):
        for t in np.linspace(1e-3, 0.2, 15):
            assert wp_closed_form(0.0, 0.3, SPEC, t) == pytest.approx(
                oracle_wp(0.0, 0.3, SPEC, t), abs=1e-9
            )


class TestSmallTCoefficient:
    @given(
        st.floats(0.0, 1.0, allow_nan=False),
        st.floats(0.0, np.pi, allow_nan=False),
    )
    @settings(max_examples=60)
    def test_positive_off_the_poles(self, s, theta):
        if s * s * np.cos(theta) ** 2 < 1.0 - 1e-9:
            assert wp_small_t(s, theta, SPEC) > 0.0

    def test_vanishes_without_coupling(self):
        assert wp_small_t(0.5, 1.0, HamiltonianSpec(h=1.0, J=0.0)) == 0.0

    def test_overflows_to_inf_instead_of_raising(self):
        # (hJ)^2 = 4e400 leaves the float range: inf, like the other closed forms
        assert wp_small_t(0.5, 1.0, HamiltonianSpec(1e100, 2e100)) == math.inf

    @pytest.mark.parametrize("h, j", [(1.0, 2.0), (1.0, 0.3), (2.0, 4.0), (0.5, -3.0)])
    def test_closed_form_keeps_its_digits_at_small_t(self, h, j):
        # at tau = h t = 1e-4 the closed form is c t^4 up to its t^6 term, a
        # relative 1e-7 at most here; a bracket of cos 2x terms, which cancels
        # terms of order 1, is off by 2e-2 to 0.4 there
        spec, t = HamiltonianSpec(h, j), 1e-4 / h
        rng = np.random.default_rng(12)
        s, theta = rng.random(200), np.pi * rng.random(200)
        ratio = wp_closed_form(s, theta, spec, t) / (wp_small_t(s, theta, spec) * t**4)
        assert np.max(np.abs(ratio - 1.0)) <= 1e-6

    def test_matches_quartic_fit_of_oracle(self):
        rng = np.random.default_rng(7)
        times = np.array([1e-3, 2e-3, 4e-3])
        for _ in range(20):
            s, theta = rng.random(), np.pi * rng.random()
            wps = np.array([oracle_wp(s, theta, SPEC, t) for t in times])
            fit = np.sum(wps * times**4) / np.sum(times**8)
            assert fit == pytest.approx(wp_small_t(s, theta, SPEC), rel=1e-2)


class TestExcitedDrain:
    def test_quiet_at_start_and_full_period(self):
        omega = np.sqrt(4.0 * SPEC.h**2 + SPEC.J**2)
        assert wp_excited_oracle(SPEC, 0.0) == pytest.approx(0.0, abs=1e-12)
        assert wp_excited_oracle(SPEC, np.pi / omega) == pytest.approx(0.0, abs=1e-10)

    def test_quarter_period_peak(self):
        # 2hJ^2/(4h^2+J^2) = 1 exactly at h=1, J=2
        peak = wp_excited_oracle(SPEC, excited_quarter_period(SPEC))
        assert peak == pytest.approx(1.0, abs=1e-9)

    def test_closed_form_tracks_oracle(self):
        for t in np.linspace(0.0, 2.5, 40):
            assert wp_excited_oracle(SPEC, t) == pytest.approx(
                wp_excited_closed_form(SPEC, t), abs=1e-10
            )

    def test_sine_variant_is_not_the_simulation(self):
        # the variant's phase argument has units energy^2 * time; it visibly
        # departs from the simulated curve and is kept for reporting only
        gap = max(
            abs(wp_excited_oracle(SPEC, t) - wp_excited_sine_variant(SPEC, t))
            for t in np.linspace(0.05, 2.5, 40)
        )
        assert gap > 0.5


    def test_sine_variant_is_nan_where_its_phase_overflows(self):
        # (4h^2+J^2) t overflows at h = 1e200; the variant reports NaN instead of raising
        huge = HamiltonianSpec(1e200, 2e200)
        assert math.isnan(wp_excited_sine_variant(huge, 1e-200))
        assert np.all(np.isnan(wp_excited_sine_variant(huge, np.array([0.0, 1e-201]))))

    def test_times_as_an_array(self):
        times = np.linspace(0.0, 2.5, 9)
        stacked = wp_excited_oracle(SPEC, times)
        assert np.array_equal(stacked, [wp_excited_oracle(SPEC, t) for t in times])


class TestStackedReferenceProtocol:
    def test_arrays_equal_one_point_at_a_time(self):
        rng = np.random.default_rng(98)
        s, theta, t = rng.random(7), np.pi * rng.random(7), 10.0 * rng.random(7)
        states = separable_initial_bloch(s, theta)
        closed, small = wp_closed_form(s, theta, SPEC, t), wp_small_t(s, theta, SPEC)
        for i in range(7):
            assert np.array_equal(states[i], separable_initial_bloch(s[i], theta[i]))
            assert closed[i] == wp_closed_form(s[i], theta[i], SPEC, t[i])
            assert small[i] == wp_small_t(s[i], theta[i], SPEC)

    def test_rejects_a_radius_out_of_range_inside_an_array(self):
        with pytest.raises(DomainError):
            separable_initial_bloch(np.array([0.5, 1.5]), 1.0)


class TestEntanglementEntropy:
    def test_balanced_state_is_one_ebit(self):
        assert entanglement_entropy(0.0) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("k", [-1.0, 1.0])
    def test_pure_marginal_has_no_entanglement(self, k):
        assert entanglement_entropy(k) == 0.0

    @pytest.mark.parametrize("k", np.arange(0.1, 1.0, 0.1))
    def test_even_in_k(self, k):
        assert entanglement_entropy(k) == pytest.approx(entanglement_entropy(-k), abs=1e-12)

    def test_bounded_and_concave_on_grid(self):
        grid = np.linspace(-1.0, 1.0, 201)
        values = np.array([entanglement_entropy(k) for k in grid])
        assert np.all(values >= 0.0) and np.all(values <= 1.0 + 1e-12)
        midpoint_gap = 0.5 * (values[:-2] + values[2:]) - values[1:-1]
        assert np.max(midpoint_gap) < 1e-12

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            entanglement_entropy(1.0001)

    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            entanglement_entropy(math.nan)


class TestMpsScan:
    def test_ground_state_is_the_only_passive_point(self):
        report = mps_scan(21, SPEC)
        assert report.passive_count == 1
        assert report.passive_points() == [(1.0, np.pi)]

    def test_interior_point_extractable(self):
        report = mps_scan(5, SPEC)
        # s=0.5, theta=pi/4 sits on the 5x5 grid and must show a signal
        assert report.max_wp[2, 1] > report.threshold

    def test_excited_state_rescued_by_drain_protocol(self):
        report = mps_scan(11, SPEC)
        assert not report.passive[10, 0]
        assert report.max_wp[10, 0] == pytest.approx(1.0, abs=1e-9)

    def test_probe_signal_well_clear_of_threshold(self):
        # weakest nonzero point of the 101-grid pattern: s=1, theta one step
        # off the pole; the probe must beat the threshold with margin
        report = mps_scan(101, SPEC)
        nonzero = report.max_wp[report.max_wp > 0.0]
        assert nonzero.min() > 10.0 * report.threshold

    def test_nothing_is_extractable_without_coupling(self):
        # w_p is exactly 0 at J = 0, not a rounding residue of either sign
        report = mps_scan(101, HamiltonianSpec(1.0, 0.0))
        assert np.all(report.max_wp == 0.0)
        assert not np.any(np.signbit(report.max_wp))

    def test_rejects_degenerate_grid(self):
        with pytest.raises(ConfigError):
            mps_scan(1, SPEC)

    def test_rejects_probe_outside_window(self):
        with pytest.raises(ConfigError):
            mps_scan(11, SPEC, t_probe=5.0)
        with pytest.raises(ConfigError):
            mps_scan(11, SPEC, t_probe=0.0)


class TestBatchedScanMatchesOracle:
    """The batched scan against one scalar run_protocol call per grid point."""

    @staticmethod
    def scalar_scan(report, spec):
        drain = wp_excited_oracle(spec, excited_quarter_period(spec))
        wp = np.zeros_like(report.max_wp)
        for i, s in enumerate(report.s_grid):
            for j, theta in enumerate(report.theta_grid):
                wp[i, j] = oracle_wp(s, theta, spec, report.t_probe)
                if s * math.cos(theta) >= 1.0 - 1e-12:
                    wp[i, j] = max(wp[i, j], drain)
        return wp

    @pytest.mark.parametrize(
        "h, j, t_probe",
        [(1.0, 2.0, None), (2.0, 4.0, None), (1.0, 4.0, None), (1.0, 0.0, None), (1.0, 2.0, 0.037)],
    )
    def test_every_point_matches_run_protocol(self, h, j, t_probe):
        spec = HamiltonianSpec(h, j)
        report = mps_scan(11, spec, t_probe)
        expected = self.scalar_scan(report, spec)
        assert np.max(np.abs(report.max_wp - expected)) <= 1e-12 * h
        # the probe signal is at most about 3e-4 h, so also compare relatively
        np.testing.assert_allclose(report.max_wp, expected, rtol=1e-9, atol=1e-15 * h)
        assert np.array_equal(report.passive, expected <= report.threshold)

    def test_peak_memory_stays_on_the_grid_scale(self):
        # one (301^2, 4, 4) complex stack alone would take 23 MB
        tracemalloc.start()
        try:
            mps_scan(301, SPEC)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6
