import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbattery.analytic import (
    MAX_GRID_POINTS,
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


class TestExcitedDrain:
    def test_quiet_at_start_and_full_period(self):
        omega = np.sqrt(4.0 * SPEC.h**2 + SPEC.J**2)
        assert wp_excited_oracle(SPEC, 0.0) == pytest.approx(0.0, abs=1e-12)
        assert wp_excited_oracle(SPEC, np.pi / omega) == pytest.approx(0.0, abs=1e-10)

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
        # and it is its printed form 2hJ^2 sin((4h^2+J^2) t)/(4h^2+J^2), written out
        times = np.linspace(0.0, 10.0, 101)
        for spec, form in [(SPEC, np.sin(8.0 * times)),
                           (HamiltonianSpec(0.5, 3.0), 0.9 * np.sin(10.0 * times))]:
            assert np.max(np.abs(wp_excited_sine_variant(spec, times) - form)) < 1e-13

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

    def test_stack_matches_a_math_log2_loop(self):
        # the loop the stacked form replaced; np.log2 and math.log2 may differ by an ulp
        def scalar(k):
            total = 0.0
            for p in ((1.0 + k) / 2.0, (1.0 - k) / 2.0):
                if p > 0.0:
                    total -= p * math.log2(p)
            return total

        for n in (9, 81, 201, 10001):
            grid = np.linspace(-1.0, 1.0, n)
            stacked = entanglement_entropy(grid)
            assert np.array_equal(stacked, [entanglement_entropy(k) for k in grid])
            np.testing.assert_allclose(stacked, [scalar(k) for k in grid], rtol=0, atol=4.5e-16)
        assert not np.any(np.signbit(entanglement_entropy(np.array([-1.0, 1.0]))))

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            entanglement_entropy(1.0001)
        with pytest.raises(DomainError):
            entanglement_entropy(np.array([0.5, -1.0001]))

    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            entanglement_entropy(math.nan)


class TestMpsScan:
    def test_interior_point_extractable(self):
        report = mps_scan(5, SPEC)
        # s=0.5, theta=pi/4 sits on the 5x5 grid and must show a signal
        assert report.max_wp[2, 1] > 0.0 and not report.passive[2, 1]

    def test_excited_state_rescued_by_drain_protocol(self):
        report = mps_scan(11, SPEC)
        assert not report.passive[10, 0]
        assert report.max_wp[10, 0] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("j", [0.1, -0.3, 64.0, 1000.0, 1e4, 1e7])
    def test_sign_rule_leaves_only_the_ground_state(self, j):
        # w_p > 0 off the poles for every J != 0, however weak the signal
        report = mps_scan(101, HamiltonianSpec(1.0, j))
        assert report.passive_points() == [(1.0, math.pi)]
        assert np.array_equal(report.passive, report.max_wp <= 0.0)

    @pytest.mark.parametrize(
        "h, j, named",
        [(1.0, 1e8, "J/h=100000000.0:"), (1.0, -1e9, "J/h=-1000000000.0:"),
         (1.0, 3e-159, "J/h=3e-159:"), (3.0, 3e-160, "J/h=1e-160:"),
         (1e-310, 0.0, "h=1e-310, J=0.0"), (1e-310, 2e-310, "h=1e-310, J=2e-310")],
    )
    def test_unresolved_sign_raises(self, h, j, named):
        # the bracket cancels at large J/h and underflows at tiny J/h; at
        # J/h = 3e-159 only points near the poles underflow, not s = 0. That
        # error names J/h, which decides it. Below h of about 5.6e-310 the probe
        # time 0.1/h overflows, even at J = 0, and that error names h and J
        with pytest.raises(DomainError, match=re.escape(named)):
            mps_scan(101, HamiltonianSpec(h, j))

    @pytest.mark.parametrize("j, passive", [(0.0, 101 * 101), (1.5e308, 1)])
    def test_scan_runs_where_two_h_overflows(self, j, passive):
        # the scan forms no energy beyond h: at h = 1e308 the probe time 0.1/h is
        # subnormal but non-zero, and w tau is at most 0.25 rad
        report = mps_scan(101, HamiltonianSpec(1e308, j))
        assert np.count_nonzero(report.passive) == passive
        assert report.passive[-1, -1] and np.all(np.isfinite(report.max_wp))

    @pytest.mark.parametrize("h", [1e-309, 3e-309])
    def test_excited_corner_is_finite_where_the_quarter_period_overflows(self, h):
        # (pi/2)/(w h) overflows below h of about 3.1e-309 at J = 2h; the drain's
        # maximum 2h (g/w)^2 forms no time
        report = mps_scan(11, HamiltonianSpec(h, 2.0 * h))
        assert np.isfinite(report.max_wp[-1, 0]) and report.max_wp[-1, 0] > 0.0
        assert report.passive_points() == [(1.0, math.pi)]

    def test_excited_drain_survives_where_two_omega_overflows(self):
        # 2 Omega overflows to inf here; the drain must still be timed at pi/(2 Omega)
        h = 10.0**306.5
        spec = HamiltonianSpec(h, 50.0 * h)
        assert excited_quarter_period(spec) > 0.0
        assert mps_scan(101, spec).passive_points() == [(1.0, math.pi)]

    def test_nothing_is_extractable_without_coupling(self):
        # w_p is exactly 0 at J = 0, not a rounding residue of either sign
        report = mps_scan(101, HamiltonianSpec(1.0, 0.0))
        assert np.all(report.max_wp == 0.0)
        assert not np.any(np.signbit(report.max_wp))

    def test_rejects_degenerate_grid(self):
        with pytest.raises(ConfigError):
            mps_scan(1, SPEC)

    @pytest.mark.parametrize("h, j", [(1.0, 0.0), (1.0, 1.0), (1.0, 2.0), (2.0, 8.0)])
    def test_default_probe_is_a_tenth_over_h_at_moderate_coupling(self, h, j):
        assert mps_scan(3, HamiltonianSpec(h, j)).t_probe == 0.1 / h

    @pytest.mark.parametrize("h, j", [(1.0, 10.0), (1.0, -20.0), (0.5, 25.0), (1.0, 50.0)])
    def test_default_probe_stays_in_the_window_at_strong_coupling(self, h, j):
        # 0.1/h would leave the window t < 1/Omega from |J| = 9.8h on
        spec = HamiltonianSpec(h, j)
        report = mps_scan(21, spec)
        assert report.t_probe == min(0.1, 0.5 / spec.w) / h
        assert report.passive_points() == [(1.0, math.pi)]

    def test_rejects_grids_numpy_cannot_describe(self, monkeypatch):
        def linspace(*args):  # side + 1 points alone would take 8.6 GB
            raise AssertionError("the scan formed its grid")

        monkeypatch.setattr(np, "linspace", linspace)
        side = math.isqrt(MAX_GRID_POINTS)
        for grid_n in (side + 1, 2**62, 2**63 - 1, 2**64):
            with pytest.raises(ConfigError, match="grid_n .* too large"):
                mps_scan(grid_n, SPEC)


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

    @pytest.mark.parametrize("h, j", [(1.0, 2.0), (2.0, 4.0), (1.0, 4.0), (1.0, 0.0)])
    def test_every_point_matches_run_protocol(self, h, j):
        spec = HamiltonianSpec(h, j)
        report = mps_scan(11, spec)
        expected = self.scalar_scan(report, spec)
        assert np.max(np.abs(report.max_wp - expected)) <= 1e-12 * h
        # the probe signal is at most about 3e-4 h, so also compare relatively
        np.testing.assert_allclose(report.max_wp, expected, rtol=1e-9, atol=1e-15 * h)
        # the pole set, not the oracle's sign: its ground-state w_p is rounding noise
        poles = np.zeros_like(report.passive)
        poles[-1, -1] = True
        assert np.array_equal(report.passive, poles if j != 0.0 else np.ones_like(poles))

    def test_peak_memory_stays_on_the_grid_scale(self):
        # one (301^2, 4, 4) complex stack alone would take 23 MB
        tracemalloc.start()
        try:
            mps_scan(301, SPEC)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6
