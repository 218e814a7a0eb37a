import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbattery.analytic import wp_closed_form
from qbattery.battery import BlochVector, HamiltonianSpec
from qbattery.errors import ConfigError, DomainError
from qbattery import optimizer
from qbattery.optimizer import (
    FAMILIES,
    SearchSpace,
    WpEvaluator,
    derive_seed,
    make_rng,
    optimize,
    sample_batch,
)
from qbattery.protocol import (
    EntangledInitParams,
    MeasurementBasis,
    best_outcome,
    entangled_initial,
    outcome_matrix,
    separable_initial,
)

SPEC = HamiltonianSpec()
CLI_SEED = 123456789  # the CLI's default run seed; grid row i runs with derive_seed(CLI_SEED, i)
CLI_GRID = np.linspace(-1.0, 1.0, 81)  # the CLI's default k grid


def initial_state(family, k, point):
    theta, phi, _ = point
    if family == "separable":
        return separable_initial(k, BlochVector(1.0, theta, phi))
    return entangled_initial(EntangledInitParams(k, theta, phi))


def cli_row(family, i):
    space = SearchSpace(family, float(CLI_GRID[i]))
    return optimize(space, SPEC, budget=200_000, seed=derive_seed(CLI_SEED, i))


class TestSearchSpace:
    def test_parameter_counts(self):
        # both families search (polar, azimuth, t)
        for family in FAMILIES:
            assert SearchSpace(family, 0.0).span.shape == (3,)

    def test_bounds_cover_the_box(self):
        for family in FAMILIES:
            assert np.array_equal(SearchSpace(family, 0.0, t_max=7.0).span,
                                  [np.pi, 2.0 * np.pi, 7.0])

    def test_rejects_unknown_family(self):
        with pytest.raises(ConfigError):
            SearchSpace("tripartite", 0.0)

    def test_rejects_degenerate_time_bound(self):
        with pytest.raises(ConfigError):
            SearchSpace("separable", 0.0, t_max=0.0)

    def test_rejects_bad_bias(self):
        with pytest.raises(DomainError):
            SearchSpace("separable", 1.5)

    def test_rejects_nan_bias(self):
        # accepted, the search would fail later with a misleading float-range error
        with pytest.raises(DomainError, match="population bias"):
            SearchSpace("entangled", float("nan"))


class TestSampling:
    def test_fixed_seed_reproduces_first_vectors(self):
        space = SearchSpace("separable", 0.2)
        first = sample_batch(space, make_rng(31), 10)
        second = sample_batch(space, make_rng(31), 10)
        assert np.array_equal(first, second)

    def test_batches_stay_inside_bounds(self):
        for family in FAMILIES:
            space = SearchSpace(family, -0.4, t_max=3.0)
            pts = sample_batch(space, make_rng(5), 10_000)
            assert np.all(pts >= 0.0) and np.all(pts <= space.span)

    def test_draws_are_uniform_in_the_box(self):
        # every coordinate, the polar angle included, is uniform on [0, span]:
        # its mean sits at span/2 and a tenth of the draws fall in each tenth
        space = SearchSpace("separable", 0.0, t_max=7.0)
        pts = sample_batch(space, make_rng(12), 100_000)
        for column, span in enumerate(space.span):
            assert abs(np.mean(pts[:, column]) / span - 0.5) < 0.01
            counts, _ = np.histogram(pts[:, column], bins=10, range=(0.0, span))
            assert np.all(np.abs(counts / len(pts) - 0.1) < 0.005)


class TestEvaluatorMatchesProtocol:
    @pytest.mark.parametrize("family", ["separable", "entangled"])
    def test_batch_equals_best_outcome(self, family):
        # the batch value is best_outcome at the evaluator's own basis and at
        # least best_outcome at any other basis
        space = SearchSpace(family, 0.3)
        evaluator = WpEvaluator(space, SPEC)
        pts = sample_batch(space, make_rng(77), 100)
        batch = evaluator(pts)
        rng = np.random.default_rng(78)
        for point, value in zip(pts, batch):
            rho0, t = initial_state(family, 0.3, point), point[2]
            at_best = best_outcome(rho0, SPEC, t, evaluator.best_basis(point)).w_p
            assert value == pytest.approx(at_best, abs=1e-10)
            for _ in range(5):
                basis = MeasurementBasis(np.pi * rng.random(), 2.0 * np.pi * rng.random())
                assert value >= best_outcome(rho0, SPEC, t, basis).w_p - 1e-12

    @pytest.mark.parametrize("spec", [HamiltonianSpec(2.0, 4.0), HamiltonianSpec(0.5, -3.0),
                                      HamiltonianSpec(1.0, 0.0)])
    @pytest.mark.parametrize("family", ["separable", "entangled"])
    def test_other_hamiltonians_match_the_oracle(self, family, spec):
        space = SearchSpace(family, -0.6)
        evaluator = WpEvaluator(space, spec)
        for point in sample_batch(space, make_rng(5), 20):
            rho0 = initial_state(family, -0.6, point)
            oracle = best_outcome(rho0, spec, point[2], evaluator.best_basis(point)).w_p
            assert evaluator(point)[0] == pytest.approx(oracle, abs=1e-10)

    def test_best_basis_breaks_ties_at_z(self):
        # without coupling, at t = 0 and k = 0, A vanishes: every basis ties
        evaluator = WpEvaluator(SearchSpace("separable", 0.0), HamiltonianSpec(1.0, 0.0))
        point = [np.pi / 3.0, 1.0, 0.0]
        assert evaluator(point)[0] == 0.0
        assert evaluator.best_basis(point) == MeasurementBasis(0.0, 0.0)

    @pytest.mark.parametrize("h, j", [(1.0, 2.0), (1.0, 0.3), (1.0, 5.0), (2.0, 1.0),
                                      (1.0, 0.0), (1.0, -2.0)])
    def test_separable_value_ignores_the_auxiliary_azimuth(self, h, j):
        # the e^{-i phi} part of A01 carries sum_i c_i p_i = 0 (see WpEvaluator),
        # and the closed form does not read phi at all
        rng = np.random.default_rng(31)
        theta, t = np.pi * rng.random(200), 10.0 / h * rng.random(200)
        phis = 2.0 * np.pi * rng.random(8)
        for k in np.linspace(-1.0, 1.0, 21):
            evaluator = WpEvaluator(SearchSpace("separable", k, t_max=10.0 / h),
                                    HamiltonianSpec(h, j))
            values = [evaluator(np.column_stack([theta, np.full(200, phi), t])) for phi in phis]
            assert all(np.array_equal(values[0], v) for v in values[1:])

    @pytest.mark.parametrize("h, j", [(1.0, 2.0), (1.0, 0.0), (2.0, 4.0), (0.5, -3.0),
                                      (1e200, 2e200), (1e-200, 2e-200)])
    @pytest.mark.parametrize("k", [-1.0, -0.6, 0.0, 0.3, 1.0])
    @pytest.mark.parametrize("family", ["separable", "entangled"])
    def test_closed_form_is_lambda_max_of_the_oracle_matrix(self, family, k, h, j):
        # A read from the oracle state U rho0 U^dag, at random points and at the poles
        spec = HamiltonianSpec(h, j)
        rng = np.random.default_rng(11)
        pts = rng.random((300, 3)) * [np.pi, 2.0 * np.pi, 10.0 / h]
        pts[:100:2, 0], pts[1:100:2, 0] = 0.0, np.pi
        theta, phi, t = pts.T
        if family == "separable":
            rho0 = separable_initial(k, BlochVector(1.0, theta, phi))
        else:
            rho0 = entangled_initial(EntangledInitParams(k, theta, phi))
        oracle = np.linalg.eigvalsh(outcome_matrix(rho0, spec, t))[:, -1]
        got = WpEvaluator(SearchSpace(family, k, t_max=10.0 / h), spec)(pts)
        assert np.max(np.abs(got - oracle)) <= 1e-13 * h

    @pytest.mark.parametrize("family", ["separable", "entangled"])
    def test_overflowing_phases_read_minus_inf_where_the_oracle_is_not_finite(self, family):
        # J t leaves the float range for t > 1.8: the oracle's U is NaN there
        spec = HamiltonianSpec(1.0, 1e308)
        pts = np.random.default_rng(12).random((400, 3)) * [np.pi, 2.0 * np.pi, 10.0]
        theta, phi, t = pts.T
        if family == "separable":
            rho0 = separable_initial(0.3, BlochVector(1.0, theta, phi))
        else:
            rho0 = entangled_initial(EntangledInitParams(0.3, theta, phi))
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.isfinite(outcome_matrix(rho0, spec, t)).all(axis=(-2, -1))
        got = WpEvaluator(SearchSpace(family, 0.3), spec)(pts)
        assert 0 < finite.sum() < len(pts)
        assert np.array_equal(got == -np.inf, ~finite)
        assert np.all(np.isfinite(got[finite]))

    @pytest.mark.parametrize("h, j", [(1.0, 2.0), (1.0, 0.3), (2.0, 1.0), (1.0, 0.0)])
    @pytest.mark.parametrize("k", [-0.975, -0.5, 0.0, 0.4, 1.0])
    def test_separable_ground_auxiliary_beats_the_reference_protocol(self, k, h, j):
        # theta_aux = pi is the reference protocol's auxiliary, and the kernel
        # maximizes over the measurement the reference fixes to sigma_z
        spec = HamiltonianSpec(h, j)
        t = np.linspace(0.0, 10.0 / h, 2001)
        pts = np.column_stack([np.full_like(t, np.pi), np.zeros_like(t), t])
        got = WpEvaluator(SearchSpace("separable", k, t_max=10.0 / h), spec)(pts)
        assert np.all(got >= h * wp_closed_form(abs(k), 0.0, spec, t) - 1e-15 * h)

    @pytest.mark.parametrize("family", ["separable", "entangled"])
    def test_values_do_not_depend_on_the_batch_partition(self, family):
        # the kernel works in blocks of points; every value is computed on its own
        space = SearchSpace(family, 0.3)
        evaluator = WpEvaluator(space, SPEC)
        pts = sample_batch(space, make_rng(4), 5000)
        parts = [evaluator(pts[:1]), evaluator(pts[1:4097]), evaluator(pts[4097:])]
        assert np.array_equal(evaluator(pts), np.concatenate(parts))
        assert evaluator(pts[:0]).shape == (0,)

    @pytest.mark.parametrize("family", ["separable", "entangled"])
    def test_batched_call_stays_small_in_memory(self, family):
        space = SearchSpace(family, 0.3)
        evaluator = WpEvaluator(space, SPEC)
        pts = sample_batch(space, make_rng(3), 8192)
        evaluator(pts)
        tracemalloc.start()
        try:
            evaluator(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3e6

    def test_rejects_wrong_arity(self):
        evaluator = WpEvaluator(SearchSpace("entangled", 0.0), SPEC)
        with pytest.raises(ConfigError):
            evaluator(np.zeros((3, 6)))


class TestOptimize:
    def test_same_seed_same_everything(self):
        space = SearchSpace("separable", 0.1)
        a = optimize(space, SPEC, budget=4000, seed=13)
        b = optimize(space, SPEC, budget=4000, seed=13)
        assert a.best_value == b.best_value
        assert np.array_equal(a.best_params, b.best_params)
        assert a.trace == b.trace
        assert a.samples_used == b.samples_used

    @pytest.mark.parametrize("budget", [5000, 7919, 200_000])  # 7919: no lattice step fits the rest
    def test_trace_is_nondecreasing_and_capped(self, budget):
        report = optimize(SearchSpace("entangled", -0.2), SPEC, budget=budget, seed=3)
        values = [v for _, v in report.trace]
        assert all(b > a for a, b in zip(values, values[1:]))
        indices = [i for i, _ in report.trace]
        assert indices == sorted(indices)
        assert indices[-1] <= report.samples_used <= budget
        assert report.best_value == values[-1]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_doubling_the_budget_never_hurts(self, seed):
        space = SearchSpace("separable", 0.4)
        small = optimize(space, SPEC, budget=2000, seed=seed)
        large = optimize(space, SPEC, budget=4000, seed=seed)
        assert large.best_value >= small.best_value - 1e-12

    def test_ground_state_extracts_nothing(self):
        report = optimize(SearchSpace("separable", -1.0), SPEC, budget=5000, seed=8)
        assert report.best_value <= 1e-12  # no protocol drains a ground battery
        assert report.best_value > -1e-4  # and near-idle points push it to ~0

    @pytest.mark.parametrize("family", ["separable", "entangled"])
    @pytest.mark.parametrize("k", [-1.0, -0.5, 0.0, 0.5, 1.0])
    def test_best_value_never_meaningfully_negative(self, family, k):
        # idle corners (t -> 0, aligned basis) put zero-w_p points in reach;
        # no protocol beats w_p <= P (E0 + h) <= h (1 + k)
        report = optimize(SearchSpace(family, k), SPEC, budget=2000, seed=17)
        assert report.best_value >= -1e-4
        assert report.best_value <= SPEC.h * (1.0 + k) + 1e-9

    @pytest.mark.parametrize("family", ["separable", "entangled"])
    @pytest.mark.parametrize("k", [-0.7, 0.0, 0.4])
    def test_best_basis_reproduces_best_value(self, family, k):
        report = optimize(SearchSpace(family, k), SPEC, budget=5000, seed=23)
        rho0 = initial_state(family, k, report.best_params)
        t = report.best_params[2]
        assert best_outcome(rho0, SPEC, t, report.best_basis).w_p == pytest.approx(
            report.best_value, abs=1e-10
        )

    def test_maximally_mixed_battery_value(self):
        # refined runs land on the same plateau found at 1e6-sample budgets
        report = optimize(SearchSpace("separable", 0.0), SPEC, budget=60_000, seed=21)
        assert report.best_value == pytest.approx(0.4969, abs=5e-3)

    def test_entangled_matches_separable_at_full_bias(self):
        sep = optimize(SearchSpace("separable", 1.0), SPEC, budget=40_000, seed=5)
        ent = optimize(SearchSpace("entangled", 1.0), SPEC, budget=40_000, seed=5)
        assert ent.best_value == pytest.approx(sep.best_value, abs=1e-2)
        assert sep.best_value == pytest.approx(2.0, abs=1e-2)

    def test_decoupled_hamiltonian_yields_zero(self):
        report = optimize(
            SearchSpace("separable", 0.6), HamiltonianSpec(h=1.0, J=0.0), budget=3000, seed=4
        )
        assert abs(report.best_value) < 1e-2

    def test_rejects_empty_budget(self):
        with pytest.raises(ConfigError):
            optimize(SearchSpace("separable", 0.0), SPEC, budget=0, seed=1)

    @pytest.mark.parametrize("k", [-0.975, -0.1, -0.075, 0.025, 0.05, 0.1])
    def test_entangled_cli_rows_reach_the_bound(self, k):
        i = int(np.argmin(np.abs(CLI_GRID - k)))
        assert cli_row("entangled", i).best_value >= SPEC.h * (1.0 + CLI_GRID[i]) - 1e-13

    @pytest.mark.parametrize("k", [-0.975, -0.95])
    def test_separable_cli_rows_reach_the_reference_protocol(self, k):
        # ground auxiliary, sigma_z measurement: a point inside the search space
        i = int(np.argmin(np.abs(CLI_GRID - k)))
        times = np.linspace(0.0, 10.0, 100_001)
        peak = max(wp_closed_form(abs(CLI_GRID[i]), 0.0, SPEC, t) for t in times)
        assert cli_row("separable", i).best_value >= SPEC.h * peak - 1e-6

    def test_overflowing_phases_raise_a_domain_error(self):
        # J t is past the float range at every t the box holds: every value is NaN
        space = SearchSpace("separable", 0.0, t_max=1e301)
        with pytest.raises(DomainError, match=r"not finite .* h=1e-300, J=1e\+308, t_max=1e\+301"):
            optimize(space, HamiltonianSpec(1e-300, 1e308), budget=100, seed=1)

    @pytest.mark.parametrize("family", ["separable", "entangled"])
    def test_partly_overflowing_box_still_yields_a_finite_optimum(self, family):
        # J t overflows only for t > 1.8: NaN values there must not hide the rest
        report = optimize(SearchSpace(family, 0.5), HamiltonianSpec(1.0, 1e308), 3000, seed=2)
        assert np.isfinite(report.best_value)
        assert -1e-12 <= report.best_value <= 1.5 + 1e-9
        assert report.best_params[2] < 1.8

    def test_report_carries_seed(self):
        report = optimize(SearchSpace("entangled", 0.5), SPEC, budget=1500, seed=999)
        assert report.seed == 999


def chebyshev_gaps(xs, span):
    """Chebyshev distance, in units of each span, of every pair of points."""
    return [np.max(np.abs(a - b) / span) for a, b in itertools.combinations(xs, 2)]


# candidate sets on a coarse grid of the box (steps of 0.04 of each span) with
# few distinct values, so that near pairs, pairs at the separation up to
# rounding, and tied values all occur
candidate_sets = st.lists(
    st.tuples(st.integers(0, 25), st.integers(0, 25), st.integers(0, 25), st.integers(-3, 3)),
    min_size=1,
    max_size=60,
)


class TestSelectLeaders:
    SPAN = SearchSpace("separable", 0.0).span

    @given(candidate_sets)
    @settings(max_examples=200)
    def test_leaders_are_the_greedy_separated_best(self, candidates):
        grid = np.array(candidates, dtype=float)
        xs, fs = grid[:, :3] * (0.04 * self.SPAN), grid[:, 3] / 3.0
        lead_x, lead_f = optimizer._select_leaders(xs, fs, self.SPAN)
        assert 1 <= len(lead_f) <= optimizer._LEADERBOARD_SIZE
        assert min(chebyshev_gaps(lead_x, self.SPAN), default=1.0) >= 0.08
        assert np.all(np.diff(lead_f) <= 0.0)  # best first
        first = int(np.argmax(fs))  # the first candidate among the best ones
        assert lead_f[0] == fs[first] and np.array_equal(lead_x[0], xs[first])
        # reference: walk the candidates best first, ties in candidate order
        kept = []
        for i in sorted(range(len(fs)), key=lambda i: -fs[i]):
            if len(kept) < optimizer._LEADERBOARD_SIZE and all(
                np.max(np.abs(xs[i] - xs[j]) / self.SPAN) >= 0.08 for j in kept
            ):
                kept.append(i)
        assert np.array_equal(lead_x, xs[kept]) and np.array_equal(lead_f, fs[kept])

    def test_cli_row_starts_refinement_from_separated_leaders(self, monkeypatch):
        # separable k = -0.425 (row 23) once started refinement from two
        # points 0.014 of a span apart
        select, starts = optimizer._select_leaders, []

        def spy(xs, fs, span):
            lead_x, lead_f = select(xs, fs, span)
            starts.append(lead_x.copy())  # refinement moves the leaders in place
            return lead_x, lead_f

        monkeypatch.setattr(optimizer, "_select_leaders", spy)
        assert CLI_GRID[23] == pytest.approx(-0.425)
        cli_row("separable", 23)
        (lead_x,) = starts
        assert len(lead_x) == optimizer._LEADERBOARD_SIZE
        assert min(chebyshev_gaps(lead_x, self.SPAN)) >= 0.08


class TestDeriveSeed:
    def test_distinct_indices_distinct_streams(self):
        seeds = {derive_seed(42, i) for i in range(200)}
        assert len(seeds) == 200

    def test_stable_values(self):
        assert derive_seed(42, 0) == derive_seed(42, 0)
        assert derive_seed(42, 0) != derive_seed(43, 0)
        assert all(0 <= derive_seed(9, i) < 2**64 for i in range(50))
