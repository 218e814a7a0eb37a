import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbattery.analytic import wp_closed_form
from qbattery.battery import BlochVector, HamiltonianSpec
from qbattery.errors import DomainError
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
    run_protocol,
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


class TestSampling:
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
    @pytest.mark.parametrize("spec, k", [(SPEC, 0.3), (HamiltonianSpec(2.0, 4.0), -0.6),
                                         (HamiltonianSpec(0.5, -3.0), -0.6),
                                         (HamiltonianSpec(1.0, 0.0), -0.6)])
    @pytest.mark.parametrize("family", ["separable", "entangled"])
    def test_batch_equals_best_outcome(self, family, spec, k):
        # the batch value is best_outcome at the evaluator's own basis and at
        # least best_outcome at any other basis, each scored in one stacked call
        space = SearchSpace(family, k)
        evaluator = WpEvaluator(space, spec)
        pts = sample_batch(space, make_rng(77), 100)
        batch = evaluator(pts)
        rho0, t = initial_state(family, k, pts.T), pts[:, 2]
        bases = [evaluator.best_basis(point) for point in pts]
        at_best = MeasurementBasis(*np.array([(b.theta, b.phi) for b in bases]).T)
        assert np.max(np.abs(batch - best_outcome(rho0, spec, t, at_best).w_p)) <= 1e-10
        rng = np.random.default_rng(78)
        others = MeasurementBasis(np.pi * rng.random((100, 5)), 2.0 * np.pi * rng.random((100, 5)))
        w_p = best_outcome(rho0[:, None], spec, t[:, None], others).w_p
        assert np.all(batch[:, None] >= w_p - 1e-12)

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

    @pytest.mark.parametrize("spec", [SPEC, HamiltonianSpec(1.0, 4e8)])
    @pytest.mark.parametrize("family", ["separable", "entangled"])
    def test_values_do_not_depend_on_the_batch_partition(self, family, spec):
        # the kernel works in blocks of SAMPLE_CHUNK points; every value is
        # computed on its own, at the default coupling and near the largest
        # phase check_phase accepts at t_max = 10/h
        block = optimizer.SAMPLE_CHUNK
        space = SearchSpace(family, 0.3)
        evaluator = WpEvaluator(space, spec)
        pts = sample_batch(space, make_rng(4), 2 * block + 3)
        whole = evaluator(pts)
        cuts = [0, 1, 1, block - 5, block + 7, 2 * block + 1, len(pts)]  # parts of 1 and 0 points
        parts = [evaluator(pts[a:b]) for a, b in zip(cuts, cuts[1:])]
        assert np.array_equal(whole, np.concatenate(parts))
        assert evaluator(pts[:0]).shape == (0,)

    @pytest.mark.parametrize("family", ["separable", "entangled"])
    def test_calls_share_no_state(self, family):
        # the workspace is reused, and a returned array is the caller's own
        space = SearchSpace(family, 0.3)
        evaluator = WpEvaluator(space, SPEC)
        big = sample_batch(space, make_rng(6), optimizer.SAMPLE_CHUNK)
        small = sample_batch(space, make_rng(7), 7)
        first, middle, last = evaluator(big), evaluator(small), evaluator(big)
        assert np.array_equal(first, last)
        assert np.array_equal(middle, WpEvaluator(space, SPEC)(small))
        first[:] = np.nan
        assert np.array_equal(evaluator(big), last)

    @pytest.mark.parametrize("family", ["separable", "entangled"])
    def test_repeat_call_allocates_only_its_result(self, family):
        # the workspace is allocated with the evaluator, so an 8192-point call
        # allocates its 64 KiB result and a few small objects (67.6 kB
        # separable and 67.9 kB entangled measured, numpy 2.4)
        space = SearchSpace(family, 0.3)
        evaluator = WpEvaluator(space, SPEC)
        pts = sample_batch(space, make_rng(3), optimizer.SAMPLE_CHUNK)
        evaluator(pts)
        tracemalloc.start()
        try:
            evaluator(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * optimizer.SAMPLE_CHUNK + 8192


class TestOptimize:
    def test_same_seed_same_everything(self):
        space = SearchSpace("separable", 0.1)
        a = optimize(space, SPEC, budget=4000, seed=13)
        b = optimize(space, SPEC, budget=4000, seed=13)
        assert a.best_value == b.best_value
        assert np.array_equal(a.best_params, b.best_params)
        assert a.best_basis == b.best_basis
        assert a.converged == b.converged
        assert a.samples_used == b.samples_used

    @pytest.mark.parametrize("family", ["separable", "entangled"])
    @pytest.mark.parametrize("budget", [5000, 7919, 200_000])  # 7919: no lattice step fits the rest
    def test_best_value_is_the_value_at_best_params_within_budget(self, family, budget):
        space = SearchSpace(family, -0.2)
        report = optimize(space, SPEC, budget=budget, seed=3)
        assert report.samples_used <= budget
        assert WpEvaluator(space, SPEC)(report.best_params)[0] == report.best_value

    def test_samples_are_rows_of_one_stream_whatever_the_budget(self):
        # exploration draws SAMPLE_CHUNK rows at a time and the last chunk only
        # the rows it uses: sample i is row i of one draw of them all
        space = SearchSpace("entangled", 0.3)
        rng = make_rng(9)
        chunks = [sample_batch(space, rng, optimizer.SAMPLE_CHUNK), sample_batch(space, rng, 1600)]
        whole = sample_batch(space, make_rng(9), optimizer.SAMPLE_CHUNK + 1600)
        assert np.array_equal(np.concatenate(chunks), whole)

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

    @pytest.mark.parametrize("k", [-0.975, -0.1, -0.075, 0.025, 0.05, 0.1])
    def test_entangled_cli_rows_reach_the_bound(self, k):
        i = int(np.argmin(np.abs(CLI_GRID - k)))
        assert cli_row("entangled", i).best_value >= SPEC.h * (1.0 + CLI_GRID[i]) - 1e-13

    @pytest.mark.parametrize("k", [-0.975, -0.95])
    def test_separable_cli_rows_reach_the_reference_protocol(self, k):
        # ground auxiliary, sigma_z measurement: a point inside the search space
        i = int(np.argmin(np.abs(CLI_GRID - k)))
        peak = wp_closed_form(abs(CLI_GRID[i]), 0.0, SPEC, np.linspace(0.0, 10.0, 100_001)).max()
        assert cli_row("separable", i).best_value >= SPEC.h * peak - 1e-6

    @pytest.mark.xfail(strict=True, reason="ROADMAP direction 1: at J/h = 100 the window holds "
                       "about 318 near-equal peaks in t, refinement zooms on 8 leaders, and "
                       "converged reads only the trailing exploration samples")
    def test_strong_coupling_row_reaches_the_optimum_or_reports_unconverged(self):
        # row 9 (k = -0.1) of `sweep separable --J 100 --k-points 21`
        k = float(np.linspace(-1.0, 1.0, 21)[9])
        space, spec = SearchSpace("separable", k, 10.0), HamiltonianSpec(1.0, 100.0)
        # a witness: the ground auxiliary at t = 9.9814101, measured in its best basis
        witness = (np.pi, 0.0, 9.9814101)
        rho0 = separable_initial(k, BlochVector(1.0, np.pi, 0.0))
        basis = WpEvaluator(space, spec).best_basis(witness)
        reachable = run_protocol(rho0, spec, witness[2], basis, 0).w_p  # 0.0982306314471 h
        report = optimize(space, spec, 200_000, derive_seed(CLI_SEED, 9))
        assert report.best_value >= reachable - 1e-9 or not report.converged

    def test_report_carries_seed(self):
        report = optimize(SearchSpace("entangled", 0.5), SPEC, budget=1500, seed=999)
        assert report.seed == 999


# h at both ends of the float range and in its middle; at J = 0, Omega t_max = 2h t_max
SCALES = [2.0**-600, 1.0, 2.0**600]
# the largest accepted phases: Omega t_max just below 2^33 rad at J = 0, and Omega t_max of
# about 4e9 rad at J/h = 4e8, t_max = 10/h
EDGE_CASES = [(h, 0.0, math.nextafter(2.0**32 / h, 0.0)) for h in SCALES] + [(1.0, 4e8, 10.0)]


class TestPhaseRule:
    """One rule, check_phase, decides which boxes a search accepts: one ulp of
    the phase Omega t_max must stay below MAX_PHASE_ULP = 1e-6 rad, so the
    rule refuses from Omega t_max = 2^33 rad on, at every scale of h."""

    @pytest.mark.parametrize("h", SCALES)
    @pytest.mark.parametrize("family", ["separable", "entangled"])
    def test_evaluator_and_optimize_refuse_from_the_phase_2_to_the_33(self, family, h):
        spec = HamiltonianSpec(h, 0.0)
        refused = SearchSpace(family, 0.3, t_max=2.0**32 / h)  # Omega t_max = 2^33 exactly
        named = r"Omega\*t_max = 8\.59e\+09 rad .* at J/h=0, t_max=4\.29497e\+09/h: "
        with pytest.raises(DomainError, match=named):
            WpEvaluator(refused, spec)
        with pytest.raises(DomainError, match=named):
            optimize(refused, spec, budget=100, seed=1)
        accepted = SearchSpace(family, 0.3, t_max=math.nextafter(2.0**32 / h, 0.0))
        assert math.isfinite(optimize(accepted, spec, budget=100, seed=1).best_value)

    @pytest.mark.parametrize("h, j, t_max", EDGE_CASES)
    @pytest.mark.parametrize("family", ["separable", "entangled"])
    def test_largest_accepted_phases_give_finite_values_without_warning(self, family, h, j,
                                                                      t_max):
        space, spec = SearchSpace(family, 0.3, t_max=t_max), HamiltonianSpec(h, j)
        pts = sample_batch(space, make_rng(8), 20_000)
        pts[:100, 2] = t_max  # the far edge of the box itself
        with warnings.catch_warnings(), np.errstate(all="raise", under="ignore"):
            warnings.simplefilter("error")
            values = WpEvaluator(space, spec)(pts)
            report = optimize(space, spec, budget=3000, seed=2)
        assert np.all(np.isfinite(values)) and math.isfinite(report.best_value)


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
