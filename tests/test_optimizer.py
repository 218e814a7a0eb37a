import numpy as np
import pytest

from qbattery.analytic import wp_closed_form
from qbattery.battery import BlochVector, HamiltonianSpec
from qbattery.errors import ConfigError, DomainError
from qbattery.optimizer import (
    SearchSpace,
    WpEvaluator,
    derive_seed,
    make_rng,
    optimize,
    sample_batch,
    sample_point,
)
from qbattery.protocol import (
    EntangledInitParams,
    MeasurementBasis,
    best_outcome,
    entangled_initial,
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
        assert SearchSpace("separable", 0.0).n_params == 3
        assert SearchSpace("entangled", 0.0).n_params == 3

    def test_bounds_cover_the_box(self):
        for family in ("separable", "entangled"):
            lo, hi = SearchSpace(family, 0.0, t_max=7.0).bounds()
            assert np.allclose(lo, 0.0)
            assert np.allclose(hi, [np.pi, 2.0 * np.pi, 7.0])

    def test_rejects_unknown_family(self):
        with pytest.raises(ConfigError):
            SearchSpace("tripartite", 0.0)

    def test_rejects_degenerate_time_bound(self):
        with pytest.raises(ConfigError):
            SearchSpace("separable", 0.0, t_max=0.0)

    def test_rejects_bad_bias(self):
        with pytest.raises(DomainError):
            SearchSpace("separable", 1.5)


class TestSampling:
    def test_fixed_seed_reproduces_first_vectors(self):
        space = SearchSpace("separable", 0.2)
        first = [sample_point(space, make_rng(31)) for _ in range(10)]
        second = [sample_point(space, make_rng(31)) for _ in range(10)]
        assert all(np.array_equal(a, b) for a, b in zip(first, second))

    def test_batches_stay_inside_bounds(self):
        for family in ("separable", "entangled"):
            space = SearchSpace(family, -0.4, t_max=3.0)
            pts = sample_batch(space, make_rng(5), 10_000)
            lo, hi = space.bounds()
            assert np.all(pts >= lo) and np.all(pts <= hi)

    def test_draws_are_uniform_in_the_box(self):
        # every coordinate, the polar angle included, is uniform on [0, hi]:
        # its mean sits at hi/2 and a tenth of the draws fall in each tenth
        space = SearchSpace("separable", 0.0, t_max=7.0)
        pts = sample_batch(space, make_rng(12), 100_000)
        _, hi = space.bounds()
        for column in range(3):
            assert abs(np.mean(pts[:, column]) / hi[column] - 0.5) < 0.01
            counts, _ = np.histogram(pts[:, column], bins=10, range=(0.0, hi[column]))
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

    def test_report_carries_seed(self):
        report = optimize(SearchSpace("entangled", 0.5), SPEC, budget=1500, seed=999)
        assert report.seed == 999


class TestDeriveSeed:
    def test_distinct_indices_distinct_streams(self):
        seeds = {derive_seed(42, i) for i in range(200)}
        assert len(seeds) == 200

    def test_stable_values(self):
        assert derive_seed(42, 0) == derive_seed(42, 0)
        assert derive_seed(42, 0) != derive_seed(43, 0)
        assert all(0 <= derive_seed(9, i) < 2**64 for i in range(50))
