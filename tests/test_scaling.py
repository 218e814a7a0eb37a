"""Scaling law of the model: (h, J, t) -> (lambda h, lambda J, t / lambda)
multiplies every w_p by lambda, since U depends on H t only and energies
are linear in h."""

import numpy as np
import pytest

from qbattery.analytic import mps_scan
from qbattery.battery import BlochVector, HamiltonianSpec
from qbattery.optimizer import SearchSpace, WpEvaluator, optimize
from qbattery.protocol import (
    EntangledInitParams,
    MeasurementBasis,
    entangled_initial,
    run_protocol,
    separable_initial,
)

BASE = HamiltonianSpec(h=0.8, J=1.7)
SCALES = (0.5, 2.0, 3.0, 1e-200, 1e200, 1e308, 2.0**1000, 2.0**-1000)


def scaled(spec, lam):
    return HamiltonianSpec(lam * spec.h, lam * spec.J)


def random_cases(rng, n):
    for i in range(n):
        k = 2.0 * rng.random() - 1.0
        polar, azimuth = np.arccos(1.0 - 2.0 * rng.random()), 2.0 * np.pi * rng.random()
        if i % 2:
            rho0 = entangled_initial(EntangledInitParams(k, polar, azimuth))
        else:
            rho0 = separable_initial(k, BlochVector(rng.random(), polar, azimuth))
        basis = MeasurementBasis(np.pi * rng.random(), 2.0 * np.pi * rng.random())
        yield rho0, 10.0 * rng.random(), basis, i % 4 // 2


@pytest.mark.parametrize("lam", SCALES)
def test_run_protocol_scales(lam):
    big = scaled(BASE, lam)
    for rho0, t, basis, outcome in random_cases(np.random.default_rng(31), 200):
        base = run_protocol(rho0, BASE, t, basis, outcome).w_p
        assert run_protocol(rho0, big, t / lam, basis, outcome).w_p == pytest.approx(
            lam * base, abs=1e-12 * lam * BASE.h
        )


@pytest.mark.parametrize("family", ["separable", "entangled"])
@pytest.mark.parametrize("lam", SCALES)
def test_evaluator_scales(family, lam):
    # the box scales as its times do: t_max = 10 becomes 10/lambda
    rng = np.random.default_rng(5)
    params = rng.random((500, 3)) * [np.pi, 2.0 * np.pi, 10.0]
    base = WpEvaluator(SearchSpace(family, k=0.3), BASE)(params)
    space = SearchSpace(family, k=0.3, t_max=10.0 / lam)
    got = WpEvaluator(space, scaled(BASE, lam))(params / [1.0, 1.0, lam])
    assert np.max(np.abs(got - lam * base)) <= 1e-12 * lam * BASE.h


@pytest.mark.parametrize("lam", SCALES)
def test_mps_scan_scales(lam):
    # the probe time is min(0.1, 0.5/w)/h, and w = W/h does not depend on lambda
    base = mps_scan(11, BASE)
    big = mps_scan(11, scaled(BASE, lam))
    assert big.t_probe == pytest.approx(base.t_probe / lam, rel=1e-15)
    assert np.max(np.abs(big.max_wp - lam * base.max_wp)) <= 1e-12 * lam * BASE.h
    assert np.array_equal(big.passive, base.passive)


@pytest.mark.parametrize("family", ["separable", "entangled"])
@pytest.mark.parametrize("g", [2.0, 1.5, -0.7, 100.0])
@pytest.mark.parametrize("lam", [2.0**1000, 2.0**-1000])
def test_optimize_scales(family, g, lam):
    # scaling by a power of two is exact, so the search draws the same points in
    # units of 1/h and the report is the (1, g) report, bit for bit
    base = optimize(SearchSpace(family, k=0.3), HamiltonianSpec(1.0, g), 2000, 1)
    space = SearchSpace(family, k=0.3, t_max=10.0 / lam)
    big = optimize(space, HamiltonianSpec(lam, lam * g), 2000, 1)
    assert big.best_value / lam == base.best_value
    assert np.array_equal(big.best_params * [1.0, 1.0, lam], base.best_params)
    assert (big.samples_used, big.converged) == (base.samples_used, base.converged)
    if lam > 1.0:
        # at 2^-1000 the products of outcome_matrix are subnormal, and they move the
        # azimuth of a near-polar basis
        assert big.best_basis == base.best_basis


def test_optimize_runs_where_two_h_overflows():
    # 2h and sqrt(4h^2 + J^2) overflow at h = 1e308; the phases w tau and g tau do not
    base = optimize(SearchSpace("separable", 0.3), HamiltonianSpec(1.0, 1.5), 2000, 1)
    space = SearchSpace("separable", 0.3, t_max=1e-307)
    big = optimize(space, HamiltonianSpec(1e308, 1.5e308), 2000, 1)
    assert big.best_value / 1e308 == pytest.approx(base.best_value, rel=1e-12)
    np.testing.assert_allclose(big.best_params * [1.0, 1.0, 1e308], base.best_params, rtol=1e-12)
    assert (big.samples_used, big.converged) == (base.samples_used, base.converged)
