"""Scaling law of the model: (h, J, t) -> (lambda h, lambda J, t / lambda)
multiplies every w_p by lambda, since U depends on H t only and energies
are linear in h."""

import numpy as np
import pytest

from qbattery.analytic import mps_scan
from qbattery.battery import BlochVector, HamiltonianSpec
from qbattery.optimizer import SearchSpace, WpEvaluator
from qbattery.protocol import (
    EntangledInitParams,
    MeasurementBasis,
    entangled_initial,
    run_protocol,
    separable_initial,
)

BASE = HamiltonianSpec(h=0.8, J=1.7)
SCALES = (0.5, 2.0, 3.0)


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
    space = SearchSpace(family, k=0.3)
    rng = np.random.default_rng(5)
    params = rng.random((500, 3)) * [np.pi, 2.0 * np.pi, 10.0]
    base = WpEvaluator(space, BASE)(params)
    got = WpEvaluator(space, scaled(BASE, lam))(params / [1.0, 1.0, lam])
    assert np.max(np.abs(got - lam * base)) <= 1e-12 * lam * BASE.h


@pytest.mark.parametrize("lam", SCALES)
def test_mps_scan_scales(lam):
    # the probe time is 0.1/h, so it scales with the spec
    base = mps_scan(11, BASE)
    big = mps_scan(11, scaled(BASE, lam))
    assert big.t_probe == pytest.approx(base.t_probe / lam, rel=1e-15)
    assert np.max(np.abs(big.max_wp - lam * base.max_wp)) <= 1e-12 * lam * BASE.h
    assert np.array_equal(big.passive, base.passive)
