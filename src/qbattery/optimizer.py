"""Seeded stochastic maximization of w_p over protocol parameters.

The auxiliary measurement is solved, not searched. At time t every outcome
ket chi of every auxiliary basis scores w_p = <chi|A|chi>, with

    A_ab = sum_i c_i rho_t[(i,a),(i,b)],   c = (E0 - h, E0 + h),

so the best basis and outcome give the top eigenvalue of the 2x2 matrix A,
and the winning basis is its top eigenvector. For a product initial state A
is affine in the auxiliary Bloch vector, so lambda_max(A) is convex in it
and peaks on the Bloch sphere: the auxiliary is pure (r = 1). Both families
therefore search (polar, azimuth, t) in [0, pi] x [0, 2 pi) x [0, t_max].

Two-phase search: exploration draws uniformly from that box (80% of the
evaluation budget), then a lattice zoom refines the best few well-separated
exploration candidates (the leaders) in lockstep. Each zoom step evaluates
the 5x5x5 lattice x + {-1, -1/2, 0, 1/2, 1}^3 * w around every leader x,
clipped to the box, in one batch; a leader moves to its lattice maximum when
that beats its value, and the width w halves. Draws are uniform in the
angles, not Haar-uniform on the sphere, because the optima sit at the poles,
where Haar draws almost never land.

Randomness comes from the counter-based Philox-4x64-10 generator keyed by
a 64-bit seed, so runs are bit-reproducible and exploration chunks can be
evaluated in any partition without changing the sampled points.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .battery import HamiltonianSpec
from .errors import ConfigError, DomainError
from .protocol import MeasurementBasis, joint_eig

SEPARABLE = "separable"
ENTANGLED = "entangled"

_NAMES = {
    SEPARABLE: ("theta_aux", "phi_aux", "t"),
    ENTANGLED: ("theta_schmidt", "phi_schmidt", "t"),
}

SAMPLE_CHUNK = 8192  # full chunks are always drawn, so sample i never depends on the budget
CONVERGENCE_WINDOW_TOL = 1e-2  # units of h, over the trailing budget/5 evaluations
# refinement lattice around each leader, in units of the zoom width
_LATTICE = np.array(list(itertools.product((-1.0, -0.5, 0.0, 0.5, 1.0), repeat=3)))
_ZOOM_STOP = 1e-9  # refinement ends once the zoom width falls below this fraction of the box


@dataclass(frozen=True)
class SearchSpace:
    """Protocol parameter box for one initial-state family at fixed k.

    ``separable`` searches the pure auxiliary state and the time,
    (theta_aux, phi_aux, t); ``entangled`` searches the orientation of the
    auxiliary Schmidt basis and the time, (theta_schmidt, phi_schmidt, t).
    Polar angles range over [0, pi], azimuths over [0, 2 pi) and times over
    [0, t_max]. The measurement basis is no coordinate: WpEvaluator
    maximizes over it in closed form.
    """

    family: str
    k: float
    t_max: float = 10.0

    def __post_init__(self):
        if self.family not in _NAMES:
            raise ConfigError(f"unknown family {self.family!r}")
        if abs(self.k) > 1.0:
            raise DomainError(f"population bias k must lie in [-1, 1], got {self.k}")
        if not (self.t_max > 0.0 and math.isfinite(self.t_max)):
            raise ConfigError(f"t_max must be positive and finite, got {self.t_max}")

    @property
    def n_params(self) -> int:
        return len(_NAMES[self.family])

    @property
    def param_names(self) -> tuple[str, ...]:
        return _NAMES[self.family]

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return np.zeros(3), np.array([math.pi, 2.0 * math.pi, self.t_max])

    def transform(self, u: np.ndarray) -> np.ndarray:
        """Map uniform [0,1) draws (last axis = coordinates) uniformly into the box."""
        lo, hi = self.bounds()
        return lo + u * (hi - lo)


@dataclass(frozen=True)
class OptimizationReport:
    """Outcome of one seeded search.

    ``best_params`` follows ``SearchSpace.param_names``; ``best_basis`` is the
    auxiliary measurement whose outcome 0 attains ``best_value`` there.
    """

    best_value: float
    best_params: np.ndarray
    best_basis: MeasurementBasis
    samples_used: int
    converged: bool
    trace: list[tuple[int, float]] = field(repr=False)
    seed: int


def make_rng(seed: int) -> np.random.Generator:
    """Philox generator keyed by the low 64 bits of ``seed``."""
    return np.random.Generator(np.random.Philox(key=int(seed) & (2**64 - 1)))


def derive_seed(seed: int, index: int) -> int:
    """Stable 64-bit per-index stream seed (splitmix64 mix of seed and index)."""
    mask = (1 << 64) - 1
    z = (int(seed) + (index + 1) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def sample_point(space: SearchSpace, rng: np.random.Generator) -> np.ndarray:
    """One parameter vector, uniform in the box."""
    return space.transform(rng.random(space.n_params))


def sample_batch(space: SearchSpace, rng: np.random.Generator, n: int) -> np.ndarray:
    """n parameter vectors drawn as one (n, d) block from the stream."""
    return space.transform(rng.random((n, space.n_params)))


class WpEvaluator:
    """Vectorized w_p for batches of parameter vectors, maximized in closed
    form over the auxiliary measurement basis and its outcome.

    The initial state is held as kets: a mixture of two for the separable
    family (sqrt(p_i) |i, aux> for battery level i, since the auxiliary is
    pure) and one for the entangled family. Each is evolved once, A is
    built from them, and the value is lambda_max(A). Uses the identity
    w_p = (E0 - h) M00 + (E0 + h) M11, where M is the unnormalized
    post-measurement battery operator and E0 = h*k is the initial battery
    energy, so no branch ever divides by its probability. Equals
    protocol.best_outcome at the basis ``best_basis`` returns, and is at
    least its value at any other basis.
    """

    def __init__(self, space: SearchSpace, spec: HamiltonianSpec):
        self.space = space
        self.spec = spec
        values, vectors = joint_eig(spec)
        self._freqs = values
        self._v = vectors.real  # H is real symmetric: eigh returns a real eigenbasis
        # battery marginal is diag(p0, p1) in both families
        self._sqrt_p = np.sqrt([(1.0 + space.k) / 2.0, (1.0 - space.k) / 2.0])
        e0 = spec.h * space.k
        self._c = np.array([e0 - spec.h, e0 + spec.h])

    def __call__(self, params) -> np.ndarray:
        a00, a11, a01 = self._outcome_matrix(params)
        return (a00 + a11) / 2.0 + np.hypot((a00 - a11) / 2.0, np.abs(a01))

    def best_basis(self, params) -> MeasurementBasis:
        """Basis whose outcome 0 is the top eigenvector of A at one parameter
        vector; theta = phi = 0 when A is a multiple of the identity."""
        (a00,), (a11,), (a01,) = self._outcome_matrix(params)
        if a01 == 0 and a00 == a11:  # every basis ties
            return MeasurementBasis(0.0, 0.0)
        theta = math.atan2(abs(a01), (a00 - a11) / 2.0)
        return MeasurementBasis(theta, cmath.phase(a01) % (2.0 * math.pi))

    def _outcome_matrix(self, params):
        """Entries A00, A11 (real) and A01 (complex) of A, one per vector."""
        p = np.atleast_2d(np.asarray(params, dtype=float))
        if p.shape[1] != self.space.n_params:
            raise ConfigError(f"expected {self.space.n_params} parameters, got {p.shape[1]}")
        theta, phi, t = p.T
        n = p.shape[0]
        cos, sin = np.cos(theta / 2.0), np.sin(theta / 2.0)
        s0, s1 = self._sqrt_p
        if self.space.family == SEPARABLE:
            # aux = (cos, e^{i phi} sin) has Bloch angles (theta, phi), as in bloch_state
            aux_1 = np.exp(1j * phi) * sin
            kets = np.zeros((2, n, 4), dtype=complex)
            kets[0, :, 0], kets[0, :, 1] = s0 * cos, s0 * aux_1
            kets[1, :, 2], kets[1, :, 3] = s1 * cos, s1 * aux_1
        else:
            # sqrt(p0)|0,chi> + sqrt(p1)|1,chi_perp>, as in protocol.entangled_ket
            w = np.exp(-1j * phi)
            kets = np.stack([s0 * cos, s0 * w * sin, s1 * sin, -s1 * w * cos], axis=-1)[None]
        m = kets.shape[0]
        # U(t) = V diag(e^{-iEt}) V^T with V real; real and imaginary parts go
        # through real matrix products, which cost far less than complex ones
        re, im = kets.real @ self._v, kets.imag @ self._v
        et = np.multiply.outer(t, self._freqs)
        cos_et, sin_et = np.cos(et), np.sin(et)
        re, im = re * cos_et + im * sin_et, im * cos_et - re * sin_et
        amp = (re @ self._v.T + 1j * (im @ self._v.T)).reshape(m, n, 2, 2)
        col0, col1 = amp[..., 0], amp[..., 1]  # auxiliary a = 0, 1; last axis battery level i
        c = self._c  # weight c_i of battery level i
        a00 = ((col0.real**2 + col0.imag**2) * c).sum(axis=(0, 2))
        a11 = ((col1.real**2 + col1.imag**2) * c).sum(axis=(0, 2))
        a01 = (col0 * col1.conj() * c).sum(axis=(0, 2))
        return a00, a11, a01


def optimize(
    space: SearchSpace, spec: HamiltonianSpec, budget: int, seed: int
) -> OptimizationReport:
    """Maximize w_p over the search space with a fixed evaluation budget.

    Every evaluation already takes the best auxiliary measurement (the top
    eigenvalue of A), so only (polar, azimuth, t) is searched. Exploration
    scans samples drawn uniformly from the box; refinement then zooms in on
    the leaderboard candidates in lockstep, one batched 125-point lattice per
    leader and step, halving the lattice width every step until it falls
    below 1e-9 of the box or the next step would overrun the budget.
    Refinement draws no random numbers.

    ``trace`` lists (evaluations spent, best value) each time the best value
    rises: during exploration the index is that of the improving sample,
    during refinement the end of the improving step. ``converged`` reports
    whether the trailing ceil(budget/5) exploration samples still moved the
    running best by 1e-2 * h or more (refinement steps are not judged).
    """
    if budget < 1:
        raise ConfigError(f"budget must be at least 1, got {budget}")
    evaluator = WpEvaluator(space, spec)
    rng = make_rng(seed)
    lo, hi = space.bounds()

    best = -math.inf
    best_x: np.ndarray | None = None
    trace: list[tuple[int, float]] = []
    used = 0
    leaders: list[tuple[float, np.ndarray]] = []  # well-separated top points, best first

    n_explore = max(1, (4 * budget) // 5)
    remaining = n_explore
    while remaining > 0:
        pts = sample_batch(space, rng, SAMPLE_CHUNK)
        m = min(SAMPLE_CHUNK, remaining)
        vals = evaluator(pts[:m])
        cummax = np.maximum.accumulate(vals)
        previous = np.concatenate(([best], cummax[:-1]))
        for j in np.flatnonzero(vals > np.maximum(previous, best)):
            best = float(vals[j])
            best_x = pts[j].copy()
            trace.append((used + j + 1, best))
        _update_leaderboard(leaders, pts[:m], vals, hi - lo)
        used += m
        remaining -= m

    explore_best = best
    # every leader zooms: the best exploration point need not sit in the
    # basin of the best optimum
    xs = np.array([x for _, x in leaders])
    fs = np.array([f for f, _ in leaders])
    step_points = len(leaders) * len(_LATTICE)
    width = 0.125  # zoom width, as a fraction of each coordinate's span
    while width >= _ZOOM_STOP and used + step_points <= budget:
        pts = np.clip(xs[:, None, :] + _LATTICE * (width * (hi - lo)), lo, hi)
        vals = evaluator(pts.reshape(-1, space.n_params)).reshape(len(xs), -1)
        used += step_points
        top = np.argmax(vals, axis=1)
        top_vals = vals[np.arange(len(xs)), top]
        moved = top_vals > fs
        xs[moved], fs[moved] = pts[moved, top[moved]], top_vals[moved]
        lead = int(np.argmax(fs))
        if fs[lead] > best:
            best, best_x = float(fs[lead]), xs[lead].copy()
            trace.append((used, best))
        width /= 2.0

    # convergence is judged on the random-sampling phase: did the trailing
    # ceil(budget/5) random samples still move the running best by >= 1e-2 h?
    window = math.ceil(budget / 5)
    baseline = _running_best_at(trace, max(n_explore - window, 1))
    converged = (explore_best - baseline) < CONVERGENCE_WINDOW_TOL * spec.h
    return OptimizationReport(
        best, best_x, evaluator.best_basis(best_x), used, converged, trace, seed
    )


_LEADERBOARD_SIZE = 8
_LEADERBOARD_SEPARATION = 0.08  # of each coordinate's span, Chebyshev


def _update_leaderboard(leaders, pts, vals, span):
    """Keep the best few points that are mutually separated in the box."""
    for j in np.argsort(vals)[::-1][: 4 * _LEADERBOARD_SIZE]:
        value = float(vals[j])
        if len(leaders) == _LEADERBOARD_SIZE and value <= leaders[-1][0]:
            break
        point = pts[j]
        near = None
        for i, (_, kept) in enumerate(leaders):
            if np.max(np.abs(point - kept) / span) < _LEADERBOARD_SEPARATION:
                near = i
                break
        if near is None:
            leaders.append((value, point.copy()))
        elif value > leaders[near][0]:
            leaders[near] = (value, point.copy())
        else:
            continue
        leaders.sort(key=lambda pair: -pair[0])
        del leaders[_LEADERBOARD_SIZE:]


def _running_best_at(trace, index):
    value = -math.inf
    for i, v in trace:
        if i > index:
            break
        value = v
    return value
