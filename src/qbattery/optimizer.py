"""Seeded stochastic maximization of w_p over protocol parameters.

The auxiliary measurement is solved, not searched. At time t every outcome
ket chi of every auxiliary basis scores w_p = <chi|A|chi>, with

    A_ab = sum_i c_i rho_t[(i,a),(i,b)],   c = (E0 - h, E0 + h),

so the best basis and outcome give the top eigenvalue of the 2x2 matrix A,
and the winning basis is its top eigenvector. WpEvaluator evaluates that
eigenvalue in closed form; its ``best_basis`` reads A from the oracle state
through protocol.outcome_matrix. For a product initial state A
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

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .battery import BlochVector, HamiltonianSpec, check_population_bias
from .errors import ConfigError, DomainError
from .protocol import (
    EntangledInitParams, MeasurementBasis, entangled_initial, outcome_matrix, separable_initial
)

SEPARABLE = "separable"
ENTANGLED = "entangled"
FAMILIES = (SEPARABLE, ENTANGLED)

SAMPLE_CHUNK = 8192  # full chunks are always drawn, so sample i never depends on the budget
CONVERGENCE_WINDOW_TOL = 1e-2  # units of h, over the trailing budget/5 evaluations
# refinement lattice around each leader, in units of the zoom width
_LATTICE = np.array(list(itertools.product((-1.0, -0.5, 0.0, 0.5, 1.0), repeat=3)))
_ZOOM_STOP = 1e-9  # refinement ends once the zoom width falls below this fraction of the box
_BLOCK = 2048  # WpEvaluator points per kernel pass: small temporaries that stay in cache


@dataclass(frozen=True)
class SearchSpace:
    """Protocol parameter box for one initial-state family at fixed k.

    ``separable`` searches the pure auxiliary state and the time,
    (theta_aux, phi_aux, t); ``entangled`` searches the orientation of the
    auxiliary Schmidt basis and the time, (theta_schmidt, phi_schmidt, t).
    The box is [0, span] per coordinate: polar angles over [0, pi],
    azimuths over [0, 2 pi) and times over [0, t_max]. The measurement
    basis is no coordinate: WpEvaluator maximizes over it in closed form.
    """

    family: str
    k: float
    t_max: float = 10.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown family {self.family!r}")
        check_population_bias(self.k)
        if not (self.t_max > 0.0 and math.isfinite(self.t_max)):
            raise ConfigError(f"t_max must be positive and finite, got {self.t_max}")

    @property
    def span(self) -> np.ndarray:
        """Upper corner of the box; the lower corner is the origin."""
        return np.array([math.pi, 2.0 * math.pi, self.t_max])


@dataclass(frozen=True)
class OptimizationReport:
    """Outcome of one seeded search.

    ``best_params`` is (polar, azimuth, t) as in SearchSpace; ``best_basis`` is the
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


def sample_batch(space: SearchSpace, rng: np.random.Generator, n: int) -> np.ndarray:
    """n parameter vectors drawn as one (n, 3) block from the stream, uniform in the box."""
    u = rng.random((n, 3))
    u *= space.span
    return u


def _sin_cos(x):
    """sin(x) and cos(x) from u = tan(x/2), as 2u/(1 + u^2) and (1 - u^2)/(1 + u^2):
    one tangent instead of two scalar-loop calls, since numpy vectorises tan
    but not sin or cos on x86 (2.4 against 12 ns a point with AVX-512). Both
    are within a few ulp, tan(x/2) is finite for every finite x (so 1 + u^2
    cannot overflow), and a non-finite x gives NaN."""
    u = np.tan(0.5 * x)
    d = 2.0 / (1.0 + u * u)
    return u * d, d - 1.0


class WpEvaluator:
    """Vectorized w_p for batches of parameter vectors, maximized in closed
    form over the auxiliary measurement basis and its outcome: the value is
    lambda_max(A), with A as in the module docstring.

    The kernel is real arithmetic in units of h. With tau = h t, g = J/h and
    W = Omega/h, it reads the phases W tau = Omega t and g tau = J t as
    protocol.joint_unitary forms them (so a value is finite exactly where the
    oracle is), the amplitudes g/W = J/Omega and 2/W = 2h/Omega (at most 1 at
    any scale of h and J) and the energies c/h = (k - 1, k + 1), and it
    multiplies the result by h once at the end. Sines and cosines come from
    half-angle tangents (_sin_cos): three a point for the separable family,
    four for the entangled one. With c = cos(theta) and s = sin(theta):

    * Separable: with q = (g/W)^2 sin^2(W tau) and r = sin^2(g tau),
          w/h = [c (q - r) + k (q + r)]/2
                + |k| sqrt([k (q - r) + c (q + r)]^2 + 4 s^2 q r)/2.
      phi_aux drops out exactly. U conserves Z x Z parity, so U|j, a> lives
      on (j, a) and (1-j, 1-a) and each evolved amplitude carries one phase,
      1 or e^{i phi}, which A00 and A11 do not see; the e^{-i phi} part of
      A01 carries sum_j c_j p_j = E0 - Tr(rho_b h sigma_z) = 0. Only the
      best basis turns with phi.
    * Entangled: the evolved state is pure, so A = c0 u u^dag + c1 v v^dag
      for its level-0 and level-1 auxiliary parts u and v (|u|^2 + |v|^2 = 1).
      Then Tr A / h = 2T with T = (1 + k)/2 - |u|^2, and det A / h^2 =
      -(1 - k^2) |Delta|^2 with Delta = u0 v1 - u1 v0, so
          w/h = T + sqrt(T^2 + (1 - k^2) |Delta|^2).
      With kappa = sqrt(1 - k^2), C, S = (1 +- c)/2, x = (2/W) sin(W tau),
      y = (g/W) sin(W tau), G = cos(W tau) sin(phi) - x cos(phi) and
      M = cos(W tau) cos(phi) + x sin(phi), the parts are
          X = C y^2 + S sin^2(g tau),   Y = C y G + S sin(g tau) cos(g tau) sin(phi),
          T = k X - kappa Y,   Re Delta = k Y + kappa X - kappa/2,
          Im Delta = S sin(g tau) cos(g tau) cos(phi) - C y M.
      No angle is doubled, so nothing overflows before g tau does.

    Equals protocol.best_outcome at the basis ``best_basis`` returns, and is
    at least its value at any other. A point whose phases leave the
    floating-point range reads -inf.
    """

    def __init__(self, space: SearchSpace, spec: HamiltonianSpec):
        self.space = space
        self.spec = spec
        self._kappa = math.sqrt((1.0 - space.k) * (1.0 + space.k))
        self._flip, self._tilt = spec.J / spec.omega, 2.0 * spec.h / spec.omega  # g/W, 2/W

    def __call__(self, params) -> np.ndarray:
        p = np.atleast_2d(np.asarray(params, dtype=float))
        if p.shape[1] != len(self.space.span):
            raise ConfigError(f"expected {len(self.space.span)} parameters, got {p.shape[1]}")
        blocks = range(0, len(p) or 1, _BLOCK)  # an empty batch is one empty block
        return np.concatenate([self._values(p[i : i + _BLOCK]) for i in blocks])

    def _values(self, p):
        theta, phi, t = np.ascontiguousarray(p.T)  # contiguous columns: faster ufuncs
        with np.errstate(over="ignore", invalid="ignore"):
            sin_w, cos_w = _sin_cos(self.spec.omega * t)
            sin_j, cos_j = _sin_cos(self.spec.J * t)
            c = _sin_cos(theta)[1]
            if self.space.family == SEPARABLE:
                value = self._separable(c, sin_w, sin_j)
            else:
                value = self._entangled(c, *_sin_cos(phi), sin_w, cos_w, sin_j, cos_j)
            value *= self.spec.h
        value[~np.isfinite(value)] = -math.inf  # phases past the float range rank below all
        return value

    def _separable(self, c, sin_w, sin_j):
        k = self.space.k
        q = self._flip * sin_w
        q *= q
        r = sin_j * sin_j
        # c (q - r) + k (q + r) = mq - nr and k (q - r) + c (q + r) = mq + nr
        mq, nr = (c + k) * q, (c - k) * r
        root = (mq + nr) ** 2 + 4.0 * ((1.0 - c) * (1.0 + c)) * (q * r)
        return 0.5 * (mq - nr) + (0.5 * abs(k)) * np.sqrt(root)

    def _entangled(self, c, sin_p, cos_p, sin_w, cos_w, sin_j, cos_j):
        k, kappa = self.space.k, self._kappa
        up = 0.5 + 0.5 * c
        down = 1.0 - up  # C and S
        y = self._flip * sin_w
        # C y G = sin(phi) alpha - cos(phi) gamma and C y M = cos(phi) alpha + sin(phi) gamma
        alpha, gamma = up * (y * cos_w), up * (y * (self._tilt * sin_w))
        beta = down * (sin_j * cos_j)
        big_x = up * (y * y) + down * (sin_j * sin_j)
        big_y = sin_p * (alpha + beta) - cos_p * gamma
        im = cos_p * (beta - alpha) - sin_p * gamma
        trace = k * big_x - kappa * big_y
        re = k * big_y + kappa * big_x - 0.5 * kappa
        return trace + np.sqrt(trace * trace + (kappa * kappa) * (re * re + im * im))

    def best_basis(self, params) -> MeasurementBasis:
        """Basis whose outcome 0 is the top eigenvector of A at one parameter
        vector, with A read from the oracle state U rho0 U^dag by
        protocol.outcome_matrix; theta = phi = 0 when A is a multiple of the
        identity."""
        theta, phi, t = params
        if self.space.family == SEPARABLE:
            rho0 = separable_initial(self.space.k, BlochVector(1.0, theta, phi))
        else:
            rho0 = entangled_initial(EntangledInitParams(self.space.k, theta, phi))
        a = outcome_matrix(rho0, self.spec, t)
        half_gap, re, im = (a[0, 0].real - a[1, 1].real) / 2.0, a[0, 1].real, a[0, 1].imag
        if re == im == half_gap == 0.0:  # every basis ties
            return MeasurementBasis(0.0, 0.0)
        polar = math.atan2(math.hypot(re, im), half_gap)
        return MeasurementBasis(polar, math.atan2(im, re) % (2.0 * math.pi))


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
    Raises DomainError when no exploration value is finite.
    """
    if budget < 1:
        raise ConfigError(f"budget must be at least 1, got {budget}")
    evaluator = WpEvaluator(space, spec)
    rng = make_rng(seed)
    span = space.span

    best = -math.inf
    best_x: np.ndarray | None = None
    trace: list[tuple[int, float]] = []
    leaders: list[tuple[float, np.ndarray]] = []  # well-separated top points, best first

    n_explore = max(1, (4 * budget) // 5)
    for used in range(0, n_explore, SAMPLE_CHUNK):
        pts = sample_batch(space, rng, SAMPLE_CHUNK)[: n_explore - used]
        vals = evaluator(pts)
        running = np.maximum.accumulate(np.concatenate(([best], vals)))  # best before each sample
        for j in np.flatnonzero(vals > running[:-1]):
            best = float(vals[j])
            best_x = pts[j].copy()
            trace.append((used + j + 1, best))
        _update_leaderboard(leaders, pts, vals, span)

    if best == -math.inf:
        raise DomainError(f"w_p is not finite at any of {n_explore} samples for h={spec.h}, "
                          f"J={spec.J}, t_max={space.t_max}: phases beyond the float range")
    # convergence is judged on exploration: did the trailing ceil(budget/5)
    # samples, those after sample number cut, move the running best by >= 1e-2 h?
    # trace holds every rise, so its last entry up to cut is the best before them
    cut = max(n_explore - math.ceil(budget / 5), 1)
    baseline = max((value for index, value in trace if index <= cut), default=-math.inf)
    converged = (best - baseline) < CONVERGENCE_WINDOW_TOL * spec.h
    # every leader zooms: the best exploration point need not sit in the
    # basin of the best optimum
    xs = np.array([x for _, x in leaders])
    fs = np.array([f for f, _ in leaders])
    used = n_explore
    step_points = len(leaders) * len(_LATTICE)
    width = 0.125  # zoom width, as a fraction of each coordinate's span
    while width >= _ZOOM_STOP and used + step_points <= budget:
        pts = np.clip(xs[:, None, :] + _LATTICE * (width * span), 0.0, span)
        vals = evaluator(pts.reshape(-1, len(span))).reshape(len(xs), -1)
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

    return OptimizationReport(
        best, best_x, evaluator.best_basis(best_x), used, converged, trace, seed
    )


_LEADERBOARD_SIZE = 8
_LEADERBOARD_SEPARATION = 0.08  # of each coordinate's span, Chebyshev


def _update_leaderboard(leaders, pts, vals, span):
    """Keep the best few points that are mutually separated in the box."""
    first = max(len(vals) - 4 * _LEADERBOARD_SIZE, 0)
    top = np.argpartition(vals, first)[first:]  # the 4 * size best, unordered
    for j in top[np.argsort(vals[top])[::-1]]:
        value = float(vals[j])
        if len(leaders) == _LEADERBOARD_SIZE and value <= leaders[-1][0]:
            break
        point = pts[j]
        near = next((i for i, (_, kept) in enumerate(leaders)
                     if np.max(np.abs(point - kept) / span) < _LEADERBOARD_SEPARATION), None)
        if near is None:
            leaders.append((value, point.copy()))
        elif value > leaders[near][0]:
            leaders[near] = (value, point.copy())
        else:
            continue
        leaders.sort(key=lambda pair: -pair[0])
        del leaders[_LEADERBOARD_SIZE:]
