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
evaluation budget), then a lattice zoom refines the leaders in lockstep: up
to 8 well-separated points picked once, greedily, from each chunk's 32 best.
Each zoom step evaluates the 5x5x5 lattice x + {-1, -1/2, 0, 1/2, 1}^3 * w
around every leader x, clipped to the box, in one batch; a leader moves to
its lattice maximum when that beats its value, and the width w halves. Draws
are uniform in the angles, not Haar-uniform on the sphere, because the
optima sit at the poles, where Haar draws almost never land.

Randomness comes from the counter-based Philox-4x64-10 generator keyed by
a 64-bit seed, so runs are bit-reproducible and exploration chunks can be
evaluated in any partition without changing the sampled points.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .battery import BlochVector, HamiltonianSpec, check_population_bias
from .errors import ConfigError, DomainError
from .protocol import (
    EntangledInitParams, MeasurementBasis, entangled_initial, outcome_matrix, separable_initial
)

SEPARABLE = "separable"
ENTANGLED = "entangled"
FAMILIES = (SEPARABLE, ENTANGLED)

# exploration draws and evaluates this many rows at a time (the last chunk only
# the rows it uses), and WpEvaluator runs one kernel pass per chunk; sample i is
# row i of the stream whatever the budget
SAMPLE_CHUNK = 8192
CONVERGENCE_WINDOW_TOL = 1e-2  # units of h, over the trailing budget/5 evaluations
# refinement lattice around each leader, in units of the zoom width
_LATTICE = np.array(list(itertools.product((-1.0, -0.5, 0.0, 0.5, 1.0), repeat=3)))
_ZOOM_STOP = 1e-9  # refinement ends once the zoom width falls below this fraction of the box
_WORK_ROWS = 8  # WpEvaluator workspace rows besides its output: the most a kernel holds at once
MAX_PHASE_ULP = 1e-6  # rad: the most one ulp of t may move the search phase Omega*t_max


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
        if not 0.0 < self.t_max < math.inf:
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


def check_phase(t_max: float, spec: HamiltonianSpec) -> None:
    """Raise DomainError, naming J/h and t_max in units of 1/h, unless the
    search phase Omega*t_max = w (h t_max) resolves: one ulp of it must stay
    below MAX_PHASE_ULP, that is Omega*t_max < 2^33 rad, at every scale of h.
    Beyond that a one-ulp step in t scrambles the phase, and a search would
    sample noise."""
    phase = spec.w * (spec.h * t_max)
    if not math.ulp(phase) <= MAX_PHASE_ULP:
        raise DomainError(f"the phase Omega*t_max = {phase:.3g} rad moves by more than "
                          f"{MAX_PHASE_ULP:g} rad per ulp of t at J/h={spec.g:g}, "
                          f"t_max={spec.h * t_max:g}/h: shorten t_max or reduce J/h")


def sample_batch(space: SearchSpace, rng: np.random.Generator, n: int) -> np.ndarray:
    """n parameter vectors drawn as one (n, 3) block from the stream, uniform in the box."""
    u = rng.random((n, 3))
    u *= space.span
    return u


def _half_tan(x, u, d):
    """u = tan(x/2) and d = 2/(1 + u^2), written in place (x may be u), so that
    sin(x) = u d and cos(x) = d - 1: one tangent instead of two scalar-loop
    calls, since numpy vectorises tan but not sin or cos on x86 (2.4 against
    12 ns a point with AVX-512). Both are within a few ulp, and tan(x/2) is
    finite for every finite x (so 1 + u^2 cannot overflow)."""
    np.multiply(x, 0.5, out=u)  # x/2
    np.tan(u, out=u)  # u = tan(x/2)
    np.multiply(u, u, out=d)  # u^2
    d += 1.0  # 1 + u^2
    np.divide(2.0, d, out=d)  # d = 2/(1 + u^2)


class WpEvaluator:
    """Vectorized w_p for batches of parameter vectors, maximized in closed
    form over the auxiliary measurement basis and its outcome: the value is
    lambda_max(A), with A as in the module docstring.

    The kernel is real arithmetic in units of h. With tau = h t, g = J/h and
    W = HamiltonianSpec.w, it reads the phases W tau and g tau and the
    amplitudes g/W and 2/W (at most 1) as protocol.joint_unitary forms them,
    and the energies c/h = (k - 1, k + 1), and it multiplies the result by h
    once at the end. Sines and cosines come from
    half-angle tangents (_half_tan), and each family forms only those it
    reads: sin(W tau), sin(g tau) and cos(theta) for the separable family,
    both of W tau, g tau and phi and cos(theta) for the entangled one. With
    c = cos(theta) and s = sin(theta):

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

    A call evaluates SAMPLE_CHUNK points per pass, each step one in-place
    ufunc into the returned array or a workspace of _WORK_ROWS rows that the
    evaluator allocates once, so the returned array is the only allocation a
    call makes. One evaluator must therefore not run in two threads at once.
    Every step is the operation, with the operands in the order, of the
    formulas above, so the values do not depend on the partition.

    Equals protocol.best_outcome at the basis ``best_basis`` returns, and is
    at least its value at any other. The evaluator refuses, by check_phase, a
    box whose phases do not resolve; inside an accepted box every phase is
    finite, and so is every value, since both radicands are sums of
    non-negative terms.
    """

    def __init__(self, space: SearchSpace, spec: HamiltonianSpec):
        check_phase(space.t_max, spec)
        self.space = space
        self.spec = spec
        self._kappa = math.sqrt((1.0 - space.k) * (1.0 + space.k))
        self._flip, self._tilt = spec.g / spec.w, 2.0 / spec.w  # g/W, 2/W
        # one 64 KiB array a row: blocks this small come from the C heap and are
        # reused from one evaluator to the next, where one 512 KiB block would
        # be mapped afresh, and page-faulted, for each evaluator
        self._work = [np.empty(SAMPLE_CHUNK) for _ in range(_WORK_ROWS)]

    def __call__(self, params) -> np.ndarray:
        p = np.atleast_2d(np.asarray(params, dtype=float))
        if p.shape[1] != len(self.space.span):
            raise ConfigError(f"expected {len(self.space.span)} parameters, got {p.shape[1]}")
        value = np.empty(len(p))
        for i in range(0, len(p), SAMPLE_CHUNK):
            self._values(p[i : i + SAMPLE_CHUNK], value[i : i + SAMPLE_CHUNK])
        return value

    def _values(self, p, out):
        theta, phi, t = p.T
        work = [row[: len(p)] for row in self._work]
        # tau = h t goes into the output row: neither kernel writes it before both phases are read
        tau = np.multiply(t, self.spec.h, out=out)
        if self.space.family == SEPARABLE:
            self._separable(theta, tau, work, out)
        else:
            self._entangled(theta, phi, tau, work, out)
        out *= self.spec.h

    def _separable(self, theta, tau, work, out):
        k = self.space.k
        q, r, c, nr, s2 = work[:5]
        _half_tan(np.multiply(tau, self.spec.w, out=q), q, nr)
        q *= nr  # sin(W tau)
        _half_tan(np.multiply(tau, self.spec.g, out=r), r, nr)
        r *= nr  # sin(g tau)
        _half_tan(theta, nr, c)
        c -= 1.0  # c = cos(theta)
        q *= self._flip  # (g/W) sin(W tau)
        q *= q  # q
        r *= r  # r
        # c (q - r) + k (q + r) = mq - nr and k (q - r) + c (q + r) = mq + nr
        mq = np.add(c, k, out=out)  # c + k
        mq *= q  # mq = (c + k) q
        np.subtract(c, k, out=nr)  # c - k
        nr *= r  # nr = (c - k) r
        np.subtract(1.0, c, out=s2)  # 1 - c
        c += 1.0  # 1 + c
        s2 *= c  # s^2 = (1 - c)(1 + c)
        s2 *= 4.0  # 4 s^2
        q *= r  # q r
        s2 *= q  # 4 s^2 (q r)
        root = np.add(mq, nr, out=q)  # mq + nr
        root *= root  # (mq + nr)^2
        root += s2  # (mq + nr)^2 + 4 s^2 q r
        mq -= nr  # mq - nr
        mq *= 0.5  # (mq - nr)/2
        np.sqrt(root, out=root)  # sqrt(root)
        root *= 0.5 * abs(k)  # |k| sqrt(root)/2
        out += root  # w/h = (mq - nr)/2 + |k| sqrt(root)/2

    def _entangled(self, theta, phi, tau, work, out):
        k, kappa = self.space.k, self._kappa
        up, sin_p, cos_p, sin_w, cos_w, sin_j, cos_j, down = work[:8]
        _half_tan(np.multiply(tau, self.spec.w, out=sin_w), sin_w, cos_w)
        sin_w *= cos_w  # sin(W tau)
        cos_w -= 1.0  # cos(W tau)
        _half_tan(np.multiply(tau, self.spec.g, out=sin_j), sin_j, cos_j)
        sin_j *= cos_j  # sin(g tau)
        cos_j -= 1.0  # cos(g tau)
        _half_tan(phi, sin_p, cos_p)
        sin_p *= cos_p  # sin(phi)
        cos_p -= 1.0  # cos(phi)
        _half_tan(theta, down, up)
        up -= 1.0  # c = cos(theta)
        up *= 0.5  # c/2
        up += 0.5  # C = 1/2 + c/2
        np.subtract(1.0, up, out=down)  # S = 1 - C
        y = np.multiply(sin_w, self._flip, out=out)  # y = (g/W) sin(W tau)
        # C y G = sin(phi) alpha - cos(phi) gamma and C y M = cos(phi) alpha + sin(phi) gamma
        cos_w *= y  # y cos(W tau)
        alpha = np.multiply(cos_w, up, out=cos_w)  # alpha = C (y cos(W tau))
        sin_w *= self._tilt  # x = (2/W) sin(W tau)
        sin_w *= y  # y x
        gamma = np.multiply(sin_w, up, out=sin_w)  # gamma = C (y x)
        cos_j *= sin_j  # sin(g tau) cos(g tau)
        beta = np.multiply(cos_j, down, out=cos_j)  # beta = S (sin(g tau) cos(g tau))
        y *= y  # y^2
        y *= up  # C y^2
        sin_j *= sin_j  # sin^2(g tau)
        sin_j *= down  # S sin^2(g tau)
        big_x = np.add(y, sin_j, out=y)  # X = C y^2 + S sin^2(g tau)
        big_y = np.add(alpha, beta, out=up)  # alpha + beta
        big_y *= sin_p  # sin(phi) (alpha + beta)
        np.multiply(cos_p, gamma, out=down)  # cos(phi) gamma
        big_y -= down  # Y = sin(phi) (alpha + beta) - cos(phi) gamma
        im = np.subtract(beta, alpha, out=alpha)  # beta - alpha
        im *= cos_p  # cos(phi) (beta - alpha)
        gamma *= sin_p  # sin(phi) gamma
        im -= gamma  # Im Delta = cos(phi) (beta - alpha) - sin(phi) gamma
        trace = np.multiply(big_x, k, out=down)  # k X
        np.multiply(big_y, kappa, out=sin_j)  # kappa Y
        trace -= sin_j  # T = k X - kappa Y
        big_x *= kappa  # kappa X
        re = np.multiply(big_y, k, out=big_y)  # k Y
        re += big_x  # k Y + kappa X
        re -= 0.5 * kappa  # Re Delta = k Y + kappa X - kappa/2
        re *= re  # Re^2
        im *= im  # Im^2
        re += im  # |Delta|^2 = Re^2 + Im^2
        re *= kappa * kappa  # kappa^2 |Delta|^2
        np.multiply(trace, trace, out=sin_j)  # T^2
        sin_j += re  # T^2 + kappa^2 |Delta|^2
        np.sqrt(sin_j, out=sin_j)  # sqrt(T^2 + kappa^2 |Delta|^2)
        np.add(trace, sin_j, out=out)  # w/h = T + sqrt(T^2 + kappa^2 |Delta|^2)

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
    the leaders (_select_leaders, from each chunk's 32 best) in lockstep, one
    batched 125-point lattice per leader and step, halving the lattice width
    every step until it falls below 1e-9 of the box or the next step would
    overrun the budget. Refinement draws no random numbers.

    ``converged`` reports whether the best exploration value beats the best
    of the samples before the trailing ceil(budget/5) by less than 1e-2 * h
    (refinement steps are not judged).
    Raises DomainError where check_phase refuses the box.
    """
    if budget < 1:
        raise ConfigError(f"budget must be at least 1, got {budget}")
    evaluator = WpEvaluator(space, spec)
    rng = make_rng(seed)
    span = space.span

    n_explore = max(1, (4 * budget) // 5)
    # convergence is judged on exploration: did the trailing ceil(budget/5)
    # samples, those after sample number cut, move the best by >= 1e-2 h?
    cut = max(n_explore - math.ceil(budget / 5), 1)
    baselines, leads = [], []  # per chunk: the best of samples 1..cut; the first best
    pool_x, pool_f = [], []  # each chunk's 4 * _LEADERBOARD_SIZE best points and values
    for used in range(0, n_explore, SAMPLE_CHUNK):
        pts = sample_batch(space, rng, min(SAMPLE_CHUNK, n_explore - used))
        vals = evaluator(pts)
        if used < cut:
            baselines.append(float(vals[: cut - used].max()))
        j = int(np.argmax(vals))  # the first of the chunk's best
        leads.append((float(vals[j]), pts[j].copy()))
        first = max(len(vals) - 4 * _LEADERBOARD_SIZE, 0)
        top = np.argpartition(vals, first)[first:]
        pool_x.append(pts[top])
        pool_f.append(vals[top])

    best, best_x = max(leads, key=lambda lead: lead[0])  # max keeps the first of the best
    converged = (best - max(baselines)) < CONVERGENCE_WINDOW_TOL * spec.h
    # every leader zooms: the best exploration point need not sit in the
    # basin of the best optimum
    xs, fs = _select_leaders(np.concatenate(pool_x), np.concatenate(pool_f), span)
    used = n_explore
    step_points = len(xs) * len(_LATTICE)
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
        width /= 2.0

    return OptimizationReport(
        best, best_x, evaluator.best_basis(best_x), used, converged, seed
    )


_LEADERBOARD_SIZE = 8
_LEADERBOARD_SEPARATION = 0.08  # of each coordinate's span, Chebyshev


def _select_leaders(xs, fs, span):
    """The refinement starts among candidate points xs with values fs: greedily,
    best first (ties in candidate order), each point that lies at least
    _LEADERBOARD_SEPARATION of every span (Chebyshev) from every better point
    kept, up to _LEADERBOARD_SIZE of them. Returns their points and values."""
    order = np.argsort(-fs, kind="stable")
    xs, fs = xs[order], fs[order]
    free = np.ones(len(fs), dtype=bool)  # not within the separation of a kept point
    kept = []
    while len(kept) < _LEADERBOARD_SIZE and free.any():
        i = int(np.argmax(free))
        kept.append(i)
        free &= np.max(np.abs(xs - xs[i]) / span, axis=1) >= _LEADERBOARD_SEPARATION
    return xs[kept], fs[kept]
