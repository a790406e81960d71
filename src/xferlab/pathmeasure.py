"""Induced measures on path space B^N.

The measure P_x is defined through its cylinder expectations

    E_x(phi_1 o pi_1 ... phi_n o pi_n) = (M_{phi_1} R M_{phi_2} ... R M_{phi_n} 1)(x),

computed right-to-left; Sigma^(mu) averages E_x against mu.  Exact evaluation
is restricted to the cylinder algebra (products of finitely many coordinate
observables); everything else goes through seeded Monte Carlo ensembles.

``sample_paths`` runs the walker of its operator (``MatrixOperator.walk`` or
``CircleRuelleOperator.walk``).  On finite carriers that walker and
``simulate_absorbing`` take one inverse-CDF step, defined here: from state x
with a uniform draw u in [0, 1), the next state is the number of entries of
row x of the cumulative table below u.  The table is the row-wise cumulative
sum of K, pinned to 1.0 from the entry where the row reaches its total on, so
a row whose float sum falls just short of 1 never yields index n or a state
of probability zero.  The step finds the count by bisection, in
ceil(log2 n) vectorised rounds; outside that rounding gap it returns exactly
the index of the O(n) count, so the mapping from seed to paths is the one of
xferlab 0.1.0.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import EnsembleRequiredError, NotHarmonicError, CarrierMismatchError
from .rng import chunk_sizes, chunk_stream
from .statespace import (
    MAX_EXACT_DEPTH,  # noqa: F401  (re-exported: the cap of FiniteSpace.max_exact_depth)
    FiniteSpace,
    Measure,
    Observable,
    integrate,
    _check_same,
    _require,
)
from .transferop import TransferOperator, adjoint_apply, stationarity_residual

STEP_CAP = 10**6


@dataclass(frozen=True, eq=False)
class CylinderFunctional:
    """A finite word (phi_1, ..., phi_n) representing phi_1 o pi_1 ... phi_n o pi_n."""

    word: tuple[Observable, ...]

    def __post_init__(self):
        word = tuple(self.word)
        if len(word) < 1:
            raise ValueError("a cylinder word needs at least one observable")
        for phi in word[1:]:
            _check_same(word[0].space, phi.space)
        object.__setattr__(self, "word", word)

    @property
    def space(self):
        return self.word[0].space

    @property
    def depth(self) -> int:
        return len(self.word)

    def shifted(self) -> "CylinderFunctional":
        """f o sigma: the word starts one coordinate later."""
        return CylinderFunctional((Observable.constant(self.space, 1.0),) + self.word)

    def padded_to(self, n: int) -> "CylinderFunctional":
        if n < self.depth:
            raise ValueError("cannot pad to a shorter depth")
        pad = tuple(Observable.constant(self.space, 1.0) for _ in range(n - self.depth))
        return CylinderFunctional(self.word + pad)

    def __mul__(self, other: "CylinderFunctional") -> "CylinderFunctional":
        n = max(self.depth, other.depth)
        a, b = self.padded_to(n), other.padded_to(n)
        return CylinderFunctional(tuple(x * y for x, y in zip(a.word, b.word)))

    def conj(self) -> "CylinderFunctional":
        return CylinderFunctional(tuple(phi.conj() for phi in self.word))

    def evaluate(self, path) -> complex:
        """Value at one sampled word (x_1, ..., x_m), m >= depth."""
        out = 1.0
        for phi, x in zip(self.word, path):
            out = out * phi(x)
        return out


def as_word(f) -> CylinderFunctional:
    if isinstance(f, CylinderFunctional):
        return f
    if isinstance(f, Observable):
        return CylinderFunctional((f,))
    return CylinderFunctional(tuple(f))


def conditional_expectation(R: TransferOperator, f) -> Observable:
    """E_bullet(f): x -> E_x(f) = phi_1 R(phi_2 R(... R(phi_n) ...))."""
    f = as_word(f)
    _check_same(R.space, f.space)
    if f.depth > R.space.max_exact_depth:
        raise ValueError(f"exact cylinder depth is capped at {R.space.max_exact_depth}")
    psi = f.word[-1]
    for phi in reversed(f.word[:-1]):
        psi = phi * R.apply(psi)
    return psi


def cylinder_expectation(R: TransferOperator, x, f):
    """E_x(f) for a cylinder word f and a point x of the carrier."""
    return conditional_expectation(R, f)(x)


def sigma_expectation(mu: Measure, R: TransferOperator, f):
    """int f dSigma^(mu) = int E_x(f) dmu(x)."""
    _check_same(mu.space, R.space)
    return integrate(mu, conditional_expectation(R, f))


def consistency_residual(R: TransferOperator, x, f) -> float:
    """|E_x(f) - E_x(f with constant 1 appended)|: Kolmogorov consistency."""
    f = as_word(f)
    one = Observable.constant(f.space, 1.0)
    g = CylinderFunctional(f.word + (one,))
    return abs(cylinder_expectation(R, x, f) - cylinder_expectation(R, x, g))


# ---------------------------------------------------------------------------
# sampling


@dataclass(eq=False)
class PathEnsemble:
    """Seeded i.i.d. sample of words from P_root (or Sigma when mu-rooted).

    ``samples`` has shape (count, depth) on both carriers: state indices
    (intp) on finite carriers, and on the circle exact Fraction angles in an
    object array, so that solenoid compatibility can be checked exactly.
    """

    space: object
    root: object  # state index, Fraction angle, or a Measure for mu-rooted
    depth: int
    samples: np.ndarray
    seed: int
    fingerprint: str

    @property
    def count(self) -> int:
        return len(self.samples)

    def functional_mean(self, f) -> tuple[float, float]:
        """Monte Carlo mean and standard error of a cylinder word or callable.

        A word is evaluated one coordinate at a time across all paths.
        """
        if isinstance(f, (CylinderFunctional, Observable)):
            f = as_word(f)
            if f.depth > self.depth:
                raise ValueError(f"a word of depth {f.depth} needs paths of at least that depth")
            vals = np.ones(self.count, dtype=complex)
            for j, phi in enumerate(f.word):
                vals *= phi(self.samples[:, j])
        else:
            vals = np.array([f(p) for p in self.samples], dtype=complex)
        return mean_stderr(vals.real)

    def merge(self, other: "PathEnsemble") -> "PathEnsemble":
        if (self.fingerprint, self.depth) != (other.fingerprint, other.depth):
            raise CarrierMismatchError("can only merge ensembles of the same experiment")
        samples = np.vstack([self.samples, other.samples])
        return PathEnsemble(self.space, self.root, self.depth, samples, self.seed, self.fingerprint)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"x{i+1}" for i in range(self.depth)])
            for row in self.samples:
                writer.writerow([self.space.label(x) for x in row])


def mean_stderr(vals: np.ndarray) -> tuple[float, float]:
    """Monte Carlo mean and standard error of real samples; the error of one sample is 0.0."""
    n = vals.size
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / np.sqrt(n)) if n > 1 else 0.0


def sample_paths(
    R: TransferOperator, root, n: int, count: int, seed: int
) -> PathEnsemble:
    """i.i.d. words of length n from the random walk with transition law of R.

    Deterministic for a fixed seed; chunked so parallel sampling can
    reproduce the serial stream (see rng module).  The root is a point of
    the carrier (checked by ``space.point``) or, on finite carriers, a
    Measure; the operator's ``walk`` does the sampling.
    """
    if n < 1:
        raise ValueError("depth must be >= 1")
    return R.walk(root, n, count, seed)


def _cdf_table(kernel) -> np.ndarray:
    """Row-wise cumulative sums of a stochastic kernel, 1.0 wherever a row has reached its total."""
    cum = np.cumsum(kernel, axis=1)
    np.copyto(cum, 1.0, where=cum >= cum[:, -1:])
    return cum


def _next_states(table: np.ndarray, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The sampling step: for each walker i, the number of entries of table[x[i]] below u[i].

    Along a row the test ``entry < u`` holds on a prefix (the row is
    nondecreasing up to its pinned 1.0 tail and u < 1), so a branchless
    bisection finds the prefix length; indices past the row end read its 1.0.
    """
    n = table.shape[1]
    flat = table.ravel()
    base = x * n
    end = base + (n - 1)
    pos = np.zeros_like(x)
    step = (1 << (n - 1).bit_length()) >> 1
    while step:
        cand = pos + step
        pos = np.where(flat.take(np.minimum(base + cand - 1, end)) < u, cand, pos)
        step >>= 1
    return pos


def simulate_absorbing(
    kernel: np.ndarray,
    absorbing: np.ndarray,
    start: int,
    count: int,
    seed: int,
    step_cap: int = STEP_CAP,
) -> tuple[np.ndarray, int]:
    """Run walks from `start` until they hit an absorbing state or the step cap.

    Returns (final state per walk, number of walks that hit the cap); capped
    walks are reported, never silently dropped.  A start outside [0, n) raises ValueError.
    """
    if not 0 <= start < len(kernel):
        raise ValueError(f"start must be a state index in [0, {len(kernel)}), got {start}")
    table = _cdf_table(kernel)
    finals = np.empty(count, dtype=np.intp)
    capped = 0
    pos = 0
    for ci, size in enumerate(chunk_sizes(count)):
        rng = chunk_stream(seed, ci)
        x = np.full(size, int(start), dtype=np.intp)
        active = ~absorbing[x]
        steps = 0
        while np.any(active) and steps < step_cap:
            idx = np.nonzero(active)[0]
            x[idx] = _next_states(table, x[idx], rng.random(idx.size))
            active[idx] = ~absorbing[x[idx]]
            steps += 1
        capped += int(np.count_nonzero(active))
        finals[pos : pos + size] = x
        pos += size
    return finals, capped


# ---------------------------------------------------------------------------
# the operator pair V1, V1* and friends


def v1_star(R: TransferOperator, f, x=None):
    """V1* f = E_bullet(f), the conditional expectation given pi_1.

    Exact for cylinder words; a black-box path function needs an ensemble
    (use PathEnsemble.functional_mean).
    """
    if callable(f) and not isinstance(f, (CylinderFunctional, Observable)):
        raise EnsembleRequiredError(
            "black-box path functions require sampled paths; use PathEnsemble.functional_mean"
        )
    obs = conditional_expectation(R, f)
    return obs if x is None else obs(x)


def q1_project(R: TransferOperator, mu: Measure | None, f) -> Observable:
    """Q1 = V1 V1*: returns psi with Q1(f) = psi o pi_1."""
    if mu is not None and not mu.full_support():
        raise ValueError("conditional expectations require full-support mu")
    return conditional_expectation(R, f)


def v2_star(R: TransferOperator, mu: Measure, f) -> Observable:
    """V2* on a cylinder word: R*(phi_1) phi_2 R(phi_3 ... R(phi_n) ...)."""
    f = as_word(f)
    _check_same(R.space, f.space)
    head = adjoint_apply(R, mu, f.word[0])
    if f.depth == 1:
        return head
    out = head * f.word[1]
    if f.depth > 2:
        out = out * R.apply(conditional_expectation(R, CylinderFunctional(f.word[2:])))
    return out


def multiplier_identity_residual(
    R: TransferOperator, mu: Measure, words, rho: Observable | None = None
) -> float:
    """Max residual of V2*(f o sigma) = rho E_bullet(f) with rho = R* 1."""
    if rho is None:
        rho = adjoint_apply(R, mu, Observable.constant(R.space, 1.0))
    res = 0.0
    for f in words:
        f = as_word(f)
        lhs = v2_star(R, mu, f.shifted())
        rhs = rho * conditional_expectation(R, f)
        res = max(res, (lhs - rhs).coeff_norm())
    return res


def characterization_check(mu: Measure, R: TransferOperator, words=None, seed: int = 23) -> float:
    """Max residual of E_x(f o sigma) = (R E_bullet(f))(x) over a word battery.

    Zero certifies that Sigma is induced by the pair (mu, R).
    """
    if words is None:
        words = default_word_battery(R.space, seed=seed)
    res = 0.0
    for f in words:
        f = as_word(f)
        lhs = conditional_expectation(R, f.shifted())
        rhs = R.apply(conditional_expectation(R, f))
        res = max(res, (lhs - rhs).coeff_norm())
    return res


def default_word_battery(space, max_depth: int = 4, per_depth: int = 5, seed: int = 23):
    """Seeded random cylinder words used by the residual checks."""
    rng = np.random.default_rng(seed)
    battery = []
    for depth in range(1, max_depth + 1):
        for _ in range(per_depth):
            battery.append(
                CylinderFunctional(
                    tuple(space.random_observable(rng, max_degree=3) for _ in range(depth))
                )
            )
    return battery


# ---------------------------------------------------------------------------
# the stochastic process X_n(phi)


def correlation(mu: Measure, R: TransferOperator, phi: Observable, psi: Observable, k: int):
    """E(X_n(phi) X_{n+k}(psi)) = int phi R^k(psi) dmu (stationary mu)."""
    if stationarity_residual(R, mu) > 1e-10:
        warnings.warn("mu is not R-stationary; the correlation identity assumes mu o R = mu")
    return integrate(mu, phi * R.apply_power(psi, k))


def correlation_mc(ensemble: PathEnsemble, phi: Observable, psi: Observable, n: int, k: int):
    """Monte Carlo E(X_n(phi) X_{n+k}(psi)) from a mu-rooted ensemble."""
    if ensemble.depth < n + k:
        raise ValueError("ensemble depth too small for the requested lag")
    word = [Observable.constant(phi.space, 1.0)] * (n + k)
    word[n - 1] = phi
    word[n + k - 1] = word[n + k - 1] * psi
    return ensemble.functional_mean(CylinderFunctional(tuple(word)))


def marginal_distribution(mu: Measure, R: TransferOperator, phi: Observable, t: float, n: int):
    """Sigma({phi o pi_n <= t}) = int R^{n-1} chi_{phi <= t} dmu; n-independent when mu is stationary."""
    return integrate(mu, R.apply_power(_level_set(phi, t), n - 1))


def marginal_distribution_mc(ensemble: PathEnsemble, phi: Observable, t: float, n: int):
    word = (Observable.constant(phi.space, 1.0),) * (n - 1) + (_level_set(phi, t),)
    return ensemble.functional_mean(CylinderFunctional(word))


def _level_set(phi: Observable, t: float) -> Observable:
    """The indicator of {phi <= t}; level sets are not trig polynomials, so finite carriers only."""
    _require(phi.space, FiniteSpace, "a level-set indicator")
    return Observable.from_values(phi.space, (np.real(phi.values) <= t).astype(float))


# ---------------------------------------------------------------------------
# harmonic functions and the martingale limit


@dataclass
class HarmonicReport:
    harmonic_residual: float
    martingale_residuals: list[float]
    absorbing_states: list[int]
    boundary_residual: float | None
    mc_estimate: float | None
    mc_stderr: float | None
    mc_capped: int


def harmonic_correspondence(
    R: TransferOperator,
    mu: Measure | None,
    h: Observable,
    depth: int = 6,
    mc_start: int | None = None,
    mc_count: int = 0,
    seed: int = 0,
) -> HarmonicReport:
    """Verify the martingale picture behind Rh = h.

    Checks E_x(h o pi_{n+1}) = h(x) for n <= depth, and on absorbing finite
    chains identifies the a.s. limit with the boundary-value function:
    E_x(h(X_absorption)) = h(x), exactly and optionally by Monte Carlo.
    """
    resid = (R.apply(h) - h).coeff_norm()
    if resid > 1e-10:
        raise NotHarmonicError(f"Rh - h has residual {resid}")
    one = Observable.constant(h.space, 1.0)
    mart = []
    for n in range(1, depth + 1):
        word = CylinderFunctional((one,) * n + (h,))
        mart.append((conditional_expectation(R, word) - h).coeff_norm())

    absorbing_states = R.absorbing_states()
    boundary_residual = None
    mc_estimate = mc_stderr = None
    capped = 0
    if absorbing_states and len(absorbing_states) < R.space.n:
        k = R.kernel
        mask = np.zeros(R.space.n, dtype=bool)
        mask[absorbing_states] = True
        interior = np.nonzero(~mask)[0]
        q = k[np.ix_(interior, interior)]
        rpart = k[np.ix_(interior, np.nonzero(mask)[0])]
        # absorption probabilities: (I - Q) A = R_part
        a = np.linalg.solve(np.eye(len(interior)) - q, rpart)
        exact = np.real(np.asarray(h.values)).astype(float).copy()
        exact[interior] = a @ np.real(np.asarray(h.values))[mask]
        boundary_residual = float(np.max(np.abs(exact - np.real(h.values))))
        if mc_count and mc_start is not None:
            finals, capped = simulate_absorbing(k, mask, mc_start, mc_count, seed)
            mc_estimate, mc_stderr = mean_stderr(np.real(np.asarray(h.values))[finals])
    return HarmonicReport(
        harmonic_residual=float(resid),
        martingale_residuals=[float(r) for r in mart],
        absorbing_states=absorbing_states,
        boundary_residual=boundary_residual,
        mc_estimate=mc_estimate,
        mc_stderr=mc_stderr,
        mc_capped=capped,
    )
