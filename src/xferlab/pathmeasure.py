"""Induced measures on path space B^N.

The measure P_x is defined through its cylinder expectations

    E_x(phi_1 o pi_1 ... phi_n o pi_n) = (M_{phi_1} R M_{phi_2} ... R M_{phi_n} 1)(x),

computed right-to-left; Sigma^(mu) averages E_x against mu.  Exact evaluation
is restricted to the cylinder algebra (products of finitely many coordinate
observables); everything else goes through seeded Monte Carlo ensembles.

``sample_paths`` runs the walker of its operator (``MatrixOperator.walk`` or
``CircleRuelleOperator.walk``) and keeps the integer paths it returns in a
``PathEnsemble``; ``hitting``, the one Monte Carlo check of
E_x(h(X_absorption)) = h(x), runs ``simulate_absorbing``.  The walkers and the
finite inverse-CDF step they share live in ``transferop``.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import EnsembleRequiredError, NotHarmonicError, CarrierMismatchError
from .statespace import (
    FiniteSpace,
    Measure,
    Observable,
    integrate,
    worst,
    _check_same,
    _require,
)
from .transferop import TransferOperator, adjoint_apply, simulate_absorbing, stationarity_residual


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


def conditional_expectation(R: TransferOperator, f) -> Observable:
    """V1* f = E_bullet(f): x -> E_x(f) = phi_1 R(phi_2 R(... R(phi_n) ...)), the expectation given pi_1.

    Exact for a cylinder word of any depth n, at a cost of n - 1 applications
    of R; a black-box path function needs sampled paths (``PathEnsemble.functional_mean``).
    """
    if not isinstance(f, CylinderFunctional):
        raise EnsembleRequiredError("black-box path functions require sampled paths; use PathEnsemble.functional_mean")
    _check_same(R.space, f.space)
    psi = f.word[-1]
    for phi in reversed(f.word[:-1]):
        psi = phi * R.apply(psi)
    return psi


def cylinder_expectation(R: TransferOperator, x, f):
    """E_x(f) for a cylinder word f and a point x of the carrier (checked by ``space.point``)."""
    return conditional_expectation(R, f)(R.space.point(x))


def sigma_expectation(mu: Measure, R: TransferOperator, f):
    """int f dSigma^(mu) = int E_x(f) dmu(x)."""
    _check_same(mu.space, R.space)
    return integrate(mu, conditional_expectation(R, f))


def real_moments(R: TransferOperator, root, f: CylinderFunctional) -> tuple[float, float]:
    """E Re f and the standard deviation of Re f under P_root, or Sigma^(root) for a Measure root.

    Var Re f = (E|f|^2 + Re E f^2) / 2 - (E Re f)^2, each by the cylinder recursion.  A product of two
    words can have twice their degree, so all three are taken with ``R.lifted()``, which holds it.
    """
    S = R.lifted()
    g = CylinderFunctional(tuple(phi.on(S.space) for phi in f.word))
    e = [conditional_expectation(S, w) for w in (g, g * g.conj(), g * g)]  # x -> E_x of each
    m, ab, sq = (complex(integrate(root, h) if isinstance(root, Measure) else h(root)).real for h in e)
    return m, float(np.sqrt(max((ab + sq) / 2 - m**2, 0.0)))


def consistency_residual(R: TransferOperator, x, f) -> float:
    """|E_x(f) - E_x(f with constant 1 appended)|: Kolmogorov consistency."""
    return abs(cylinder_expectation(R, x, f) - cylinder_expectation(R, x, f.padded_to(f.depth + 1)))


# ---------------------------------------------------------------------------
# sampling


@dataclass(eq=False)
class PathEnsemble:
    """Seeded i.i.d. sample of words from P_root (or Sigma when mu-rooted).

    ``paths`` is a (count, depth) integer array on both carriers: state indices (intp), or on the circle
    numerators N over the one denominator D = q 2^(depth - 1) of the root p/q, int64 while D < 2^53, else
    Python ints.  ``samples`` is its exact view (``space.points``), built on each access and not kept.
    """

    space: object
    root: object  # a point of the carrier, or a Measure
    depth: int
    paths: np.ndarray
    fingerprint: str

    @property
    def count(self) -> int:
        return len(self.paths)

    denominator = property(lambda self: self.space.denominator(self.root, self.depth))
    samples = property(lambda self: self.space.points(self.paths, self.denominator))

    def functional_mean(self, f) -> tuple[float, float]:
        """Monte Carlo mean and standard error of a cylinder word or a black-box path function.

        A word is evaluated one coordinate at a time across all paths (``space.coordinates``); a
        callable is called once per path of ``samples`` and must return a scalar.
        """
        if isinstance(f, CylinderFunctional):
            if f.depth > self.depth:
                raise ValueError(f"a word of depth {f.depth} needs paths of at least that depth")
            vals = np.ones(self.count, dtype=complex)
            for j, phi in enumerate(f.word):
                vals *= phi(self.space.coordinates(self.paths[:, j], self.denominator))
        else:
            vals = np.fromiter((f(p) for p in self.samples), complex, self.count)
        return mean_stderr(vals.real)

    def merge(self, other: "PathEnsemble") -> "PathEnsemble":
        """The paths of both, which must share the operator, the depth and the root (a Measure by its weights)."""
        a, b = ((e.fingerprint, e.depth, e.root.weights.tolist() if isinstance(e.root, Measure) else e.root)
                for e in (self, other))
        if a != b:
            raise CarrierMismatchError(f"can only merge ensembles of one operator, depth and root: {a} vs {b}")
        return PathEnsemble(self.space, self.root, self.depth, np.vstack([self.paths, other.paths]), self.fingerprint)

    def to_csv(self, path) -> None:
        """One row per path of ``space.label`` cells, each distinct point labelled once."""
        values, inverse = np.unique(self.paths, return_inverse=True)
        labels = np.fromiter(map(self.space.label, self.space.points(values, self.denominator)), object, values.size)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"x{i+1}" for i in range(self.depth)])
            writer.writerows(labels[inverse.reshape(self.paths.shape)].tolist())


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
    Measure; the operator's ``walk`` does the sampling.  Depth and count must be >= 1.
    """
    if n < 1 or count < 1:
        raise ValueError(f"depth and count must be >= 1, got depth {n} and count {count}")
    if isinstance(root, Measure):
        _check_same(R.space, root.space)
    else:
        root = R.space.point(root)
    return PathEnsemble(R.space, root, n, R.walk(root, n, count, seed), R.fingerprint())


# ---------------------------------------------------------------------------
# the operator pair: V1* is conditional_expectation, V2* below


def v2_star(R: TransferOperator, mu: Measure, f) -> Observable:
    """V2* on a cylinder word: R*(phi_1) phi_2 R(phi_3 ... R(phi_n) ...)."""
    _check_same(R.space, f.space)
    head = adjoint_apply(R, mu, f.word[0])
    if f.depth == 1:
        return head
    out = head * f.word[1]
    if f.depth > 2:
        out = out * R.apply(conditional_expectation(R, CylinderFunctional(f.word[2:])))
    return out


def multiplier_identity_residual(R: TransferOperator, mu: Measure, words) -> float:
    """Max residual of V2*(f o sigma) = rho E_bullet(f) with rho = R* 1."""
    rho = adjoint_apply(R, mu, Observable.constant(R.space, 1.0))
    return worst([(v2_star(R, mu, f.shifted()) - rho * conditional_expectation(R, f)).coeff_norm() for f in words])


def characterization_check(mu: Measure, R: TransferOperator, words=None) -> float:
    """Max residual of E_x(f o sigma) = (R E_bullet(f))(x) over a word battery (default: ``default_word_battery``).

    Zero certifies that Sigma is induced by the pair (mu, R).
    """
    if words is None:
        words = default_word_battery(R.space)
    return worst([
        (conditional_expectation(R, f.shifted()) - R.apply(conditional_expectation(R, f))).coeff_norm()
        for f in words
    ])


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
    if not stationarity_residual(R, mu) <= 1e-10:
        warnings.warn("mu is not R-stationary; the correlation identity assumes mu o R = mu")
    return integrate(mu, phi * R.apply_power(psi, k))


def correlation_mc(ensemble: PathEnsemble, phi: Observable, psi: Observable, n: int, k: int):
    """Monte Carlo E(X_n(phi) X_{n+k}(psi)) from a mu-rooted ensemble; coordinates count from n = 1."""
    if not 1 <= n <= n + k <= ensemble.depth:
        raise ValueError(f"need n >= 1 and k >= 0 with n + k <= depth {ensemble.depth}, got n = {n}, k = {k}")
    word = [Observable.constant(phi.space, 1.0)] * (n + k)
    word[n - 1] = phi
    word[n + k - 1] = word[n + k - 1] * psi
    return ensemble.functional_mean(CylinderFunctional(tuple(word)))


def marginal_distribution(mu: Measure, R: TransferOperator, phi: Observable, t: float, n: int):
    """Sigma({phi o pi_n <= t}) = int R^{n-1} chi_{phi <= t} dmu; n-independent when mu is stationary."""
    if n < 1:  # pi_1 is the first coordinate of a path
        raise ValueError(f"n must be >= 1, got {n}")
    return integrate(mu, R.apply_power(_level_set(phi, t), n - 1))


def marginal_distribution_mc(ensemble: PathEnsemble, phi: Observable, t: float, n: int):
    if n < 1:  # pi_1 is the first coordinate of a path
        raise ValueError(f"n must be >= 1, got {n}")
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
    absorbing_states: list[int]
    boundary_residual: float | None


def harmonic_correspondence(R: TransferOperator, h: Observable) -> HarmonicReport:
    """Verify the martingale picture behind Rh = h.

    Checks Rh = h within 1e-10, so that E_x(h o pi_{n+1}) = (R^n h)(x) = h(x)
    within n times that for a stochastic kernel; and on absorbing finite
    chains identifies the a.s. limit of h(X_n) with the boundary-value function,
    E_x(h(X_absorption)) = h(x), exactly (``hitting`` checks it by Monte Carlo);
    a state that never absorbs raises ValueError (``harmonic_extension``).
    """
    resid = (R.apply(h) - h).coeff_norm()
    if not resid <= 1e-10:
        raise NotHarmonicError(f"Rh - h has residual {resid}")

    absorbing_states = R.absorbing_states()
    boundary_residual = None
    if absorbing_states and len(absorbing_states) < R.space.n:
        values = np.real(np.asarray(h.values))
        boundary_residual = float(np.max(np.abs(R.harmonic_extension(values) - values)))
    return HarmonicReport(float(resid), absorbing_states, boundary_residual)


@dataclass
class HittingReport:
    exact: float
    sigma: float  # the exact standard deviation of the value at absorption
    estimate: float
    stderr: float
    capped: int


def hitting(R: TransferOperator, values, start: int, count: int, seed: int) -> HittingReport:
    """Compare h(start) = E_start(values at absorption) with its Monte Carlo mean over absorbing walks.

    h is the harmonic extension of ``values`` off the absorbing states of the finite chain R, and the
    exact sigma reads the second moment off the harmonic extension of the squared values.  Both
    solves run before any walk, so a state that never absorbs is refused before sampling.  Walks
    still active after ``transferop.STEP_CAP`` steps are counted in `capped` and contribute their
    current (interior) value of h, so a nonzero cap count flags the estimate rather than hiding
    slow mixing.
    """
    values = np.asarray(values, dtype=float)
    h = R.harmonic_extension(values)
    second = R.harmonic_extension(values**2)
    absorbing = np.zeros(R.space.n, dtype=bool)
    absorbing[R.absorbing_states()] = True
    finals, capped = simulate_absorbing(R, absorbing, start, count, seed)
    estimate, stderr = mean_stderr(h[finals])
    exact = float(h[start])
    return HittingReport(exact, float(np.sqrt(max(second[start] - exact**2, 0.0))), estimate, stderr, capped)
