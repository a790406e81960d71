"""Independent computations the benchmark checks xferlab's outputs against.

Nothing here imports xferlab.  Every value is computed from the raw inputs
(filter taps, coefficient dictionaries, kernel and conductance matrices) with
numpy, scipy and exact integer arithmetic, by a different route than the
library takes: branch enumeration instead of coefficient algebra on the
circle, ``numpy.convolve`` instead of dictionary loops, the closed form
(R e_k)_j = 2 W_{2j-k} instead of convolve-then-decimate, a null-space solve
instead of power iteration.

Floating-point comparisons use a summation-order bound (Higham, *Accuracy
and Stability of Numerical Algorithms*, ch. 4): a sum of m products computed
in any order differs from the exact value by at most about m * eps times the
same sum taken in absolute values.  ``bound`` carries that absolute-value
companion along with each dense result.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

EPS = float(np.finfo(float).eps)

#: Monte Carlo means must lie within K_SIGMA standard errors of the oracle.
#: At 6 sigma a correct sampler fails a check with probability about 2e-9.
K_SIGMA = 6.0


def cached(cache: dict, key, fn):
    """Oracle values depend only on the inputs: compute each once per run."""
    if key not in cache:
        cache[key] = fn()
    return cache[key]


# ---------------------------------------------------------------------------
# dense Laurent polynomials: (lo, coefficient array), index lo + j at position j


def dense(coeffs: dict) -> tuple[int, np.ndarray]:
    if not coeffs:
        return 0, np.zeros(1, dtype=complex)
    lo, hi = min(coeffs), max(coeffs)
    arr = np.zeros(hi - lo + 1, dtype=complex)
    for n, c in coeffs.items():
        arr[n - lo] = c
    return lo, arr


def on_range(poly, lo: int, hi: int) -> np.ndarray:
    """Coefficients of ``poly`` (a dict or a dense pair) at indices lo..hi."""
    plo, arr = dense(poly) if isinstance(poly, dict) else poly
    out = np.zeros(hi - lo + 1, dtype=arr.dtype)
    a, b = max(lo, plo), min(hi, plo + arr.size - 1)
    if a <= b:
        out[a - lo : b - lo + 1] = arr[a - plo : b - plo + 1]
    return out


def compare(lib: dict, ref, bound) -> float:
    """Largest |lib - ref| / bound over all indices (<= 1 means agreement)."""
    rlo, rarr = ref
    lo = min([rlo] + list(lib))
    hi = max([rlo + rarr.size - 1] + list(lib))
    diff = np.abs(on_range(lib, lo, hi) - on_range(ref, lo, hi))
    tol = on_range(bound, lo, hi).real + 1e-300
    return float(np.max(diff / tol))


def product(a, b):
    """(value, bound) of the coefficient product of two dense polynomials.

    The bound covers the rounding of this product and of the library's, each
    a sum of at most m terms.
    """
    (alo, aa), (blo, bb) = a, b
    m = min(aa.size, bb.size) + 4
    val = (alo + blo, np.convolve(aa, bb))
    absval = np.convolve(np.abs(aa), np.abs(bb))
    return val, (alo + blo, 2 * m * EPS * absval)


def weight_from_taps(taps) -> tuple[int, np.ndarray]:
    """Fourier coefficients of W = |m0|^2 / 2: W_n = (1/2) sum_k h_k conj(h_{k-n})."""
    h = np.asarray(taps, dtype=complex)
    return -(h.size - 1), np.convolve(h, np.conj(h[::-1])) / 2


def ruelle_apply(W, phi):
    """(R phi)_j = sum_k 2 W_{2j-k} phi_k, gathered per tap of W; (value, abs-value)."""
    (wlo, w), (plo, p) = W, phi
    # indices j with some k = 2j - l inside phi's support, l in W's support
    jlo = -((-(plo + wlo)) // 2)
    jhi = (plo + p.size - 1 + wlo + w.size - 1) // 2
    j = np.arange(jlo, jhi + 1)
    val = np.zeros(j.size, dtype=complex)
    mag = np.zeros(j.size)
    for li, wl in enumerate(w):
        if wl == 0:
            continue
        k = 2 * j - (wlo + li) - plo
        ok = (k >= 0) & (k < p.size)
        val[ok] += 2 * wl * p[k[ok]]
        mag[ok] += abs(2 * wl) * np.abs(p[k[ok]])
    return (jlo, val), (jlo, mag)


def conditional_expectation(W, word):
    """E_.(phi_1 ... phi_n) = phi_1 R(phi_2 R(... R(phi_n))), with its error bound."""
    word = [dense(phi) if isinstance(phi, dict) else phi for phi in word]
    psi = word[-1]
    mag = (psi[0], np.abs(psi[1]))
    terms = psi[1].size
    for phi in reversed(word[:-1]):
        rpsi, _ = ruelle_apply(W, psi)
        _, rmag = ruelle_apply(W, mag)
        psi = (phi[0] + rpsi[0], np.convolve(phi[1], rpsi[1]))
        mag = (phi[0] + rmag[0], np.convolve(np.abs(phi[1]), rmag[1]))
        terms += phi[1].size + W[1].size
    return psi, (mag[0], 4 * terms * EPS * mag[1])


def word_bound(W, word) -> float:
    """Largest entry of the summation-order bound on E_.(word)."""
    return float(np.max(conditional_expectation(W, word)[1][1]))


def mul(a, b):
    """Coefficient product of two dense polynomials (dicts are converted)."""
    (alo, aa), (blo, bb) = (dense(p) if isinstance(p, dict) else p for p in (a, b))
    return alo + blo, np.convolve(aa, bb)


def doubled(a):
    """phi o r: index n moves to 2n."""
    lo, arr = dense(a) if isinstance(a, dict) else a
    out = np.zeros(2 * arr.size - 1, dtype=arr.dtype)
    out[::2] = arr
    return 2 * lo, out


def conj(a):
    """Coefficients of the complex conjugate function: c_n -> conj(c_{-n})."""
    lo, arr = dense(a) if isinstance(a, dict) else a
    return -(lo + arr.size - 1), np.conj(arr[::-1])


def l1(poly) -> float:
    lo, arr = dense(poly) if isinstance(poly, dict) else poly
    return float(np.sum(np.abs(arr)))


def eval_poly(poly, t) -> np.ndarray:
    """sum_n c_n e^{2 pi i n t} at float angles t."""
    lo, arr = dense(poly) if isinstance(poly, dict) else poly
    t = np.asarray(t, dtype=float)
    n = lo + np.arange(arr.size)
    return np.exp(2j * np.pi * np.multiply.outer(t, n)) @ arr


# ---------------------------------------------------------------------------
# the circle walk: branch enumeration and the integer compatibility recount


def circle_moments(taps, root: Fraction, word) -> tuple[complex, float]:
    """E_x(f) and E_x(|f|^2) for f = word, by enumerating all 2^(n-1) backward branches.

    A path x_1 = root, x_{k+1} in {x_k / 2, (x_k + 1) / 2} has weight
    prod W(x_{k+1}), with W evaluated from the taps; f on it is
    prod phi_k(x_k).
    """
    W = weight_from_taps(taps)
    angles = [Fraction(root) % 1]
    weight = np.ones(1)
    value = eval_poly(word[0], [float(angles[0])])
    for phi in word[1:]:
        angles = [(t + b) / 2 for t in angles for b in (0, 1)]
        at = np.array([float(t) for t in angles])
        weight = np.repeat(weight, 2) * eval_poly(W, at).real
        value = np.repeat(value, 2) * eval_poly(phi, at)
    return complex(np.sum(weight * value)), float(np.sum(weight * np.abs(value) ** 2))


def circle_numerators(samples, root: Fraction, depth: int) -> tuple[np.ndarray, int]:
    """Sampled angles as integer numerators over D = q 2^(depth-1), and D.

    An angle whose denominator does not divide D cannot lie on a backward
    orbit of the root; it is mapped to -1, which fails every test below.
    """
    D = Fraction(root).denominator * 2 ** (depth - 1)
    rows = [
        [t.numerator * (D // t.denominator) if D % t.denominator == 0 else -1 for t in path]
        for path in samples
    ]
    return np.array(rows, dtype=np.int64).reshape(len(rows), depth), D


def circle_violations(numerators: np.ndarray, D: int, root: Fraction) -> int:
    """Transitions with 2 t_{k+1} != t_k (mod 1), plus rows not starting at the root."""
    N = numerators
    head = (Fraction(root) % 1) * D
    bad = np.count_nonzero(N[:, 0] != int(head))
    bad += np.count_nonzero((N[:, 1:] < 0) | ((2 * N[:, 1:]) % D != N[:, :-1]))
    return int(bad)


def circle_word_values(numerators: np.ndarray, D: int, word) -> np.ndarray:
    """prod_k phi_k(t_k) for every sampled path, from the integer numerators."""
    vals = np.ones(numerators.shape[0], dtype=complex)
    for k, phi in enumerate(word):
        vals *= eval_poly(phi, numerators[:, k] / D)
    return vals


# ---------------------------------------------------------------------------
# finite chains and conductance networks


def finite_conditional(K: np.ndarray, word) -> np.ndarray:
    """x -> E_x(phi_1 ... phi_n) by plain matrix-vector products."""
    psi = np.asarray(word[-1], dtype=float)
    for phi in reversed(word[:-1]):
        psi = np.asarray(phi, dtype=float) * (K @ psi)
    return psi


def stationary(K: np.ndarray) -> np.ndarray:
    """The stationary law of an irreducible kernel, from the null space of K^T - I."""
    import scipy.linalg  # imported on first use, so that it stays out of set-up time

    ns = scipy.linalg.null_space(K.T - np.eye(K.shape[0]))
    if ns.shape[1] != 1:
        raise ValueError(f"kernel has a {ns.shape[1]}-dimensional fixed space")
    v = ns[:, 0]
    return v / v.sum()


def dirichlet(C: np.ndarray, boundary, values: dict) -> np.ndarray:
    """Harmonic extension as absorption probabilities of the walk p = c / c(x)."""
    n = C.shape[0]
    bd = np.asarray(sorted(boundary))
    interior = np.setdiff1d(np.arange(n), bd)
    P = C / C.sum(axis=1, keepdims=True)
    import scipy.linalg

    A = scipy.linalg.solve(np.eye(interior.size) - P[np.ix_(interior, interior)],
                           P[np.ix_(interior, bd)])
    hb = np.array([values[int(b)] for b in bd])
    h = np.zeros(n)
    h[bd] = hb
    h[interior] = A @ hb
    return h


def mc_agrees(mean: float, count: int, exact: float, second: float) -> bool:
    """|mean - exact| <= K_SIGMA * sigma / sqrt(count), sigma from the oracle's own moments."""
    sigma = np.sqrt(max(second - exact**2, 0.0))
    return abs(mean - exact) <= K_SIGMA * sigma / np.sqrt(count) + 1e-12 * (1 + abs(exact))


def sample_mean(vals: np.ndarray) -> tuple[float, float]:
    vals = np.real(vals)
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(vals.size))
