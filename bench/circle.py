"""The ``circle`` workload: the solenoid battery and the algebra battery, one after the other.

Inputs are made from the seed by ``build``; every xferlab call of a round
goes through ``lab.call`` and every output is checked against ``oracles``.
Oracle values depend only on the inputs, so they are computed in the first
round and reused; the comparisons themselves run every round.
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

import oracles as O

SQ2 = math.sqrt(2.0)
SQ3 = math.sqrt(3.0)
HAAR_TAPS = (1 / SQ2, 1 / SQ2)
D4_TAPS = tuple(c / (4 * SQ2) for c in (1 + SQ3, 3 + SQ3, 3 - SQ3, 1 - SQ3))


def lattice_taps(rng, pairs: int) -> tuple[float, ...]:
    """A random orthogonal (QMF) filter of length 2 * pairs, from the paraunitary lattice.

    The polyphase pair (a(z), b(z)) starts at (cos t_1, sin t_1) and each
    step applies diag(1, z) and then a rotation by t_k; the angles sum to
    pi / 4, so the taps sum to sqrt(2) and have unit energy.
    """
    t = rng.uniform(-np.pi, np.pi, pairs - 1)
    angles = np.append(t, np.pi / 4 - t.sum())
    a, b = np.array([np.cos(angles[0])]), np.array([np.sin(angles[0])])
    for th in angles[1:]:
        zb = np.concatenate([[0.0], b])
        a = np.append(a, 0.0)
        a, b = np.cos(th) * a - np.sin(th) * zb, np.sin(th) * a + np.cos(th) * zb
    taps = np.empty(2 * a.size)
    taps[0::2], taps[1::2] = a, b
    return tuple(float(x) for x in taps)


def real_poly(rng, deg: int, scale: float = 1.0) -> dict[int, complex]:
    """A real trigonometric polynomial: c_{-n} = conj(c_n), dense up to ``deg``."""
    out = {0: complex(rng.standard_normal() * scale)}
    for n in range(1, deg + 1):
        c = complex(rng.standard_normal(), rng.standard_normal()) * scale / 2
        out[n], out[-n] = c, c.conjugate()
    return out


def complex_poly(rng, lo: int, hi: int) -> dict[int, complex]:
    return {n: complex(rng.standard_normal(), rng.standard_normal()) for n in range(lo, hi + 1)}


def rational(rng, q: int) -> Fraction:
    p = int(rng.integers(1, q))
    while math.gcd(p, q) != 1:
        p = int(rng.integers(1, q))
    return Fraction(p, q)


def _word(X, space, dicts):
    return X.CylinderFunctional(tuple(X.Observable.from_fourier(space, d) for d in dicts))


def _prod_l1(dicts) -> float:
    return math.prod(O.l1(d) for d in dicts)


# ---------------------------------------------------------------------------
# the solenoid battery: backward walks, compatibility, Monte Carlo vs exact E_x


def build_solenoid(lab, X, seed: int, smoke: bool):
    rng = np.random.default_rng([seed, 1])
    space = X.CircleSpace()
    taps = {"haar": HAAR_TAPS, "d4": D4_TAPS}
    ops = {k: lab.call("transferop.build", X.ruelle_from_filter, space, dict(enumerate(t)))
           for k, t in taps.items()}
    count, depth = (512, 6) if smoke else (3072, 11)
    walks = []
    for i, (filt, q) in enumerate((("haar", 3), ("d4", 5), ("haar", 7), ("d4", 9))):
        dicts = [real_poly(rng, 3, 0.8) for _ in range(3)]
        walks.append(SimpleNamespace(
            filt=filt, root=rational(rng, q), dicts=dicts, word=_word(X, space, dicts),
            seed=int(rng.integers(2**31)), count=count, depth=depth))
    mass_depth = 6 if smoke else 11
    certs = [(filt, rational(rng, q), mass_depth) for filt, q in (("haar", 11), ("d4", 13))]
    return SimpleNamespace(X=X, taps=taps, ops=ops, walks=walks, certs=certs)


def battery_solenoid(lab, inp, cache: dict) -> None:
    X = inp.X
    from xferlab.solenoid import ensemble_compatibility_violations

    kept = []  # every ensemble of the round stays alive, as a caller holding results would
    for i, w in enumerate(inp.walks):
        R = inp.ops[w.filt]
        ens = lab.call("pathmeasure.sample_circle", X.sample_paths, R, w.root, w.depth, w.count, w.seed)
        bad = lab.call("solenoid.compatibility", ensemble_compatibility_violations, ens)
        mean, se = lab.call("pathmeasure.functional_mean", ens.functional_mean, w.word)
        ex = lab.call("pathmeasure.conditional_expectation", X.cylinder_expectation, R, w.root, w.word)
        kept.append(ens)

        N, D = O.circle_numerators(ens.samples, w.root, w.depth)
        ref_bad = O.circle_violations(N, D, w.root)
        lab.check(f"walk{i}.compatibility", bad == 0 and ref_bad == 0 and N.shape == (w.count, w.depth),
                  f"library {bad}, recount {ref_bad}, shape {N.shape}")
        exact, second = O.cached(cache, ("exact", i), lambda: O.circle_moments(inp.taps[w.filt], w.root, w.dicts))
        scale = _prod_l1(w.dicts)
        lab.check(f"walk{i}.exact", abs(ex - exact) <= 1e-12 * scale, f"{ex} vs branch sum {exact}")
        ref_mean, ref_se = O.sample_mean(O.circle_word_values(N, D, w.dicts))
        lab.check(f"walk{i}.mean", abs(mean - ref_mean) <= 1e-12 * scale and abs(se - ref_se) <= 1e-9 * scale,
                  f"({mean}, {se}) vs recomputed ({ref_mean}, {ref_se})")
        lab.check(f"walk{i}.mc", O.mc_agrees(mean, w.count, exact.real, second), f"{mean} vs {exact.real}")

    for j, (filt, root, n) in enumerate(inp.certs):
        m = lab.call("solenoid.support_mass", X.support_mass, inp.ops[filt], root, n)
        lab.check(f"cert{j}.support_mass", abs(m - 1.0) <= 1e-12, f"mass {m}")
    for filt, R in inp.ops.items():
        r = lab.call("transferop.pullout_check", X.pullout_check, R)
        lab.check(f"{filt}.pullout", r <= 1e-12, f"residual {r}")


# ---------------------------------------------------------------------------
# the algebra battery: exact identities at high Fourier degree


def build_algebra(lab, X, seed: int, smoke: bool):
    rng = np.random.default_rng([seed, 2])
    long_taps = lattice_taps(rng, 4)
    levels = []
    for D in ((32, 64) if smoke else (256, 512, 1024)):
        space = X.CircleSpace(degree=D)
        h = D // 2
        lv = SimpleNamespace(D=D, space=space)
        lv.a, lv.b = complex_poly(rng, -h, h), complex_poly(rng, -h, h)
        lv.cond = [complex_poly(rng, -h, h) for _ in range(3)]
        lv.words = [[real_poly(rng, D // 8) for _ in range(k)] for k in (2, 3)]
        lv.cov_words = [[real_poly(rng, D // 16) for _ in range(2)] for _ in range(2)]
        lv.basis = [real_poly(rng, D // 16) for _ in range(3)]
        lv.points = [rational(rng, q) for q in (3, 5, 7)]
        lv.power = 5
        lv.obs = {k: X.Observable.from_fourier(space, d) for k, d in (("a", lv.a), ("b", lv.b))}
        lv.cond_word = _word(X, space, lv.cond)
        lv.word_objs = [_word(X, space, w) for w in lv.words]
        lv.cov_objs = [_word(X, space, w) for w in lv.cov_words]
        lv.basis_objs = [X.Observable.from_fourier(space, d) for d in lv.basis]
        lv.haar = X.Measure.haar_measure(space)
        lv.m0 = X.Observable.from_fourier(space, dict(enumerate(D4_TAPS)))
        lv.d4 = lab.call("transferop.build", X.ruelle_from_filter, space, dict(enumerate(D4_TAPS)))
        lv.long = lab.call("transferop.build", X.ruelle_from_filter, space, dict(enumerate(long_taps)))
        lv.uniform = lab.call("transferop.build", X.uniform_circle_operator, space)
        levels.append(lv)
    top = levels[-1]
    reps = [(X.QMFFilter.make(D4_TAPS), X.CircleSpace(degree=256)),
            (X.QMFFilter.make(long_taps), X.CircleSpace(degree=512))]
    mc_deg = top.D // 8
    mc = SimpleNamespace(root=rational(rng, 7), dicts=[real_poly(rng, mc_deg, 0.3) for _ in range(2)],
                         count=64 if smoke else 512, seed=int(rng.integers(2**31)))
    mc.word = _word(X, top.space, mc.dicts)
    return SimpleNamespace(X=X, levels=levels, reps=reps, mc=mc, long_taps=long_taps)


ONE = {0: 1.0}


def _cov_bound(W, F, f, m) -> float:
    """Summation-order bound for the three covariance relations on one word pair."""
    lifted = O.mul(O.doubled(f[0]), f[1])
    words = ([ONE, O.mul(F[0], lifted), F[1]], [ONE, f[0], O.mul(F[0], f[1]), F[1]],
             [O.mul(O.mul(m, lifted), O.conj(O.mul(m, lifted)))],
             [O.mul(f[0], O.conj(f[0])), O.mul(f[1], O.conj(f[1]))])
    return max(O.word_bound(W, w) for w in words)


def battery_algebra(lab, inp, cache: dict) -> None:
    X = inp.X
    from xferlab import solenoid

    for lv in inp.levels:
        D = lv.D
        a, b = lv.obs["a"], lv.obs["b"]
        p = lab.call("statespace.mul", a.__mul__, b)
        ref, bound = O.cached(cache, (D, "p"), lambda: O.product(O.dense(lv.a), O.dense(lv.b)))
        err = O.compare(p.fourier, ref, bound)
        lab.check(f"D{D}.product", err <= 1.0, f"error / bound = {err}")

        c = lab.call("statespace.compose_with_endo", X.compose_with_endo, a)
        lab.check(f"D{D}.compose", c.fourier == {2 * n: v for n, v in lv.a.items() if v != 0}, "index doubling")
        f = lab.call("statespace.fiber_average", X.fiber_average, p)
        lab.check(f"D{D}.fiber_average", f.fourier == {n // 2: v for n, v in p.fourier.items() if n % 2 == 0},
                  "even-index gather")

        Wl = O.weight_from_taps(inp.long_taps)
        Wd = O.weight_from_taps(D4_TAPS)
        rb = lab.call("transferop.apply", lv.long.apply, b)
        ref_rb, mag = O.cached(cache, (D, "rb"), lambda: O.ruelle_apply(Wl, O.dense(lv.b)))
        err = O.compare(rb.fourier, ref_rb, (mag[0], 2 * (Wl[1].size + 4) * O.EPS * mag[1]))
        lab.check(f"D{D}.apply", err <= 1.0, f"error / bound = {err}")

        rk = lab.call("transferop.apply_power", lv.d4.apply_power, a, lv.power)

        def power_ref():
            val = O.dense(lv.a)
            mag = (val[0], np.abs(val[1]))
            for _ in range(lv.power):
                val, _ = O.ruelle_apply(Wd, val)
                _, mag = O.ruelle_apply(Wd, mag)
            return val, (mag[0], 2 * lv.power * (Wd[1].size + 4) * O.EPS * mag[1])

        ref_rk, bnd = O.cached(cache, (D, "rk"), power_ref)
        err = O.compare(rk.fourier, ref_rk, bnd)
        lab.check(f"D{D}.apply_power", err <= 1.0, f"error / bound = {err}")

        ce = lab.call("pathmeasure.conditional_expectation", X.conditional_expectation, lv.d4, lv.cond_word)
        ref_ce, bnd = O.cached(cache, (D, "ce"), lambda: O.conditional_expectation(Wd, lv.cond))
        err = O.compare(ce.fourier, ref_ce, bnd)
        lab.check(f"D{D}.conditional_expectation", err <= 1.0, f"error / bound = {err}")

        # identity residuals: twice the summation-order bound of the shifted word
        bound = O.cached(cache, (D, "bound"), lambda: max(O.word_bound(Wd, [ONE] + w) for w in lv.words))
        tol = 2 * (1 + 2 * O.l1(Wd)) * bound
        r = lab.call("pathmeasure.characterization_check", X.characterization_check, lv.haar, lv.d4, lv.word_objs)
        lab.check(f"D{D}.characterization", r <= tol, f"residual {r} > {tol}")
        r = lab.call("pathmeasure.multiplier_identity_residual", X.multiplier_identity_residual,
                     lv.d4, lv.haar, lv.word_objs)
        lab.check(f"D{D}.multiplier", r <= tol, f"residual {r} > {tol}")

        r = lab.call("solenoid.battery", solenoid.shift_invariance_residual, lv.haar, lv.d4, lv.word_objs)

        def shift_ref():
            worst = 0.0
            for w in lv.words:
                e, _ = O.conditional_expectation(Wd, w)
                re, _ = O.ruelle_apply(Wd, e)
                worst = max(worst, abs(O.on_range(re, 0, 0)[0] - O.on_range(e, 0, 0)[0]))
            return worst

        ref_shift = O.cached(cache, (D, "shift"), shift_ref)
        lab.check(f"D{D}.shift_invariance", abs(r - ref_shift) <= tol, f"{r} vs {ref_shift}")
        r = lab.call("solenoid.battery", solenoid.lift_conditional_residual, lv.d4, lv.word_objs, lv.points)
        # pointwise values sum every coefficient of the lifted expectation
        lab.check(f"D{D}.lift", r <= (2 * D + 1) * tol, f"residual {r} > {(2 * D + 1) * tol}")
        cov = lab.call("solenoid.battery", solenoid.covariance_check, lv.d4, lv.haar, lv.basis_objs,
                       lv.cov_objs, lv.m0)
        ctol = 4 * (1 + 2 * O.l1(Wd)) * O.cached(cache, (D, "cov"), lambda: max(
            _cov_bound(Wd, F, f, dict(enumerate(D4_TAPS))) for F in lv.cov_words for f in lv.cov_words))
        for name, r in cov.items():
            lab.check(f"D{D}.{name}", r <= ctol, f"residual {r} > {ctol}")

        s = lab.call("statespace.strong_invariance_check", X.strong_invariance_check, lv.haar)
        lab.check(f"D{D}.strong_invariance", s == 0.0, f"residual {s}")
        s = lab.call("transferop.stationarity_residual", X.stationarity_residual, lv.uniform, lv.haar)
        lab.check(f"D{D}.uniform_stationary", s == 0.0, f"residual {s}")
        s = lab.call("transferop.stationarity_residual", X.stationarity_residual, lv.d4, lv.haar)
        ref_s = O.cached(cache, (D, "stat"), lambda: float(np.max(np.abs(
            2 * O.on_range(Wd, -D, D)[::-1] - (np.arange(-D, D + 1) == 0)))))
        lab.check(f"D{D}.d4_not_stationary", abs(s - ref_s) <= 8 * O.EPS, f"{s} vs {ref_s}")

    for k, (h, space) in enumerate(inp.reps):
        rep = lab.call("wavelet.representation_check", X.representation_check, h, 3, 4, 2, space)
        worst = max(rep.covariance_residual, rep.scaling_residual, rep.orthogonality_residual)
        dims = rep.span_dimensions
        lab.check(f"rep{k}.residuals", worst <= 1e-10, f"residual {worst}")
        lab.check(f"rep{k}.span_growth", all(y > x for x, y in zip(dims, dims[1:])), f"dims {dims}")

    mc, top = inp.mc, inp.levels[-1]
    ens = lab.call("pathmeasure.sample_circle", X.sample_paths, top.d4, mc.root, 2, mc.count, mc.seed)
    mean, se = lab.call("pathmeasure.functional_mean", ens.functional_mean, mc.word)
    exact, second = O.cached(cache, "mc", lambda: O.circle_moments(D4_TAPS, mc.root, mc.dicts))
    lab.check("mc.high_degree", O.mc_agrees(mean, mc.count, exact.real, second), f"{mean} vs {exact.real}")


def build(lab, X, seed: int, smoke: bool, workdir):
    return SimpleNamespace(solenoid=build_solenoid(lab, X, seed, smoke), algebra=build_algebra(lab, X, seed, smoke))


def battery(lab, inp, cache: dict) -> None:
    battery_solenoid(lab, inp.solenoid, cache.setdefault("solenoid", {}))
    battery_algebra(lab, inp.algebra, cache.setdefault("algebra", {}))
