"""The ``cli`` workload: all ten subcommands through ``xferlab.cli.main``, in-process.

The committed templates in ``configs/`` fix each task's shape and size; the
seed fills the fields listed in ``README.md`` (chains, words, roots, filter
taps, networks, seeds).  Set-up writes the completed configs to the run's
scratch directory; each round runs every task once, writing its report (and
a CSV for ``sample`` and ``smale-williams``) to the same directory.
"""

from __future__ import annotations

import cmath
import csv
import json
import math
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import oracles as O
from circle import D4_TAPS, lattice_taps, rational, real_poly
from finite import random_chain, random_conductances

CONFIGS = Path(__file__).resolve().parent / "configs"
TASKS = ("expectation", "sample", "invariance", "qmf", "cascade", "representation",
         "harmonic", "correlate", "solenoid", "smale-williams")


def _cnum(c: complex):
    return [c.real, c.imag]


def _chain_fields(rng, cfg, n):
    K = random_chain(rng, n)
    cfg["space"]["states"] = [f"s{i}" for i in range(n)]
    cfg["operator"]["rows"] = K.tolist()
    return K


def build(lab, X, seed: int, smoke: bool, workdir: Path):
    rng = np.random.default_rng([seed, 4])
    cfgs = {name: json.loads((CONFIGS / f"{name}.json").read_text())
            for name in TASKS + ("invalid-expectation",)}
    n = 12 if smoke else 60
    facts = SimpleNamespace()

    c = cfgs["expectation"]
    facts.exp_K = _chain_fields(rng, c, n)
    facts.exp_word = [rng.uniform(-1, 1, n) for _ in range(10)]
    c["word"] = [{"values": v.tolist()} for v in facts.exp_word]
    c["point"] = facts.exp_point = int(rng.integers(n))

    c = cfgs["sample"]
    facts.root = rational(rng, 7)
    facts.sample_word = [real_poly(rng, 2, 0.8) for _ in range(3)]
    c.update(root=str(facts.root), seed=int(rng.integers(2**31)),
             word=[{"fourier": {str(k): _cnum(v) for k, v in d.items()}} for d in facts.sample_word])
    if smoke:
        c["count"], c["depth"] = 256, 6

    facts.inv_K = _chain_fields(rng, cfgs["invariance"], n)
    cfgs["qmf"]["filter"] = {"coeffs": list(lattice_taps(rng, 4))}

    c = cfgs["harmonic"]
    nv = 30 if smoke else 80
    C = random_conductances(rng, nv)
    facts.C = C
    facts.boundary = [int(b) for b in rng.choice(nv, 3, replace=False)]
    facts.bvals = {b: float(v) for b, v in zip(facts.boundary, rng.uniform(-1, 1, 3))}
    iu, ju = np.nonzero(np.triu(C, 1))
    c.update(vertices=nv, edges=[[int(i), int(j), float(C[i, j])] for i, j in zip(iu, ju)],
             boundary=facts.boundary, boundary_values={str(b): v for b, v in facts.bvals.items()},
             start=int(next(i for i in rng.permutation(nv) if i not in facts.boundary)),
             seed=int(rng.integers(2**31)))
    if smoke:
        c["count"] = 256

    c = cfgs["correlate"]
    facts.cor_K = _chain_fields(rng, c, n)
    facts.phi, facts.psi = rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)
    c["phi"], c["psi"] = {"values": facts.phi.tolist()}, {"values": facts.psi.tolist()}

    cfgs["solenoid"]["point"] = str(rational(rng, 11))
    if smoke:
        cfgs["solenoid"]["depth"] = 6

    c = cfgs["smale-williams"]
    z = complex(*rng.uniform(-0.7, 0.7, 2))
    c.update(t=float(rng.random()), z=_cnum(z))
    if smoke:
        c["steps"] = 500

    paths = {}
    for name, cfg in cfgs.items():
        paths[name] = workdir / f"{name}.json"
        paths[name].write_text(json.dumps(cfg))
    return SimpleNamespace(cfgs=cfgs, paths=paths, facts=facts, workdir=workdir)


def _orbit_final(t: float, z: complex, steps: int) -> tuple[float, complex]:
    for _ in range(steps):
        t, z = (2 * t) % 1.0, z / 4 + cmath.exp(2j * cmath.pi * t) / 2
    return t, z


def battery(lab, inp, cache: dict) -> dict:
    from xferlab.cli import main

    f, cfgs, wd = inp.facts, inp.cfgs, inp.workdir
    sizes = {"report_bytes": 0, "csv_bytes": 0}
    reports = {}
    for task in TASKS:
        out, extra = wd / f"{task}.report.json", []
        if task in ("sample", "smale-williams"):
            extra = ["--csv", str(wd / f"{task}.csv")]
        code = lab.call(f"cli.{task}", main, [task, "--config", str(inp.paths[task]), "--output", str(out), *extra])
        report = json.loads(out.read_text())
        sizes["report_bytes"] += out.stat().st_size
        if extra:
            sizes["csv_bytes"] += Path(extra[1]).stat().st_size
        claims = report.get("claims", [])
        lab.check(f"{task}.exit", code == 0 and report.get("pass") is True and all(c["pass"] for c in claims),
                  f"exit {code}, failing claims {[c['name'] for c in claims if not c['pass']]}")
        reports[task] = report

    r = reports["expectation"]
    ref = O.cached(cache, "expectation", lambda: float(O.finite_conditional(f.exp_K, f.exp_word)[f.exp_point]))
    lab.check("expectation.value", abs(r["expectation"] - ref) <= 1e-12 * max(1.0, abs(ref)),
              f"{r['expectation']} vs {ref}")

    r, sc = reports["sample"], cfgs["sample"]
    rows = _csv_rows(wd / "sample.csv")
    lab.check("sample.csv_rows", len(rows) == sc["count"] + 1, f"{len(rows)} rows for count {sc['count']}")
    angles = [[Fraction(x) for x in row] for row in rows[1:]]
    N, D = O.circle_numerators(angles, f.root, sc["depth"])
    bad = O.circle_violations(N, D, f.root)
    lab.check("sample.csv_compatible", bad == 0 and N.shape == (sc["count"], sc["depth"]), f"{bad} violations")
    exact, second = O.cached(cache, "sample", lambda: O.circle_moments(D4_TAPS, f.root, f.sample_word))
    exact = exact.real
    scale = math.prod(O.l1(d) for d in f.sample_word)
    lab.check("sample.exact", abs(r["exact"] - exact) <= 1e-12 * scale, f"{r['exact']} vs {exact}")
    lab.check("sample.mc", O.mc_agrees(r["mc_mean"], sc["count"], exact, second), f"{r['mc_mean']} vs {exact}")

    w = np.asarray(reports["invariance"]["measure_weights"])
    ref = O.cached(cache, "invariance", lambda: O.stationary(f.inv_K))
    lab.check("invariance.weights", float(np.max(np.abs(w - ref))) <= 1e-10, f"|mu - null space| {np.max(np.abs(w - ref))}")

    r, hc = reports["harmonic"], cfgs["harmonic"]
    ref = O.cached(cache, "harmonic", lambda: O.dirichlet(f.C, f.boundary, f.bvals))
    ref2 = O.cached(cache, "harmonic2", lambda: O.dirichlet(f.C, f.boundary, {b: v * v for b, v in f.bvals.items()}))
    lab.check("harmonic.values", float(np.max(np.abs(np.asarray(r["values"]) - ref))) <= 1e-10,
              f"|h - absorption solve| {np.max(np.abs(np.asarray(r['values']) - ref))}")
    start = hc["start"]
    lab.check("harmonic.mc", r["capped"] == 0 and O.mc_agrees(r["mc_estimate"], hc["count"], ref[start], ref2[start]),
              f"{r['mc_estimate']} vs {ref[start]}, capped {r['capped']}")

    r = reports["correlate"]
    ref_mu = O.cached(cache, "correlate", lambda: O.stationary(f.cor_K))
    worst = max(abs(v - float(ref_mu @ (f.phi * (np.linalg.matrix_power(f.cor_K, int(k)) @ f.psi))))
                for k, v in r["correlations"].items())
    lab.check("correlate.values", worst <= 1e-10, f"worst lag error {worst}")

    lab.check("solenoid.mass", reports["solenoid"]["support_mass"] == 1.0, f"{reports['solenoid']['support_mass']}")

    sw = cfgs["smale-williams"]
    rows = _csv_rows(wd / "smale-williams.csv")
    t, z = O.cached(cache, "orbit", lambda: _orbit_final(sw["t"], complex(*sw["z"]), sw["steps"]))
    last = [float(x) for x in rows[-1]]
    lab.check("smale-williams.csv", len(rows) == sw["steps"] + 2 and abs(last[0] - t) <= 1e-12
              and abs(complex(last[1], last[2]) - z) <= 1e-12, f"{len(rows)} rows, last {last}")

    code = lab.call("cli.invalid", main, ["expectation", "--config", str(inp.paths["invalid-expectation"]),
                                         "--output", str(wd / "invalid.report.json")])
    lab.check("invalid.exit", code == 2, f"exit {code}")
    return sizes


def _csv_rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))
