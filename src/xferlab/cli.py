"""Command-line front end: run one verification task from a JSON config.

Each subcommand reads a config file, runs the corresponding computation, and
writes a JSON report whose ``claims`` list carries one named check with its
value, tolerance, comparison rule, and pass flag.  Exit status: 0 all claims
pass, 1 a claim fails numerically, 2 the config is invalid, 3 I/O failure, 4 a
crash (any other exception from a runner, whose traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
import traceback

import numpy as np

from . import graphwalk, pathmeasure, solenoid, wavelet
from .serialize import (
    field,
    filter_from_json,
    int_keyed,
    jsonify,
    measure_from_json,
    observable_from_json,
    operator_from_json,
    point_from_json,
    space_from_json,
    value,
)
from .statespace import CircleSpace, FiniteSpace, integrate
from .transferop import pullout_check, stationarity_residual
from .errors import NoEndomorphismError, NormalizationError, XferlabError

STATIONARY = {"kind": "stationary"}


def _claim(name, value, tolerance, rule="abs<=tol", reference=None):
    value = complex(value)  # jsonify writes [re, im], or a plain number when the value is real
    if rule == "abs<=tol":
        ok = abs(value) <= tolerance
    elif rule == "abs-diff<=tol":
        ok = abs(value - reference) <= tolerance
    else:  # "=="
        ok = value == reference
    out = {"name": name, "value": value, "tolerance": tolerance, "rule": rule, "pass": bool(ok)}
    if reference is not None:
        out["reference"] = reference
    return out


def _mc_claim(name, estimate, exact, sigma, count, level):
    """The report fields ``exact`` and ``exact_stderr`` = sigma / sqrt(count), and the claim |estimate - exact| <=
    level max(exact_stderr, 1e-15): the exact sigma, since the sample's is 0 whenever a rare branch is never drawn."""
    exact_stderr = sigma / np.sqrt(count)
    claim = _claim(name, estimate - exact, level * max(exact_stderr, 1e-15))
    return {"exact": exact, "exact_stderr": exact_stderr}, claim


def _load_word(space, items):
    return pathmeasure.CylinderFunctional(
        tuple(observable_from_json(space, d, f"word[{i}]") for i, d in enumerate(items))
    )


def _load_chain(cfg):
    space = space_from_json(field(cfg, "space", dict))
    return space, operator_from_json(space, field(cfg, "operator", dict))


# --- task runners ----------------------------------------------------------
# Each runner reads every field it uses before its computation starts, so a
# bad field is refused (exit 2) before any sampling or solving.


def run_expectation(cfg):
    tol = field(cfg, "tolerance", float, 1e-12)
    expected = field(cfg, "expected", float, None)
    space, R = _load_chain(cfg)
    word = _load_word(space, field(cfg, "word", list))
    claims = []
    if "point" in cfg:
        x = point_from_json(space, cfg["point"], "point")
        val = pathmeasure.cylinder_expectation(R, x, word)
        claims.append(_claim("kolmogorov_consistency", pathmeasure.consistency_residual(R, x, word), 1e-12))
    else:
        mu = measure_from_json(space, field(cfg, "measure", dict, STATIONARY), R)
        val = pathmeasure.sigma_expectation(mu, R, word)
    if expected is not None:
        claims.append(_claim("expectation", val, tol, "abs-diff<=tol", expected))
    return {"expectation": complex(val)}, claims


def run_sample(cfg):
    depth = field(cfg, "depth", int, minimum=1)
    count = field(cfg, "count", int, minimum=1)
    seed = field(cfg, "seed", int, minimum=0)
    level = field(cfg, "sigma_level", float, 4.0)
    space, R = _load_chain(cfg)
    word = field(cfg, "word", list, None)
    if word is not None:
        word = _load_word(space, word)
        if word.depth > depth:
            raise ValueError(f"word has depth {word.depth}, more than the sampled depth {depth}")
    root = field(cfg, "root", object)
    if isinstance(root, dict):
        root = measure_from_json(space, root, R, "root")
    else:
        root = point_from_json(space, root, "root")
    ens = pathmeasure.sample_paths(R, root, depth, count, seed)
    report = {"count": ens.count, "depth": ens.depth, "fingerprint": ens.fingerprint}
    claims = []
    try:
        violations = solenoid.ensemble_compatibility_violations(ens)
    except NoEndomorphismError:  # a finite carrier without r: no solenoid to check
        pass
    else:
        claims.append(_claim("solenoid_violations", violations, 0, "==", 0))
    if word is not None:
        mean, stderr = ens.functional_mean(word)
        exact, sigma = pathmeasure.real_moments(R, root, word)
        fields, claim = _mc_claim("mc_within_sigma", mean, exact, sigma, ens.count, level)
        report.update({"mc_mean": mean, "mc_stderr": stderr, **fields})
        claims.append(claim)
    return report, claims, ens


def run_invariance(cfg):
    tol = field(cfg, "tolerance", float, 1e-10)
    space, R = _load_chain(cfg)
    mu = measure_from_json(space, field(cfg, "measure", dict, STATIONARY), R)
    report = mu.report()
    res = stationarity_residual(R, mu)
    battery = pathmeasure.default_word_battery(space)
    shift_res = solenoid.shift_invariance_residual(mu, R, battery)
    report.update({"stationarity_residual": res, "shift_invariance_residual": shift_res})
    claims = [
        _claim("stationarity", res, tol),
        _claim("shift_invariance", shift_res, max(tol, 1e-9)),
    ]
    return report, claims


def run_qmf(cfg):
    grid = field(cfg, "grid", int, 1024, minimum=1)
    tol = field(cfg, "tolerance", float, 1e-10)
    h = filter_from_json(field(cfg, "filter", dict))
    rep = wavelet.qmf_check(h, grid=grid)
    claims = [
        _claim("qmf_coefficient_identity", rep.coeff_residual, tol),
        _claim("qmf_grid_identity", rep.grid_residual, max(tol, 1e-9)),
        _claim("normalization", rep.normalization_residual, 1e-12),
    ]
    return dataclasses.asdict(rep), claims


def run_cascade(cfg):
    iterations = field(cfg, "iterations", int, 12, minimum=0)
    resolution = field(cfg, "resolution", int, 10, minimum=1)
    allow_non_qmf = field(cfg, "allow_non_qmf", bool, False)
    tol = field(cfg, "orthogonality_tolerance", float, 1e-4)
    h = filter_from_json(field(cfg, "filter", dict))
    sf = wavelet.cascade(h, iterations=iterations, resolution=resolution, allow_non_qmf=allow_non_qmf)
    a_grid = wavelet.translate_orthogonality(sf)
    report = {
        "integral": sf.integral(),
        "refinement_residuals": sf.refinement_residuals,
        "orthogonality_grid": {str(k): [v.real, v.imag] for k, v in sorted(a_grid.items())},
        # past `resolution` iterations the grid aliases the iterate: the three keys above describe the alias
        "grid_holds_iterate": iterations <= resolution,
    }
    try:  # a QMF cascade keeps the exact correlations T^n delta = delta, so only Lawton's count can fail
        count = wavelet.lawton_multiplicity(h)
    except NormalizationError:  # a non-QMF negative control: Lawton's criterion does not apply
        return report, [_claim("translate_orthogonality", wavelet.orthogonality_defect(a_grid), tol)]
    report["lawton_multiplicity"] = count
    return report, [_claim("lawton_simple_eigenvalue", count, 0, "==", 1)]


def run_representation(cfg):
    space = CircleSpace(degree=field(cfg, "degree", int, 256, minimum=1))
    depth = field(cfg, "depth", int, 3, minimum=1)
    levels = field(cfg, "levels", int, 4, minimum=0)
    max_char = field(cfg, "max_char", int, 2, minimum=1)
    tol = field(cfg, "tolerance", float, 1e-10)
    h = filter_from_json(field(cfg, "filter", dict))
    rep = wavelet.representation_check(h, depth=depth, levels=levels, max_char=max_char, space=space)
    dims = rep.span_dimensions
    # report data only: orthogonality_residual compares a depth-1 word with itself, and scaling_residual
    # (U1 = m (1 o r) o pi_1 against m) sees only 1 o r = 1, which the covariance claim checks too
    claims = [
        _claim("covariance", rep.covariance_residual, tol),
        _claim(
            "span_growth",
            0.0 if all(b > a for a, b in zip(dims, dims[1:])) else 1.0,
            0.0,
        ),
    ]
    return dataclasses.asdict(rep), claims


def run_harmonic(cfg):
    count = field(cfg, "count", int, 0, minimum=0)
    seed = field(cfg, "seed", int, None, minimum=0)
    start = field(cfg, "start", int, None)
    level = field(cfg, "sigma_level", float, 4.0)
    boundary = field(cfg, "boundary", int, dims=1)
    bv = int_keyed(cfg, "boundary_values", float)
    n = field(cfg, "vertices", int, minimum=2)
    edges = field(cfg, "edges", list, dims=1)
    for key, given in (("seed", seed), ("start", start)):
        if count and given is None:
            raise ValueError(f"{key} is required for Monte Carlo verification (count > 0)")

    def conductances(named):  # names are built only by a second, named pass, which repeats a refusal
        c, seen = np.zeros((n, n)), {}
        for i, edge in enumerate(edges):
            if len(edge) != 3:
                raise ValueError(f"edges[{i}] must be [u, v, conductance], not {edge!r:.40}")
            u, v = (value(edge[j], int, f"edges[{i}][{j}]" if named else "", minimum=0) for j in (0, 1))
            if max(u, v) >= n:
                raise ValueError(f"edges[{i}] joins a vertex outside [0, {n})")
            if (pair := frozenset((u, v))) in seen:
                raise ValueError(f"edges[{i}] repeats the edge {{{u}, {v}}} of edges[{seen[pair]}]")
            seen[pair] = i
            c[u, v] = c[v, u] = value(edge[2], float, f"edges[{i}][2]" if named else "")
        return c

    try:
        c = conductances(False)
    except ValueError:
        conductances(True)
        raise
    space = FiniteSpace(tuple(f"v{i}" for i in range(n)))
    net = graphwalk.Network(space, c, tuple(boundary))
    x = None if start is None else point_from_json(space, start, "start")
    h = graphwalk.harmonic_solve(net, bv)
    report = {"values": list(np.real(h.values))}
    claims = [
        _claim("laplacian_interior", graphwalk.harmonicity_residual(net, h), 1e-10),
        _claim("detailed_balance", graphwalk.detailed_balance_residual(net), 1e-12),
    ]
    if count:
        rep = graphwalk.hitting_verification(net, bv, x, count, seed)
        fields, claim = _mc_claim("hitting_within_sigma", rep.estimate, rep.exact, rep.sigma, count, level)
        report.update({"mc_estimate": rep.estimate, "mc_stderr": rep.stderr, **fields, "capped": rep.capped})
        claims += [_claim("capped_walks", rep.capped, 0, "==", 0), claim]
    return report, claims


def run_correlate(cfg):
    lags = field(cfg, "lags", int, minimum=0, dims=1)
    space, R = _load_chain(cfg)
    phi = observable_from_json(space, field(cfg, "phi", dict), "phi")
    psi = observable_from_json(space, field(cfg, "psi", dict), "psi")
    mu = measure_from_json(space, field(cfg, "measure", dict, STATIONARY), R)
    values = {str(k): complex(pathmeasure.correlation(mu, R, phi, psi, k)) for k in lags}
    limit = complex(integrate(mu, phi) * integrate(mu, psi))
    return {"correlations": values, "product_of_means": limit}, []


def run_solenoid(cfg):
    depth = field(cfg, "depth", int, minimum=1)
    tol = field(cfg, "tolerance", float, 1e-12)
    expected = field(cfg, "expected_mass", float, None)
    space, R = _load_chain(cfg)
    x = point_from_json(space, field(cfg, "point", object), "point")
    mass = solenoid.support_mass(R, x, depth)
    report = {"support_mass": mass, "pullout_residual": pullout_check(R)}
    claims = [_claim("pullout_axiom", report["pullout_residual"], 1e-10)]
    if expected is not None:
        claims.append(_claim("support_mass", mass, tol, "abs-diff<=tol", expected))
    return report, claims


def run_smale_williams(cfg):
    t = field(cfg, "t", float, 0.0)
    z = field(cfg, "z", complex, 0j)
    steps = field(cfg, "steps", int, minimum=1)
    s = solenoid.SmaleWilliamsState(float(t), z)
    orbit = solenoid.smale_williams_orbit(s, steps)
    radii = np.hypot(orbit[:, 1], orbit[:, 2])
    report = {
        "final": list(orbit[-1]),
        "max_radius": float(radii.max()),
        "max_radius_after_first": float(radii[1:].max()),
        "distinct_angles": np.unique(orbit[:, 0]).size,
    }
    claims = [
        _claim(
            "attractor_radius_bound",
            max(report["max_radius_after_first"] - 0.75, 0.0),
            1e-12,
        )
    ]
    return report, claims, orbit


RUNNERS = {
    "expectation": run_expectation,
    "sample": run_sample,
    "invariance": run_invariance,
    "qmf": run_qmf,
    "cascade": run_cascade,
    "representation": run_representation,
    "harmonic": run_harmonic,
    "correlate": run_correlate,
    "solenoid": run_solenoid,
    "smale-williams": run_smale_williams,
}


@functools.cache  # built on the first main call, not at import, and reused by every later call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xferlab", description="transfer-operator verification tasks"
    )
    sub = parser.add_subparsers(dest="task", required=True)
    for task in RUNNERS:
        p = sub.add_parser(task, help=f"run the {task} task")
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--output", help="write the JSON report here (default stdout)")
        if task in ("sample", "smale-williams"):  # the tasks with tabular output, which their runners return third
            p.add_argument("--csv", help="write the sampled paths or the orbit here as CSV")
    return parser


def _no_constant(token):
    raise ValueError(f"{token} is not a JSON number")


def _finite_float(literal):
    x = float(literal)
    if not math.isfinite(x):
        raise ValueError(f"{literal} overflows a float")
    return x


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.config) as fh:
            cfg = json.load(fh, parse_constant=_no_constant, parse_float=_finite_float)
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # a JSONDecodeError, or a refusal of _no_constant or _finite_float
        print(f"config is not valid JSON: {exc}", file=sys.stderr)
        return 2
    try:
        report, claims, *table = RUNNERS[args.task](cfg)
    except (ValueError, XferlabError) as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 2
    except Exception:  # a crash, not a failed claim
        traceback.print_exc()
        return 4

    report = {
        "task": args.task,
        **jsonify(report),
        "claims": jsonify(claims),
        "pass": all(c["pass"] for c in claims),
    }
    text = json.dumps(report, indent=2, allow_nan=False)
    try:
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text + "\n")
        else:
            print(text)
        if getattr(args, "csv", None):
            _write_csv(args.csv, table[0])
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 3
    return 0 if report["pass"] else 1


def _write_csv(path, table) -> None:
    if isinstance(table, pathmeasure.PathEnsemble):
        table.to_csv(path)
    else:
        # np.savetxt's bytes, each run of bit-equal rows (a float orbit ends in one) formatted once, in bytes
        bits = table.view(np.uint64)
        starts = np.flatnonzero(np.r_[True, (bits[1:] != bits[:-1]).any(axis=1)]).tolist()
        with open(path, "wb") as fh:
            fh.write(b"t,re_z,im_z\n")
            for a, b in zip(starts, starts[1:] + [len(table)]):
                line = b"%.18e,%.18e,%.18e\n" % tuple(table[a].tolist())
                for left in range(b - a, 0, -4096):
                    fh.write(line * min(left, 4096))


if __name__ == "__main__":
    raise SystemExit(main())
