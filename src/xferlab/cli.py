"""Command-line front end: run one verification task from a JSON config.

Each subcommand reads a config file, runs the corresponding computation, and
writes a JSON report whose ``claims`` list carries one named check with its
value, tolerance, comparison rule, and pass flag.  Exit status: 0 all claims
pass, 1 a claim fails numerically, 2 the config is invalid, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import jsonschema
import numpy as np

from . import graphwalk, pathmeasure, solenoid, wavelet
from .serialize import (
    filter_from_json,
    jsonify,
    measure_from_json,
    observable_from_json,
    operator_from_json,
    space_from_json,
)
from .statespace import CircleSpace, FiniteSpace, Measure, integrate
from .transferop import pullout_check, stationarity_residual
from .errors import NoEndomorphismError, XferlabError

_COMPLEXNUM = {"oneOf": [{"type": "number"}, {"type": "array", "minItems": 2, "maxItems": 2}]}
_OBSERVABLE = {"type": "object"}
_SPACE = {"type": "object", "required": ["kind"]}
_OPERATOR = {"type": "object", "required": ["kind"]}
_MEASURE = {"type": "object", "required": ["kind"]}
_FILTER = {
    "type": "object",
    "required": ["coeffs"],
    "properties": {"coeffs": {"type": "array", "items": _COMPLEXNUM}, "offset": {"type": "integer"}},
}

SCHEMAS = {
    "expectation": {
        "type": "object",
        "required": ["space", "operator", "word"],
        "properties": {
            "space": _SPACE,
            "operator": _OPERATOR,
            "word": {"type": "array", "items": _OBSERVABLE, "minItems": 1},
            "point": {},
            "measure": _MEASURE,
            "tolerance": {"type": "number"},
            "expected": {"type": "number"},
        },
    },
    "sample": {
        "type": "object",
        "required": ["space", "operator", "root", "depth", "count", "seed"],
        "properties": {
            "space": _SPACE,
            "operator": _OPERATOR,
            "root": {},
            "depth": {"type": "integer", "minimum": 1},
            "count": {"type": "integer", "minimum": 1},
            "seed": {"type": "integer"},
            "word": {"type": "array", "items": _OBSERVABLE},
            "sigma_level": {"type": "number"},
        },
    },
    "invariance": {
        "type": "object",
        "required": ["space", "operator"],
        "properties": {
            "space": _SPACE,
            "operator": _OPERATOR,
            "measure": _MEASURE,
            "tolerance": {"type": "number"},
        },
    },
    "qmf": {
        "type": "object",
        "required": ["filter"],
        "properties": {"filter": _FILTER, "grid": {"type": "integer"}, "tolerance": {"type": "number"}},
    },
    "cascade": {
        "type": "object",
        "required": ["filter"],
        "properties": {
            "filter": _FILTER,
            "iterations": {"type": "integer", "minimum": 0},
            "resolution": {"type": "integer", "minimum": 1},
            "allow_non_qmf": {"type": "boolean"},
            "orthogonality_tolerance": {"type": "number"},
        },
    },
    "representation": {
        "type": "object",
        "required": ["filter"],
        "properties": {
            "filter": _FILTER,
            "depth": {"type": "integer", "minimum": 1},
            "levels": {"type": "integer", "minimum": 0},
            "max_char": {"type": "integer", "minimum": 1},
            "degree": {"type": "integer", "minimum": 1},
            "tolerance": {"type": "number"},
        },
    },
    "harmonic": {
        "type": "object",
        "required": ["boundary", "boundary_values"],
        "anyOf": [{"required": ["conductance"]}, {"required": ["edges", "vertices"]}],
        "properties": {
            "conductance": {"type": "array"},
            "edges": {"type": "array", "items": {"type": "array", "minItems": 3, "maxItems": 3}},
            "vertices": {"type": "integer", "minimum": 2},
            "boundary": {"type": "array", "items": {"type": "integer"}},
            "boundary_values": {"type": "object"},
            "start": {"type": "integer"},
            "count": {"type": "integer", "minimum": 0},
            "seed": {"type": "integer"},
            "sigma_level": {"type": "number"},
        },
    },
    "correlate": {
        "type": "object",
        "required": ["space", "operator", "phi", "psi", "lags"],
        "properties": {
            "space": _SPACE,
            "operator": _OPERATOR,
            "measure": _MEASURE,
            "phi": _OBSERVABLE,
            "psi": _OBSERVABLE,
            "lags": {"type": "array", "items": {"type": "integer", "minimum": 0}},
        },
    },
    "solenoid": {
        "type": "object",
        "required": ["space", "operator", "point", "depth"],
        "properties": {
            "space": _SPACE,
            "operator": _OPERATOR,
            "point": {},
            "depth": {"type": "integer", "minimum": 1},
            "expected_mass": {"type": "number"},
            "tolerance": {"type": "number"},
        },
    },
    "smale-williams": {
        "type": "object",
        "required": ["steps"],
        "properties": {
            "t": {"type": "number"},
            "z": _COMPLEXNUM,
            "steps": {"type": "integer", "minimum": 1},
        },
    },
}


def _claim(name, value, tolerance, rule="abs<=tol", reference=None):
    value = float(np.real(value))
    if rule == "abs<=tol":
        ok = abs(value) <= tolerance
    elif rule == "abs-diff<=tol":
        ok = abs(value - reference) <= tolerance
    elif rule == "==":
        ok = value == reference
    else:
        raise ValueError(f"unknown claim rule {rule!r}")
    out = {"name": name, "value": value, "tolerance": tolerance, "rule": rule, "pass": bool(ok)}
    if reference is not None:
        out["reference"] = reference
    return out


def _load_word(space, items):
    return pathmeasure.CylinderFunctional(
        tuple(observable_from_json(space, d) for d in items)
    )


# --- task runners ----------------------------------------------------------


def run_expectation(cfg):
    space = space_from_json(cfg["space"])
    R = operator_from_json(space, cfg["operator"])
    word = _load_word(space, cfg["word"])
    tol = cfg.get("tolerance", 1e-12)
    claims = []
    report = {}
    if "point" in cfg:
        x = space.point(cfg["point"])
        val = pathmeasure.cylinder_expectation(R, x, word)
        report["expectation"] = complex(val).real
        claims.append(_claim("kolmogorov_consistency", pathmeasure.consistency_residual(R, x, word), 1e-12))
        if "expected" in cfg:
            claims.append(_claim("expectation", val, tol, "abs-diff<=tol", cfg["expected"]))
    else:
        mu = measure_from_json(space, cfg.get("measure", {"kind": "stationary"}), R)
        val = pathmeasure.sigma_expectation(mu, R, word)
        report["expectation"] = complex(val).real
        if "expected" in cfg:
            claims.append(_claim("expectation", val, tol, "abs-diff<=tol", cfg["expected"]))
    return report, claims


def run_sample(cfg):
    space = space_from_json(cfg["space"])
    R = operator_from_json(space, cfg["operator"])
    root = cfg["root"]
    if isinstance(root, dict):
        root = measure_from_json(space, root, R)
    else:
        root = space.point(root)
    ens = pathmeasure.sample_paths(R, root, int(cfg["depth"]), int(cfg["count"]), int(cfg["seed"]))
    report = {"count": ens.count, "depth": ens.depth, "fingerprint": ens.fingerprint}
    claims = []
    try:
        violations = solenoid.ensemble_compatibility_violations(ens)
    except NoEndomorphismError:  # a finite carrier without r: no solenoid to check
        pass
    else:
        claims.append(_claim("solenoid_violations", violations, 0, "==", 0))
    if "word" in cfg:
        word = _load_word(space, cfg["word"])
        mean, stderr = ens.functional_mean(word)
        if isinstance(root, Measure):
            mu = root
            exact = complex(pathmeasure.sigma_expectation(mu, R, word)).real
        else:
            exact = complex(pathmeasure.cylinder_expectation(R, root, word)).real
        level = cfg.get("sigma_level", 4.0)
        report.update({"mc_mean": mean, "mc_stderr": stderr, "exact": exact})
        claims.append(
            _claim("mc_within_sigma", mean - exact, level * max(stderr, 1e-15), "abs<=tol")
        )
    return report, claims, ens


def run_invariance(cfg):
    space = space_from_json(cfg["space"])
    R = operator_from_json(space, cfg["operator"])
    tol = cfg.get("tolerance", 1e-10)
    mu = measure_from_json(space, cfg.get("measure", {"kind": "stationary"}), R)
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
    h = filter_from_json(cfg["filter"])
    rep = wavelet.qmf_check(h, grid=int(cfg.get("grid", 1024)))
    tol = cfg.get("tolerance", 1e-10)
    report = {
        "coeff_residual": rep.coeff_residual,
        "grid_residual": rep.grid_residual,
        "normalization_residual": rep.normalization_residual,
    }
    claims = [
        _claim("qmf_coefficient_identity", rep.coeff_residual, tol),
        _claim("qmf_grid_identity", rep.grid_residual, max(tol, 1e-9)),
        _claim("normalization", rep.normalization_residual, 1e-12),
    ]
    return report, claims


def run_cascade(cfg):
    h = filter_from_json(cfg["filter"])
    sf = wavelet.cascade(
        h,
        iterations=int(cfg.get("iterations", 12)),
        resolution=int(cfg.get("resolution", 10)),
        allow_non_qmf=bool(cfg.get("allow_non_qmf", False)),
    )
    a_grid = wavelet.translate_orthogonality(sf)
    a_fixed = wavelet.orthogonality_from_filter(h)
    tol = cfg.get("orthogonality_tolerance", 1e-4)
    report = {
        "integral": sf.integral(),
        "refinement_residuals": sf.refinement_residuals,
        "orthogonality_grid": {str(k): [v.real, v.imag] for k, v in sorted(a_grid.items())},
        "orthogonality_fixed_point": {
            str(k): [v.real, v.imag] for k, v in sorted(a_fixed.items())
        },
    }
    claims = [
        _claim("translate_orthogonality", wavelet.orthogonality_defect(a_grid), tol),
        _claim(
            "filter_domain_orthogonality", wavelet.orthogonality_defect(a_fixed), max(tol, 1e-8)
        ),
    ]
    return report, claims


def run_representation(cfg):
    h = filter_from_json(cfg["filter"])
    space = CircleSpace(degree=int(cfg.get("degree", 256)))
    rep = wavelet.representation_check(
        h,
        depth=int(cfg.get("depth", 3)),
        levels=int(cfg.get("levels", 4)),
        max_char=int(cfg.get("max_char", 2)),
        space=space,
    )
    tol = cfg.get("tolerance", 1e-10)
    dims = rep.span_dimensions
    report = {
        "covariance_residual": rep.covariance_residual,
        "scaling_residual": rep.scaling_residual,
        "orthogonality_residual": rep.orthogonality_residual,
        "span_dimensions": dims,
    }
    claims = [
        _claim("covariance", rep.covariance_residual, tol),
        _claim("scaling_identity", rep.scaling_residual, tol),
        _claim("translate_orthogonality", rep.orthogonality_residual, tol),
        _claim(
            "span_growth",
            0.0 if all(b > a for a, b in zip(dims, dims[1:])) else 1.0,
            0.0,
        ),
    ]
    return report, claims


def run_harmonic(cfg):
    if "conductance" in cfg:
        c = np.asarray(cfg["conductance"], dtype=float)
    else:
        n = int(cfg["vertices"])
        c = np.zeros((n, n))
        for u, v, cond in cfg["edges"]:
            c[int(u), int(v)] = c[int(v), int(u)] = float(cond)
    if cfg.get("count", 0) and "seed" not in cfg:
        raise ValueError("a seed is mandatory for Monte Carlo verification")
    space = FiniteSpace(tuple(f"v{i}" for i in range(c.shape[0])))
    net = graphwalk.Network(space, c, tuple(cfg["boundary"]))
    bv = {int(k): float(v) for k, v in cfg["boundary_values"].items()}
    h = graphwalk.harmonic_solve(net, bv)
    report = {"values": list(np.real(h.values))}
    claims = [
        _claim("laplacian_interior", graphwalk.harmonicity_residual(net, h), 1e-10),
        _claim("detailed_balance", graphwalk.detailed_balance_residual(net), 1e-12),
    ]
    if cfg.get("count", 0) and "start" in cfg:
        rep = graphwalk.hitting_verification(
            net, bv, space.point(cfg["start"]), int(cfg["count"]), int(cfg.get("seed", 0))
        )
        level = cfg.get("sigma_level", 4.0)
        report.update(
            {"mc_estimate": rep.estimate, "mc_stderr": rep.stderr, "exact": rep.exact, "capped": rep.capped}
        )
        claims.append(_claim("capped_walks", rep.capped, 0, "==", 0))
        claims.append(
            _claim("hitting_within_sigma", rep.estimate - rep.exact, level * max(rep.stderr, 1e-15))
        )
    return report, claims


def run_correlate(cfg):
    space = space_from_json(cfg["space"])
    R = operator_from_json(space, cfg["operator"])
    mu = measure_from_json(space, cfg.get("measure", {"kind": "stationary"}), R)
    phi = observable_from_json(space, cfg["phi"])
    psi = observable_from_json(space, cfg["psi"])
    values = {}
    for k in cfg["lags"]:
        values[str(k)] = complex(pathmeasure.correlation(mu, R, phi, psi, int(k))).real
    limit = complex(integrate(mu, phi) * integrate(mu, psi)).real
    return {"correlations": values, "product_of_means": limit}, []


def run_solenoid(cfg):
    space = space_from_json(cfg["space"])
    R = operator_from_json(space, cfg["operator"])
    x = space.point(cfg["point"])
    mass = solenoid.support_mass(R, x, int(cfg["depth"]))
    tol = cfg.get("tolerance", 1e-12)
    report = {"support_mass": mass, "pullout_residual": pullout_check(R)}
    claims = [_claim("pullout_axiom", report["pullout_residual"], 1e-10)]
    if "expected_mass" in cfg:
        claims.append(_claim("support_mass", mass, tol, "abs-diff<=tol", cfg["expected_mass"]))
    return report, claims


def run_smale_williams(cfg):
    z = cfg.get("z", 0.0)
    z = complex(z[0], z[1]) if isinstance(z, list) else complex(z)
    s = solenoid.SmaleWilliamsState(float(cfg.get("t", 0.0)), z)
    orbit = solenoid.smale_williams_orbit(s, int(cfg["steps"]))
    radii = np.hypot(orbit[:, 1], orbit[:, 2])
    report = {
        "final": list(orbit[-1]),
        "max_radius": float(radii.max()),
        "max_radius_after_first": float(radii[1:].max()),
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xferlab", description="transfer-operator verification tasks"
    )
    sub = parser.add_subparsers(dest="task", required=True)
    for task in RUNNERS:
        p = sub.add_parser(task, help=f"run the {task} task")
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--output", help="write the JSON report here (default stdout)")
        p.add_argument("--csv", help="write tabular output (samples/orbit) here")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 3
    except json.JSONDecodeError as exc:
        print(f"config is not valid JSON: {exc}", file=sys.stderr)
        return 2
    try:
        jsonschema.validate(cfg, SCHEMAS[args.task])
    except jsonschema.ValidationError as exc:
        print(f"config fails validation: {exc.message}", file=sys.stderr)
        return 2

    try:
        # runners with tabular output (sample, smale-williams) return it third
        report, claims, *table = RUNNERS[args.task](cfg)
    except (ValueError, KeyError, XferlabError) as exc:
        print(f"config is inconsistent: {exc}", file=sys.stderr)
        return 2

    report = {
        "task": args.task,
        **jsonify(report),
        "claims": jsonify(claims),
        "pass": all(c["pass"] for c in claims),
    }
    text = json.dumps(report, indent=2, sort_keys=False)
    try:
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text + "\n")
        else:
            print(text)
        if args.csv:
            _write_csv(args.csv, table[0] if table else None)
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 3
    return 0 if report["pass"] else 1


def _write_csv(path, table) -> None:
    if isinstance(table, pathmeasure.PathEnsemble):
        table.to_csv(path)
    elif table is not None:
        np.savetxt(path, table, delimiter=",", header="t,re_z,im_z", comments="")
    else:
        raise OSError("this task has no tabular output")


if __name__ == "__main__":
    raise SystemExit(main())
