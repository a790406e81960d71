"""CLI: config validation, report shape, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fractions import Fraction

import xferlab
from xferlab.cli import _write_csv, main
from xferlab.serialize import angle_from_json

TWO_STATE = {"kind": "finite", "states": ["a", "b"]}
CHAIN_OP = {"kind": "matrix", "rows": [[0.75, 0.25], [0.5, 0.5]]}
HAAR = {"coeffs": [0.7071067811865476, 0.7071067811865476]}
CIRCLE = {"kind": "circle", "degree": 8}
HAAR_OP = {"kind": "ruelle", "m0": {"0": HAAR["coeffs"][0], "1": HAAR["coeffs"][1]}}
ONE_ON_CIRCLE = [{"fourier": {"0": 1.0}}]
ONE_ON_TWO_STATES = [{"values": [1, 1]}]


def _expect(space, operator, word, **extra):
    return "expectation", {"space": space, "operator": operator, "word": word, **extra}


# config -> (task, config, a fragment of the exit-2 message); every one is refused before any numerics
INCONSISTENT = {
    "rows-not-stochastic": _expect(TWO_STATE, {"kind": "matrix", "rows": [[0.6, 0.3], [0.5, 0.5]]},
                                   [{"values": [1, 0]}]) + ("rows must sum to 1",),
    "values-on-circle": _expect(CIRCLE, HAAR_OP, [{"values": [1, 0]}], point=0) + ("needs a FiniteSpace",),
    "fourier-on-finite": _expect(TWO_STATE, CHAIN_OP, ONE_ON_CIRCLE, point=0) + ("needs a CircleSpace",),
    "matrix-on-circle": _expect(CIRCLE, CHAIN_OP, ONE_ON_CIRCLE, point=0) + ("needs a FiniteSpace",),
    "endo-on-circle": _expect(CIRCLE, {"kind": "endo"}, ONE_ON_CIRCLE, point=0) + ("needs a FiniteSpace",),
    "ruelle-on-finite": _expect(TWO_STATE, HAAR_OP, ONE_ON_TWO_STATES, point=0) + ("needs a CircleSpace",),
    "haar-on-finite": _expect(TWO_STATE, CHAIN_OP, ONE_ON_TWO_STATES, measure={"kind": "haar"})
    + ("needs a CircleSpace",),
    "uniform-on-circle": _expect(CIRCLE, HAAR_OP, ONE_ON_CIRCLE, measure={"kind": "uniform"})
    + ("needs a FiniteSpace",),
    "point-negative": _expect(TWO_STATE, CHAIN_OP, ONE_ON_TWO_STATES, point=-1) + ("state index in [0, 2)",),
    "point-fractional": _expect(TWO_STATE, CHAIN_OP, ONE_ON_TWO_STATES, point=1.5) + ("state index in [0, 2)",),
    "point-past-the-end": _expect(TWO_STATE, CHAIN_OP, ONE_ON_TWO_STATES, point=5) + ("state index in [0, 2)",),
    "sample-root-negative": ("sample", {"space": TWO_STATE, "operator": CHAIN_OP, "root": -1, "depth": 3,
                                        "count": 10, "seed": 1}, "state index in [0, 2)"),
    "harmonic-start-negative": ("harmonic", {"edges": [[0, 1, 1.0], [1, 2, 2.0]], "vertices": 3, "boundary": [0, 2],
                                             "boundary_values": {"0": 0.0, "2": 1.0}, "start": -2, "count": 100,
                                             "seed": 1}, "state index in [0, 3)"),
    "space-kind-unknown": ("invariance", {"space": {"kind": "torus"}, "operator": CHAIN_OP},
                           "unknown space kind 'torus'"),
    "operator-kind-unknown": ("invariance", {"space": TWO_STATE, "operator": {"kind": "integral"}},
                              "unknown operator kind 'integral'"),
    "measure-kind-unknown": ("invariance", {"space": TWO_STATE, "operator": CHAIN_OP, "measure": {"kind": "lebesgue"}},
                             "unknown measure kind 'lebesgue'"),
    "observable-without-values-or-fourier": _expect(TWO_STATE, CHAIN_OP, [{"coeffs": [1, 1]}], point=0)
    + ("word[0] needs 'values' or 'fourier'",),
}


# one valid config per task; every config below differs from one of these in a single field
BASE = {
    "expectation": {"space": TWO_STATE, "operator": CHAIN_OP, "word": ONE_ON_TWO_STATES, "point": 0},
    "sample": {"space": TWO_STATE, "operator": CHAIN_OP, "root": 0, "depth": 3.0, "count": 10, "seed": 1},
    "invariance": {"space": TWO_STATE, "operator": CHAIN_OP},
    "qmf": {"filter": HAAR},
    "cascade": {"filter": HAAR},
    "representation": {"filter": HAAR, "depth": 2, "levels": 3, "degree": 32},
    "harmonic": {"edges": [[0, 1, 1.0], [1, 2, 2.0]], "vertices": 3, "boundary": [0, 2],
                 "boundary_values": {"0": 0.0, "2": 1.0}},
    "correlate": {"space": TWO_STATE, "operator": CHAIN_OP, "phi": {"values": [1, 0]}, "psi": {"values": [1, 0]},
                  "lags": [0, 1]},
    "solenoid": {"space": CIRCLE, "operator": HAAR_OP, "point": 0, "depth": 3},
    "smale-williams": {"steps": 10},
}
DROP = object()
HAAR_TAP = HAAR["coeffs"][0]
# draws 0-3 of bench/circle.py's lattice_taps(np.random.default_rng(0), 2): orthonormal QMF filters
LATTICE_DRAWS = [
    [0.6501756245823669, -0.04895778975246476, 0.056931156604180556, 0.7560645709390122],
    [-0.07613390288122024, 0.09788010331717983, 0.7832406840677678, 0.6092266778693676],
    [0.8353708028517783, 0.48716469716767336, -0.12826402166523082, 0.2199420840188741],
    [0.7724122608086929, 0.6266051198349372, -0.06530547962214538, 0.08050166135161034],
]
ORTHONORMAL = {
    "haar": HAAR["coeffs"],
    "haar-12-digits": [0.707106781187] * 2,
    "d4": xferlab.daubechies4().coeffs.real.tolist(),
    "d4-rounded": [0.48296291314469025, 0.8365163037378079, 0.2241438680420134, -0.12940952255092145],
    **{f"lattice-{i}": taps for i, taps in enumerate(LATTICE_DRAWS)},
}


def _with(task, **changes):
    cfg = {k: v for k, v in {**BASE[task], **changes}.items() if v is not DROP}
    return task, cfg


def _edges(*edges):
    return _with("harmonic", edges=[[0, 1, 1.0], *edges])


# fields the loaders once coerced, each accepted or crashing with a traceback:
# (task, config, the field the message names)
COERCED = {
    "degree-fractional": _with("solenoid", space={"kind": "circle", "degree": 32.9}) + ("space.degree",),
    "degree-string": _with("solenoid", space={"kind": "circle", "degree": "32"}) + ("space.degree",),
    "states-string": _with("invariance", space={"kind": "finite", "states": "ab"}) + ("space.states",),
    "rows-string": _with("invariance", operator={"kind": "matrix", "rows": [["0.75", 0.25], [0.5, 0.5]]})
    + ("operator.rows[0][0]",),
    "weights-string": _with("expectation", point=DROP, measure={"kind": "weights", "weights": ["0.5", 0.5]})
    + ("measure.weights[0]",),
    "values-bool-and-string": _with("expectation", word=[{"values": [True, "0"]}]) + ("word[0].values[0]",),
    "endo-fractional": _with("invariance", space={**TWO_STATE, "endo": [1.7, 0]}, operator={"kind": "endo"})
    + ("space.endo[0]",),
    "edge-fractional-vertex": _edges([0.9, 1, 1.0]) + ("edges[1][0]",),
    "edge-negative-vertex": _edges([1, -1, 2.0]) + ("edges[1][1]",),
    "edge-vertex-past-the-end": _edges([1, 5, 2.0]) + ("edges[1]",),
    "edge-repeated-reversed": _edges([1, 0, 5.0]) + ("edges[1]",),
    "normalization-string": _with("qmf", filter={**HAAR, "require_normalization": "no"})
    + ("filter.require_normalization",),
    "m0-key-underscore": _with("solenoid", operator={"kind": "ruelle", "m0": {"0": HAAR_TAP, "1_1": HAAR_TAP}})
    + ("operator.m0",),
    "m0-key-twice": _with("solenoid", operator={"kind": "ruelle", "m0": {"0": HAAR_TAP, "1": HAAR_TAP, "01": HAAR_TAP}})
    + ("operator.m0",),
    "boundary-value-string": _with("harmonic", boundary_values={"0": 0.0, "2": "1"}) + ("boundary_values.2",),
    "fourier-key-space": _with("solenoid", operator={"kind": "ruelle", "weight": {" 0": 0.5}}) + ("operator.weight",),
    # a refused leaf past the first of its array: the refusal is repeated by a second walk that builds the names
    "rows-string-inner": _with("invariance", operator={"kind": "matrix", "rows": [[0.75, 0.25], [0.5, "0.5"]]})
    + ("operator.rows[1][1]",),
    "values-string-third": _with("expectation", space={"kind": "finite", "states": ["a", "b", "c"]},
                                 operator={"kind": "matrix", "rows": [[1.0, 0.0, 0.0]] * 3},
                                 word=[{"values": [1, 0, 0]}, {"values": [1, 0, "0"]}]) + ("word[1].values[2]",),
    "edge-conductance-string": _edges([1, 2, 2.0], [0, 2, "1.5"]) + ("edges[2][2]",),
    "coeff-string-fourth": _with("qmf", filter={"coeffs": [0.5, 0.5, 0.5, "0.5"]}) + ("filter.coeffs[3]",),
}

# one config per constraint of the former JSON Schema: (task, config, the field the message names)
SCHEMA = {
    **{f"{task}-missing-{key}": _with(task, **{key: DROP}) + (key,) for task, key in (
        ("expectation", "word"), ("sample", "seed"), ("sample", "root"), ("invariance", "operator"),
        ("qmf", "filter"), ("cascade", "filter"), ("representation", "filter"), ("harmonic", "boundary_values"),
        ("harmonic", "boundary"), ("harmonic", "edges"), ("harmonic", "vertices"), ("correlate", "lags"),
        ("correlate", "psi"), ("solenoid", "depth"),
        ("solenoid", "point"), ("smale-williams", "steps"))},
    "space-not-an-object": _with("invariance", space=["finite"]) + ("space",),
    "space-without-kind": _with("invariance", space={"states": ["a", "b"]}) + ("space.kind",),
    "operator-without-kind": _with("invariance", operator={"rows": CHAIN_OP["rows"]}) + ("operator.kind",),
    "measure-without-kind": _with("invariance", measure={}) + ("measure.kind",),
    "filter-without-coeffs": _with("cascade", filter={"offset": 0}) + ("filter.coeffs",),
    "word-item-a-string": _with("expectation", word=["x"]) + ("word[0]",),
    "word-empty": _with("expectation", word=[]) + ("cylinder word",),
    "config-not-an-object": ("qmf", [HAAR], "config"),
    "depth-fractional": _with("sample", depth=3.5) + ("depth",),
    "count-true": _with("sample", count=True) + ("count",),
    "seed-string": _with("sample", seed="1") + ("seed",),
    "tolerance-true": _with("invariance", tolerance=True) + ("tolerance",),
    "tolerance-string": _with("qmf", tolerance="1") + ("tolerance",),
    "expected-string": _with("expectation", expected="0.5") + ("expected",),
    "sigma-level-string": _with("sample", sigma_level="4") + ("sigma_level",),
    "offset-fractional": _with("qmf", filter={**HAAR, "offset": 1.5}) + ("filter.offset",),
    "coeff-triple": _with("qmf", filter={"coeffs": [[0.7, 0, 0], 0.7]}) + ("filter.coeffs[0]",),
    "allow-non-qmf-one": _with("cascade", allow_non_qmf=1) + ("allow_non_qmf",),
    "z-wrong-length": _with("smale-williams", z=[0.1, 0.2, 0.3]) + ("z",),
    "t-string": _with("smale-williams", t="0.5") + ("t",),
    "lags-not-an-array": _with("correlate", lags=2) + ("lags",),
    "boundary-fractional": _with("harmonic", boundary=[0, 2.5]) + ("boundary[1]",),
    "boundary-key-not-decimal": _with("harmonic", boundary_values={"0": 0.0, "0x2": 1.0}) + ("boundary_values",),
    "edge-pair": _with("harmonic", edges=[[0, 1, 1.0], [1, 2]]) + ("edges[1]",),
    "harmonic-count-without-start": _with("harmonic", count=500, seed=3) + ("start",),
    **{f"{task}-{key}-{low}": _with(task, **{key: low}) + (key,) for task, key, low in (
        ("sample", "depth", 0), ("sample", "count", 0), ("solenoid", "depth", 0), ("smale-williams", "steps", 0),
        ("cascade", "iterations", -1), ("cascade", "resolution", 0), ("representation", "depth", 0),
        ("representation", "levels", -1), ("representation", "max_char", 0), ("representation", "degree", 0),
        ("harmonic", "count", -1), ("harmonic", "vertices", 1), ("qmf", "grid", 0), ("sample", "seed", -1),
        ("harmonic", "seed", -1))},
    "lags-negative": _with("correlate", lags=[0, -1]) + ("lags[1]",),
    "point-past-the-end-named": _with("expectation", point=5) + ("point: ",),
    "root-a-pair": _with("sample", root=[1, 3]) + ("root: ",),
    "start-past-the-end": _with("harmonic", start=3) + ("start: ",),
    "solenoid-point-a-float": _with("solenoid", point=0.1) + ("point: ",),
    "measure-state-past-the-end": _with("expectation", point=DROP, measure={"kind": "point", "state": 5})
    + ("measure.state: ",),
}


def run(tmp_path, task, cfg, extra=()):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_path = tmp_path / "report.json"
    code = main([task, "--config", str(cfg_path), "--output", str(out_path), *extra])
    report = json.loads(out_path.read_text()) if out_path.exists() else None
    return code, report


class TestExitCodes:
    def test_missing_config_file_is_io_error(self, tmp_path):
        assert main(["qmf", "--config", str(tmp_path / "nope.json")]) == 3

    def test_uncertified_invariant_measure_is_exit_two(self, tmp_path, monkeypatch, capsys):
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: solve(a, b) * (1 + 1e-6))
        code, report = run(tmp_path, "invariance", {"space": TWO_STATE, "operator": CHAIN_OP})
        assert code == 2 and report is None
        assert "certificate" in capsys.readouterr().err

    def test_report_goes_to_stdout_without_output(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(BASE["qmf"]))
        assert main(["qmf", "--config", str(cfg_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["task"] == "qmf" and report["pass"]

    def test_unwritable_output_is_io_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(BASE["qmf"]))
        assert main(["qmf", "--config", str(cfg_path), "--output", str(tmp_path / "missing" / "r.json")]) == 3
        assert capsys.readouterr().err.startswith("cannot write output: ")

    def test_malformed_json_is_config_error(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["qmf", "--config", str(p)]) == 2

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999", "-2.5e400"])
    def test_non_finite_number_is_config_error_naming_it(self, tmp_path, capsys, token):
        p = tmp_path / "cfg.json"
        p.write_text('{"space": {"kind": "finite", "states": ["a", "b"]}, "operator": %s, '
                     '"word": [{"values": [%s, 0]}], "point": 0}' % (json.dumps(CHAIN_OP), token))
        assert main(["expectation", "--config", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config is not valid JSON: ") and token in err

    def test_unreachable_states_are_refused_before_sampling(self, tmp_path, capsys, monkeypatch):
        from xferlab import pathmeasure

        def never(*args):
            raise AssertionError("sampled a walk that never absorbs")

        monkeypatch.setattr(pathmeasure, "simulate_absorbing", never)
        cfg = {"vertices": 5, "edges": [[0, 1, 1.0], [2, 3, 0.5], [3, 4, 0.25], [2, 4, 1.7]], "boundary": [0],
               "boundary_values": {"0": 1.0}, "start": 3, "count": 10, "seed": 1}
        code, report = run(tmp_path, "harmonic", cfg)
        assert code == 2 and report is None
        assert "[2, 3, 4]" in capsys.readouterr().err

    @pytest.mark.parametrize("task", sorted(set(BASE) - {"sample", "smale-williams"}))
    def test_csv_is_refused_where_there_is_no_table(self, tmp_path, task):
        csv_path = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, task, BASE[task], extra=["--csv", str(csv_path)])
        assert exc.value.code == 2
        assert not (tmp_path / "report.json").exists() and not csv_path.exists()

    def test_the_cached_parser_survives_a_refusal(self, tmp_path):
        from xferlab import cli

        cfg, first, again = tmp_path / "cfg.json", tmp_path / "first.json", tmp_path / "again.json"
        cfg.write_text(json.dumps(BASE["qmf"]))
        cli.build_parser.cache_clear()
        assert main(["qmf", "--config", str(cfg), "--output", str(first)]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["qmf", "--config", str(cfg), "--csv", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert main(["qmf", "--config", str(cfg), "--output", str(again)]) == 0
        assert again.read_bytes() == first.read_bytes()
        assert cli.build_parser.cache_info().misses == 1

    def test_schema_violation_is_config_error(self, tmp_path):
        code, _ = run(tmp_path, "qmf", {"filter": {"offset": 1}})
        assert code == 2

    @pytest.mark.parametrize("root", [[1, 3], 0.1, True, "1/0", "third"])
    def test_unparseable_circle_root_is_config_error(self, tmp_path, capsys, root):
        cfg = {"space": {"kind": "circle", "degree": 16}, "operator": {"kind": "ruelle", "m0": {"0": HAAR["coeffs"][0], "1": HAAR["coeffs"][1]}},
               "root": root, "depth": 3, "count": 10, "seed": 1}
        code, _ = run(tmp_path, "sample", cfg)
        assert code == 2
        assert '"p/q"' in capsys.readouterr().err

    def test_exact_angle_forms(self):
        assert angle_from_json("4/3") == Fraction(1, 3)
        assert angle_from_json(-1) == angle_from_json(2.0) == 0
        assert angle_from_json(" 5/8 ") == Fraction(5, 8)

    @pytest.mark.parametrize("task,cfg,message", INCONSISTENT.values(), ids=INCONSISTENT.keys())
    def test_inconsistent_config_is_config_error(self, tmp_path, capsys, task, cfg, message):
        code, _ = run(tmp_path, task, cfg)
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("task", BASE)
    def test_base_configs_are_valid(self, tmp_path, task):
        code, report = run(tmp_path, task, BASE[task])
        assert code == 0 and report["pass"]

    @pytest.mark.parametrize("task,cfg,name", [*COERCED.values(), *SCHEMA.values()],
                             ids=[*COERCED.keys(), *SCHEMA.keys()])
    def test_malformed_field_is_config_error_naming_it(self, tmp_path, capsys, task, cfg, name):
        code, report = run(tmp_path, task, cfg)
        err = capsys.readouterr().err
        assert code == 2 and report is None
        assert err.startswith("invalid config: ") and name in err

    @pytest.mark.parametrize("changes, fragment", [
        ({"word": [{"values": [1, 0]}, {"values": [1, "0"]}]}, "word[1]"),
        ({"depth": 2, "word": ONE_ON_TWO_STATES * 3}, "word has depth 3, more than the sampled depth 2"),
    ], ids=["non-number", "deeper-than-depth"])
    def test_malformed_word_is_refused_before_sampling(self, tmp_path, capsys, monkeypatch, changes, fragment):
        from xferlab import pathmeasure

        def never(*args):
            raise AssertionError("sampled before the config was read")

        monkeypatch.setattr(pathmeasure, "sample_paths", never)
        code, _ = run(tmp_path, *_with("sample", **changes))
        assert code == 2 and fragment in capsys.readouterr().err

    def test_cli_import_does_not_load_jsonschema(self):
        env = {**os.environ, "PYTHONPATH": str(Path(xferlab.__file__).resolve().parents[1])}
        probe = "import xferlab.cli, sys; assert 'jsonschema' not in sys.modules"
        assert subprocess.run([sys.executable, "-c", probe], env=env).returncode == 0

    def test_failing_claim_is_exit_one(self, tmp_path):
        cfg = {
            "space": TWO_STATE,
            "operator": CHAIN_OP,
            "word": [{"values": [1, 0]}] * 3,
            "point": 0,
            "expected": 0.9,
            "tolerance": 1e-6,
        }
        code, report = run(tmp_path, "expectation", cfg)
        assert code == 1
        assert report["pass"] is False

    def test_non_finite_values_are_strings_in_a_valid_report(self, tmp_path):
        # in a subprocess: this suite turns the overflow RuntimeWarning into an error
        cfg = {"space": TWO_STATE, "operator": CHAIN_OP, "word": [{"values": [1e200, 1]}] * 2,
               "point": 0, "expected": 1.0}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        env = {**os.environ, "PYTHONPATH": str(Path(xferlab.__file__).resolve().parents[1])}
        proc = subprocess.run([sys.executable, "-m", "xferlab.cli", "expectation", "--config", str(cfg_path)],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 1

        def refuse(token):
            raise ValueError(f"{token} is not valid JSON")

        report = json.loads(proc.stdout, parse_constant=refuse)
        claims = {c["name"]: c for c in report["claims"]}
        assert report["expectation"] == "Infinity" and claims["expectation"]["value"] == "Infinity"
        assert claims["kolmogorov_consistency"]["value"] == "NaN"
        assert not any(c["pass"] for c in claims.values())


class TestTasks:
    def test_finite_point_by_label(self, tmp_path):
        cfg = {"space": TWO_STATE, "operator": CHAIN_OP, "word": [{"values": [1, 0]}] * 3, "point": "a"}
        code, report = run(tmp_path, "expectation", cfg)
        assert code == 0
        assert report["expectation"] == pytest.approx(0.5625)

    def test_expectation_report(self, tmp_path):
        cfg = {
            "space": TWO_STATE,
            "operator": CHAIN_OP,
            "word": [{"values": [1, 0]}] * 3,
            "point": 0,
            "expected": 0.5625,
        }
        code, report = run(tmp_path, "expectation", cfg)
        assert code == 0
        assert report["expectation"] == pytest.approx(0.5625)
        names = {c["name"] for c in report["claims"]}
        assert {"kolmogorov_consistency", "expectation"} <= names

    def test_sample_with_csv(self, tmp_path):
        cfg = {
            "space": TWO_STATE,
            "operator": CHAIN_OP,
            "root": 0,
            "depth": 3,
            "count": 2000,
            "seed": 5,
            "word": [{"values": [1, 0]}] * 3,
        }
        csv_path = tmp_path / "paths.csv"
        code, report = run(tmp_path, "sample", cfg, extra=["--csv", str(csv_path)])
        assert code == 0
        assert report["count"] == 2000
        assert len(csv_path.read_text().strip().splitlines()) == 2001

    def test_sample_rooted_at_a_measure(self, tmp_path):
        # the first state takes the chain's inverse-CDF step on the one-row table of mu; the CSV digest was
        # recorded when it was drawn by rng.choice(p=mu), which gives the same states outside the rounding gap
        word = [{"values": [1, 0]}] * 3
        cfg = {"space": TWO_STATE, "operator": CHAIN_OP, "root": {"kind": "weights", "weights": [0.25, 0.75]},
               "depth": 3, "count": 2000, "seed": 5, "word": word}
        csv_path = tmp_path / "paths.csv"
        code, report = run(tmp_path, "sample", cfg, extra=["--csv", str(csv_path)])
        assert code == 0
        space = xferlab.FiniteSpace(("a", "b"))
        R = xferlab.MatrixOperator(space, CHAIN_OP["rows"])
        f = xferlab.CylinderFunctional((xferlab.Observable.from_values(space, [1, 0]),) * 3)
        assert report["exact"] == xferlab.sigma_expectation(xferlab.Measure.from_weights(space, [0.25, 0.75]), R, f)
        digest = "50ec6826fca8df086e1861fdcb1b0c7131c3e04dc60d8b48f18cacb051dbbe1e"
        assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == digest

    def test_expectation_under_a_point_measure_is_the_cylinder_expectation(self, tmp_path):
        cfg = {"space": TWO_STATE, "operator": CHAIN_OP, "word": [{"values": [0, 1]}, {"values": [1, 0]}]}
        code, at_point = run(tmp_path, "expectation", {**cfg, "point": "b"})
        assert code == 0
        code, under_measure = run(tmp_path, "expectation", {**cfg, "measure": {"kind": "point", "state": "b"}})
        assert code == 0
        assert under_measure["expectation"] == at_point["expectation"] == 0.5

    def test_sample_csv_reuses_the_reported_ensemble(self, tmp_path, monkeypatch):
        from xferlab import pathmeasure

        runs = []
        real = pathmeasure.sample_paths

        def counted(*args):
            runs.append(real(*args))
            return runs[-1]

        monkeypatch.setattr(pathmeasure, "sample_paths", counted)
        cfg = {"space": TWO_STATE, "operator": CHAIN_OP, "root": 1, "depth": 4, "count": 50, "seed": 9}
        csv_path = tmp_path / "paths.csv"
        code, report = run(tmp_path, "sample", cfg, extra=["--csv", str(csv_path)])
        assert code == 0 and len(runs) == 1
        assert report["fingerprint"] == runs[0].fingerprint
        rows = [line.split(",") for line in csv_path.read_text().strip().splitlines()[1:]]
        assert rows == [["ab"[i] for i in path] for path in runs[0].samples]

    def test_invariance(self, tmp_path):
        cfg = {"space": TWO_STATE, "operator": CHAIN_OP}
        code, report = run(tmp_path, "invariance", cfg)
        assert code == 0
        assert report["measure_weights"] == pytest.approx([2 / 3, 1 / 3])

    def test_qmf_pass_and_fail(self, tmp_path):
        code, report = run(tmp_path, "qmf", {"filter": HAAR})
        assert code == 0 and report["pass"]
        bad = {"coeffs": [0.7071067811865476, 0, 0.7071067811865476]}
        code, report = run(tmp_path, "qmf", {"filter": bad})
        assert code == 1 and not report["pass"]

    def test_cascade(self, tmp_path):
        d4 = [0.48296291314469025, 0.8365163037378079, 0.2241438680420134, -0.12940952255092145]
        code, report = run(tmp_path, "cascade", {"filter": {"coeffs": d4}, "iterations": 12, "resolution": 10})
        assert code == 0
        assert report["integral"] == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("iterations", [2, 3, 4, 12])
    def test_cascade_of_stretched_haar_fails_lawton(self, tmp_path, iterations):
        # QMF, but (1/3) chi_[0,3) has non-orthonormal translates: eigenvalue 1 is double
        cfg = {"filter": {"coeffs": [HAAR_TAP, 0, 0, HAAR_TAP]}, "iterations": iterations}
        code, report = run(tmp_path, "cascade", cfg)
        claims = {c["name"]: c for c in report["claims"]}
        assert code == 1 and report["lawton_multiplicity"] == 2
        assert claims["lawton_simple_eigenvalue"]["value"] == 2 and not claims["lawton_simple_eigenvalue"]["pass"]

    @pytest.mark.parametrize("coeffs", [
        HAAR["coeffs"],
        [0.707106781187] * 2,
        xferlab.daubechies4().coeffs.real.tolist(),
        [0.48296291314469025, 0.8365163037378079, 0.2241438680420134, -0.12940952255092145],
    ], ids=["haar", "haar-12-digits", "d4", "d4-rounded"])
    def test_cascade_of_orthonormal_filters_passes(self, tmp_path, coeffs):
        code, report = run(tmp_path, "cascade", {"filter": {"coeffs": coeffs}, "iterations": 12, "resolution": 10})
        assert code == 0 and report["lawton_multiplicity"] == 1
        assert {c["name"] for c in report["claims"]} == {"lawton_simple_eigenvalue"}

    def test_cascade_whose_grid_residual_grows_passes_on_lawton(self, tmp_path):
        # an orthonormal filter: its L2 cascade converges, while the sup-norm grid residual grows
        taps = LATTICE_DRAWS[0]
        code, report = run(tmp_path, "cascade", {"filter": {"coeffs": taps}, "iterations": 12, "resolution": 10})
        claims = {c["name"]: c["pass"] for c in report["claims"]}
        assert code == 0 and claims == {"lawton_simple_eigenvalue": True}
        r = report["refinement_residuals"]
        assert len(r) == 12 and r[0] < r[1] < r[2] < r[3]  # three growths in a row, and the run goes on

    @pytest.mark.parametrize("iterations, resolution", [(12, 10), (14, 11)])
    @pytest.mark.parametrize("coeffs", ORTHONORMAL.values(), ids=ORTHONORMAL.keys())
    def test_orthonormal_cascade_has_the_lawton_claim_alone(self, tmp_path, coeffs, iterations, resolution):
        cfg = {"filter": {"coeffs": coeffs}, "iterations": iterations, "resolution": resolution}
        code, report = run(tmp_path, "cascade", cfg)
        assert code == 0 and report["lawton_multiplicity"] == 1
        assert [c["name"] for c in report["claims"]] == ["lawton_simple_eigenvalue"]
        assert len(report["refinement_residuals"]) == iterations
        assert {"integral", "orthogonality_grid"} <= report.keys()

    @pytest.mark.parametrize("iterations, resolution, holds", [(12, 10, False), (10, 10, True)])
    def test_cascade_reports_whether_the_grid_holds_the_iterate(self, tmp_path, iterations, resolution, holds):
        # report data, not a claim: more iterations than the resolution still exit 0 on an orthonormal filter
        cfg = {"filter": {"coeffs": LATTICE_DRAWS[0]}, "iterations": iterations, "resolution": resolution}
        code, report = run(tmp_path, "cascade", cfg)
        assert report["grid_holds_iterate"] is holds
        assert code == 0 and [c["name"] for c in report["claims"]] == ["lawton_simple_eigenvalue"]

    @pytest.mark.parametrize("tap", [0.7071067811865475, 0.7071067811865476])
    def test_even_stretch_fails_the_grid_claim_for_both_roundings(self, tmp_path, tap):
        cfg = {"filter": {"coeffs": [tap, 0, tap]}, "allow_non_qmf": True}
        code, report = run(tmp_path, "cascade", cfg)
        assert code == 1 and len(report["refinement_residuals"]) == 12
        assert [(c["name"], c["pass"]) for c in report["claims"]] == [("translate_orthogonality", False)]

    def test_complex_integral_is_an_re_im_pair(self, tmp_path):
        # unnormalised complex taps: each step multiplies the mass by (h_0 + h_1) / sqrt(2) = (1 + i) / 2
        cfg = {"filter": {"coeffs": [[0, HAAR_TAP], HAAR_TAP], "require_normalization": False}, "iterations": 2}
        code, report = run(tmp_path, "cascade", cfg)
        assert report["integral"] == pytest.approx([0.0, 0.5])

    def test_non_qmf_cascade_has_no_lawton_claim(self, tmp_path):
        cfg = {"filter": {"coeffs": [HAAR_TAP, 0, HAAR_TAP]}, "allow_non_qmf": True}
        code, report = run(tmp_path, "cascade", cfg)
        assert code == 1 and "lawton_multiplicity" not in report
        assert "lawton_simple_eigenvalue" not in {c["name"] for c in report["claims"]}

    def test_representation(self, tmp_path):
        code, report = run(tmp_path, "representation", {"filter": HAAR, "depth": 2, "levels": 3})
        assert code == 0
        dims = report["span_dimensions"]
        assert all(b > a for a, b in zip(dims, dims[1:]))

    def test_harmonic(self, tmp_path, monkeypatch):
        cfg = {
            "edges": [[0, 1, 1.0], [1, 2, 2.0]],
            "vertices": 3,
            "boundary": [0, 2],
            "boundary_values": {"0": 0.0, "2": 1.0},
            "start": 1,
            "count": 5000,
            "seed": 1,
        }
        built = []
        build = xferlab.graphwalk.transition_operator
        monkeypatch.setattr(xferlab.graphwalk, "transition_operator", lambda net: built.append(net) or build(net))
        code, report = run(tmp_path, "harmonic", cfg)
        assert code == 0
        assert report["values"][1] == pytest.approx(2 / 3)
        assert report["exact"] == report["values"][1]
        assert len(built) == 1  # one walk operator for the solve, the balance check and the walks

    def test_harmonic_edge_list(self, tmp_path):
        cfg = {
            "edges": [[0, 1, 1.0], [1, 2, 2.0]],
            "vertices": 3,
            "boundary": [0, 2],
            "boundary_values": {"0": 0.0, "2": 1.0},
        }
        code, report = run(tmp_path, "harmonic", cfg)
        assert code == 0
        assert report["values"][1] == pytest.approx(2 / 3)

    def test_rare_branch_never_drawn_is_judged_against_the_exact_sigma(self, tmp_path):
        # K[0, 1] = 5.1e-5 is never drawn in 2000 paths: the sample stderr is 5e-18, the error 0.32 exact sigmas
        rng = np.random.default_rng(2221)
        rows = rng.dirichlet(np.ones(2), size=2).tolist()
        root = int(rng.integers(2))
        word = [{"values": rng.uniform(-1, 1, 2).tolist()} for _ in range(2)]
        cfg = {"space": TWO_STATE, "operator": {"kind": "matrix", "rows": rows}, "root": root, "depth": 2,
               "count": 2000, "seed": 2221, "word": word}
        code, report = run(tmp_path, "sample", cfg)
        claim = {c["name"]: c for c in report["claims"]}["mc_within_sigma"]
        assert report["mc_stderr"] < 1e-17 and report["exact_stderr"] == pytest.approx(5.27e-5, rel=1e-3)
        assert claim["tolerance"] == 4 * report["exact_stderr"] and code == 0

    def test_rare_hit_never_drawn_is_judged_against_the_exact_sigma(self, tmp_path):
        # from vertex 1 the walk reaches vertex 2 with probability 1e-5: all 2000 walks end at 0
        cfg = {"vertices": 3, "edges": [[0, 1, 1.0], [1, 2, 1e-5]], "boundary": [0, 2],
               "boundary_values": {"0": 0.0, "2": 1.0}, "start": 1, "count": 2000, "seed": 3}
        code, report = run(tmp_path, "harmonic", cfg)
        claim = {c["name"]: c for c in report["claims"]}["hitting_within_sigma"]
        assert report["mc_estimate"] == report["mc_stderr"] == 0.0
        p = 1e-5 / (1 + 1e-5)  # the chance of stepping to 2 from 1, the only interior vertex
        assert report["exact"] == pytest.approx(p) and report["exact_stderr"] == pytest.approx(np.sqrt(p * (1 - p) / 2000))
        assert claim["tolerance"] == 4 * report["exact_stderr"] and code == 0

    def test_harmonic_mc_without_seed_is_config_error(self, tmp_path):
        cfg = {
            "edges": [[0, 1, 1.0], [1, 2, 2.0]],
            "vertices": 3,
            "boundary": [0, 2],
            "boundary_values": {"0": 0.0, "2": 1.0},
            "start": 1,
            "count": 100,
        }
        code, _ = run(tmp_path, "harmonic", cfg)
        assert code == 2

    def test_complex_expectation_keeps_its_imaginary_part(self, tmp_path):
        # E_0 = 0.75 (1 + 5i) 0.5 + 0.25 (2) (-1) = 0.125 + 0.625i: its real part alone would pass the claim
        cfg = {"space": TWO_STATE, "operator": CHAIN_OP, "point": 0, "expected": 0.125,
               "word": [{"values": [[1, 5], [2, 0]]}, {"values": [0.5, -1]}]}
        code, report = run(tmp_path, "expectation", cfg)
        claim = {c["name"]: c for c in report["claims"]}["expectation"]
        assert report["expectation"] == claim["value"] == [0.125, 0.625]
        assert code == 1 and claim["pass"] is False

    def test_complex_correlate_keeps_its_imaginary_part(self, tmp_path):
        cfg = {"space": TWO_STATE, "operator": CHAIN_OP, "phi": {"values": [[0, 1], 0]}, "psi": {"values": [1, 0]},
               "lags": [0]}
        code, report = run(tmp_path, "correlate", cfg)
        assert code == 0
        assert report["correlations"]["0"] == [0.0, pytest.approx(2 / 3)]
        assert report["product_of_means"] == [0.0, pytest.approx(4 / 9)]

    def test_correlate(self, tmp_path):
        cfg = {
            "space": TWO_STATE,
            "operator": CHAIN_OP,
            "phi": {"values": [1, 0]},
            "psi": {"values": [1, 0]},
            "lags": [0, 1, 2],
        }
        code, report = run(tmp_path, "correlate", cfg)
        assert code == 0
        assert report["correlations"]["1"] == pytest.approx(0.5)
        assert report["product_of_means"] == pytest.approx(4 / 9)

    def test_solenoid(self, tmp_path):
        cfg = {
            "space": {"kind": "circle", "degree": 32},
            "operator": {"kind": "ruelle", "m0": {"0": 0.7071067811865476, "1": 0.7071067811865476}},
            "point": "0",
            "depth": 4,
            "expected_mass": 1.0,
        }
        code, report = run(tmp_path, "solenoid", cfg)
        assert code == 0
        assert report["support_mass"] == 1.0

    def test_smale_williams(self, tmp_path):
        csv_path = tmp_path / "orbit.csv"
        code, report = run(
            tmp_path,
            "smale-williams",
            {"t": 0.123, "z": [0.5, 0.1], "steps": 100},
            extra=["--csv", str(csv_path)],
        )
        assert code == 0
        assert report["max_radius_after_first"] <= 0.75
        assert len(csv_path.read_text().strip().splitlines()) == 102
        # every float angle is dyadic: t runs through 52 distinct angles and stays at 0 from step 52 on
        assert report["distinct_angles"] == 53

    @pytest.mark.parametrize("t", [1e17, 1e308])
    def test_smale_williams_reduces_a_huge_integer_angle(self, tmp_path, t):
        code, report = run(tmp_path, "smale-williams", {"t": t, "z": [0, 0], "steps": 1})
        assert code == 0 and report["final"] == [0.0, 0.5, 0.0]


ENTRY = st.sampled_from([0.0, -0.0, 2 / 3]) | st.floats(width=64)


@settings(max_examples=100, deadline=None)
@given(
    pool=st.lists(st.tuples(ENTRY, ENTRY, ENTRY), min_size=1, max_size=3),
    runs=st.lists(st.tuples(st.integers(0, 5), st.integers(1, 6)), min_size=1, max_size=12),
)
@example(pool=[(0.0, 2 / 3, -0.0)], runs=[(0, 2), (1, 3), (0, 1)])
def test_orbit_csv_is_the_savetxt_bytes(pool, runs):
    """Runs of repeated rows, rows that differ only by the sign of a zero, and nan and inf entries."""
    pool = pool + [tuple(-x if x == 0 else x for x in row) for row in pool]  # each zero's sign flipped
    table = np.array([pool[i % len(pool)] for i, n in runs for _ in range(n)], dtype=float)
    with tempfile.TemporaryDirectory() as d:
        ours, ref = Path(d) / "ours.csv", Path(d) / "ref.csv"
        _write_csv(ours, table)
        np.savetxt(ref, table, delimiter=",", header="t,re_z,im_z", comments="")
        assert ours.read_bytes() == ref.read_bytes()
