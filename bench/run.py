"""Verdict benchmark for xferlab: time to verdict on a whole battery, checked against oracles.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout; xferlab is imported from its ``src/``.  A
run sets up the workload's inputs from the seed, then repeats the whole
battery until ``--seconds`` have passed (at least once).  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` -- the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1`` (which also writes its spans to
``bench/_out/trace-<workload>-<seed>.jsonl``).  ``--smoke`` shrinks every
input, for the benchmark's own tests.  See README.md.
"""

import os

# One process per run, one thread per process: BLAS and OpenMP pools are
# pinned before numpy is first imported (here or in a set-up child).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from lab import Lab, Tracer, install_wrappers, layer_totals, subtree  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "_out"
#: workload name -> the module of bench/ with its ``build`` and ``battery``
WORKLOADS = {"circle": "circle", "finite-chain": "finite", "cli": "cliwl"}

#: set-up is timed this many times per run: in fresh processes, and once in
#: the run's own process; ``setup_s`` is the median, which is steadier than a
#: single set-up (README.md, Steadiness).
SETUP_SAMPLES = 5

END_TO_END = (("setup_s", "s"), ("verdict_s", "s"), ("peak_rss_mb", "MB"))


def per_layer() -> tuple[tuple[str, str], ...]:
    """(name, unit) of every per-layer metric.

    ``cliwl`` is imported here, not at the top, because it imports numpy,
    whose import belongs to the timed set-up.
    """
    from cliwl import TASKS

    return (
        ("battery.s", "s"),
        ("statespace.mul.s", "s"), ("statespace.mul.calls", "count"), ("statespace.mul.coeff_pairs", "count"),
        ("statespace.call.s", "s"), ("statespace.call.calls", "count"),
        ("transferop.apply.s", "s"), ("transferop.apply.calls", "count"),
        ("transferop.invariant_measure.s", "s"), ("transferop.invariant_measure.calls", "count"),
        ("transferop.build.s", "s"),
        ("pathmeasure.conditional_expectation.s", "s"), ("pathmeasure.conditional_expectation.calls", "count"),
        ("pathmeasure.sample_circle.s", "s"), ("pathmeasure.sample_circle.transitions", "count"),
        ("pathmeasure.sample_circle.transitions_per_s", "1/s"),
        ("pathmeasure.sample_finite.s", "s"), ("pathmeasure.sample_finite.transitions", "count"),
        ("pathmeasure.sample_finite.transitions_per_s", "1/s"),
        ("pathmeasure.simulate_absorbing.s", "s"), ("pathmeasure.simulate_absorbing.walks", "count"),
        ("pathmeasure.functional_mean.s", "s"), ("pathmeasure.functional_mean.paths", "count"),
        ("solenoid.compatibility.s", "s"), ("solenoid.compatibility.transitions_checked", "count"),
        ("solenoid.support_mass.s", "s"), ("solenoid.support_mass.calls", "count"),
        ("solenoid.battery.s", "s"),
        ("wavelet.representation_check.s", "s"),
        ("graphwalk.harmonic_solve.s", "s"), ("graphwalk.hitting_verification.s", "s"),
        ("serialize.load.s", "s"),
        ("cli.import.s", "s"),
        *((f"cli.{t}.s", "s") for t in TASKS),
        ("cli.sample.sampling_runs", "count"), ("cli.report_bytes", "bytes"), ("cli.csv_bytes", "bytes"),
    )


#: measured in the run's own set-up, not per round of the battery
SETUP_LAYERS = ("cli.import.s", "transferop.build.s")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=float,
                   default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="reduced inputs, for the benchmark's tests")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup(args, workdir: Path, tracer: Tracer | None):
    """Import xferlab from this checkout and build every input of the workload.

    Returns (inputs, seconds from before the import until the last input is built).
    """
    lab = Lab(tracer)
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "cli":
        lab.call("cli.import", __import__, "xferlab.cli")
    import xferlab as X

    if not Path(X.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"xferlab was imported from {X.__file__}, not from this checkout's src/")
    if tracer is not None:
        install_wrappers(tracer)
    inputs = importlib.import_module(WORKLOADS[args.workload]).build(lab, X, args.seed, args.smoke, workdir)
    return inputs, time.perf_counter() - t0


def fresh_setups(args, n: int) -> list[float]:
    """Set-up time of ``n`` fresh interpreter processes, run one after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    out = []
    for _ in range(n):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"set-up process failed with exit code {proc.returncode}")
        out.append(float(proc.stdout.split()[-1]))
    return out


def layer_metrics(tracer: Tracer, setup_root, rounds) -> dict[str, float]:
    """Per-layer metrics: medians over rounds, set-up layers from the run's own set-up."""
    names = [name for name, _ in per_layer()]
    setup_totals = layer_totals(tracer.nodes, setup_root)
    per_round = []
    for busy, root, extra in rounds:
        totals = layer_totals(tracer.nodes, root)
        runs = [layer_totals(tracer.nodes, n) for n in subtree(tracer.nodes, root) if n.name == "cli.sample"]
        sampling = sum(t.get(k, {}).get("calls", 0) for t in runs
                       for k in ("pathmeasure.sample_circle", "pathmeasure.sample_finite"))
        per_round.append(_resolve(names, totals, setup_totals, busy, extra or {},
                                  sampling / len(runs) if runs else 0))
    return {name: statistics.median(r[name] for r in per_round) for name in names}


def _resolve(names, totals, setup_totals, busy, extra, sampling_runs) -> dict[str, float]:
    out = {}
    for name in names:
        layer, _, what = name.rpartition(".")
        source = setup_totals if name in SETUP_LAYERS else totals
        rec = source.get(layer, {"ns": 0, "calls": 0, "counts": {}})
        if name == "battery.s":
            out[name] = busy
        elif name == "cli.sample.sampling_runs":
            out[name] = sampling_runs
        elif name in ("cli.report_bytes", "cli.csv_bytes"):
            out[name] = extra.get(what, 0)
        elif what == "s":
            out[name] = rec["ns"] / 1e9
        elif what == "calls":
            out[name] = rec["calls"]
        elif what == "transitions_per_s":
            out[name] = rec["counts"].get("transitions", 0) / (rec["ns"] / 1e9) if rec["ns"] else 0.0
        else:
            out[name] = rec["counts"].get(what, 0)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.setup_only:
            _, elapsed = setup(args, workdir, None)
            print(repr(elapsed))
            return 0
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir: Path) -> int:
    traced = bool(args.trace)
    tracer = Tracer() if traced else None
    setups = [] if traced else fresh_setups(args, SETUP_SAMPLES - 1)
    with tracer.span("setup") if traced else contextlib.nullcontext() as setup_root:
        inputs, elapsed = setup(args, workdir, tracer)
    setups.append(elapsed)
    battery = importlib.import_module(WORKLOADS[args.workload]).battery

    lab = Lab(tracer)
    cache: dict = {}
    rounds = []
    start = time.perf_counter()
    while True:
        busy0 = lab.busy
        with tracer.span("battery") if traced else contextlib.nullcontext() as root:
            extra = battery(lab, inputs, cache)
        rounds.append((lab.busy - busy0, root, extra))
        if time.perf_counter() - start >= args.seconds:
            break

    for m in lab.mismatches:
        print(f"MISMATCH {m}", file=sys.stderr)
    verdict_s = statistics.median(r[0] for r in rounds)
    if traced:
        values = layer_metrics(tracer, setup_root, rounds)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in per_layer()}
        trace_path = OUT / f"trace-{args.workload}-{args.seed}.jsonl"
        tracer.write(trace_path, {"workload": args.workload, "seed": args.seed, "rounds": len(rounds),
                                  "battery_s": verdict_s})
    else:
        values = {"setup_s": statistics.median(setups), "verdict_s": verdict_s,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print(f"{args.workload} seed {args.seed}: {lab.attempted} verdicts, {lab.failed} failed, "
          f"{len(lab.mismatches)} mismatched; set-ups {[round(x, 4) for x in setups]} s; "
          f"rounds {[round(r[0], 4) for r in rounds]} s", file=sys.stderr)
    print(json.dumps({"correct": not lab.mismatches, "attempted": lab.attempted,
                      "failed": lab.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
