"""Steadiness check: two sets of runs of one commit, compared metric by metric.

    python3 bench/steady.py

Set A runs every workload of BENCHMARK.json with seeds 1-10, set B with
seeds 11-20, each run ``run_seconds`` long and one run at a time.  The two
sets are interleaved (A then B, seed by seed), so a slow phase of the
machine falls into both.  For each workload and end-to-end metric it prints
both medians, their quartiles, the interquartile spread as a share of the
median, and whether the two sets agree within the metric's bound: both
spreads within the bound, the larger median at most ``1 + bound`` times the
smaller, and the same share of failed verdicts in both sets.  All values,
with each run's summary line from standard error, are also written to
``bench/_out/steady-<time>.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = 10
SEEDS = {"a": range(1, RUNS + 1), "b": range(RUNS + 1, 2 * RUNS + 1)}


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["stderr"] = proc.stderr.strip().splitlines()[-1]
    return result


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def compare(a: list[dict], b: list[dict], metric: dict) -> dict:
    name, bound = metric["name"], metric["bound"]
    sa = summary([r["metrics"][name]["value"] for r in a])
    sb = summary([r["metrics"][name]["value"] for r in b])
    sign = 1 if metric["better"] == "lower" else -1
    drift = sign * (sb["median"] - sa["median"]) / sa["median"]
    gap = max(sa["median"], sb["median"]) / min(sa["median"], sb["median"]) - 1
    ok = sa["spread"] <= bound and sb["spread"] <= bound and gap <= bound
    return {"a": sa, "b": sb, "drift": drift, "gap": gap, "bound": bound, "ok": ok}


def failed_share(runs: list[dict]) -> tuple[int, int]:
    return sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    runs: dict[str, dict[str, list]] = {s: {w: [] for w in workloads} for s in SEEDS}
    for seed_a, seed_b in zip(SEEDS["a"], SEEDS["b"]):
        for w in workloads:
            runs["a"][w].append(one_run(w, seed_a, spec["run_seconds"]))
            runs["b"][w].append(one_run(w, seed_b, spec["run_seconds"]))

    report, all_ok = {}, True
    for w in workloads:
        a, b = runs["a"][w], runs["b"][w]
        share_a, share_b = failed_share(a), failed_share(b)
        same = share_a[0] * share_b[1] == share_b[0] * share_a[1]
        correct = all(r["correct"] for r in a + b)
        report[w] = {"failed_a": share_a, "failed_b": share_b, "same_failed_share": same,
                     "correct": correct, "metrics": {}, "runs": {"a": a, "b": b}}
        print(f"{w}: failed {share_a[0]}/{share_a[1]} vs {share_b[0]}/{share_b[1]}"
              f" ({'same share' if same else 'DIFFERENT share'}), correct {correct}")
        all_ok &= same and correct
        for m in spec["end_to_end"]:
            c = compare(a, b, m)
            report[w]["metrics"][m["name"]] = c
            all_ok &= c["ok"]
            print(f"  {m['name']:12s} A {c['a']['median']:.4f} [{c['a']['q1']:.4f}, {c['a']['q3']:.4f}]"
                  f" spread {c['a']['spread']:.3f}   B {c['b']['median']:.4f} [{c['b']['q1']:.4f},"
                  f" {c['b']['q3']:.4f}] spread {c['b']['spread']:.3f}   drift {c['drift']:+.3f}"
                  f"   gap {c['gap']:.3f}   bound {c['bound']}  {'ok' if c['ok'] else 'NOT STEADY'}")
    out = BENCH / "_out" / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"seconds": spec["run_seconds"], "runs": RUNS, "report": report}, indent=1))
    print(f"{'STEADY' if all_ok else 'NOT STEADY'}; values in {out.relative_to(ROOT)}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
