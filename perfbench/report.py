"""Run every workload several times and print the reference figures.

    python3 perfbench/report.py --runs 10 --traced-runs 3 --first-seed 1

For each workload: ``--runs`` untraced runs on seeds ``first-seed``,
``first-seed + 1``, ...; the median and quartiles of every end-to-end
metric and their spread (quartile distance over median); the cells
attempted and failed; then ``--traced-runs`` traced runs on the same
first seeds, with the median of every per-layer metric, each layer's
share of cell time and the tracing overhead (traced minus untraced
``cells_per_s``, over untraced).  The figures are also written to
``perfbench/out/report.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads((HERE / "out" / workload / "run.json").read_text(encoding="ascii"))
    return result, detail


def quartiles(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"q1": q1, "median": q2, "q3": q3, "spread": (q3 - q1) / q2 if q2 else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--traced-runs", type=int, default=3)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    report = {}
    for name in WORKLOADS:
        seeds = range(args.first_seed, args.first_seed + args.runs)
        untraced = [run(name, seed, seconds, 0) for seed in seeds]
        traced = [
            run(name, seed, seconds, 1)
            for seed in range(args.first_seed, args.first_seed + args.traced_runs)
        ]
        entry = {
            "attempted": sum(r["attempted"] for r, _ in untraced),
            "failed": sum(r["failed"] for r, _ in untraced),
            "correct": all(r["correct"] for r, _ in untraced + traced),
            "end_to_end": {},
            "per_layer": {},
            "layer_shares": {},
            "runs": [d for _, d in untraced + traced],
        }
        print(f"\n## {name}: {args.runs} runs, seeds {seeds.start}..{seeds.stop - 1}, "
              f"attempted {entry['attempted']}, failed {entry['failed']}, "
              f"correct {entry['correct']}")
        for metric, value in untraced[0][0]["metrics"].items():
            q = quartiles([r["metrics"][metric]["value"] for r, _ in untraced])
            q["unit"] = value["unit"]
            entry["end_to_end"][metric] = q
            print(f"{metric:>16} [{q['unit']}]  median {q['median']:.6g}  "
                  f"q1 {q['q1']:.6g}  q3 {q['q3']:.6g}  spread {q['spread']:.2%}  runs "
                  + " ".join(f"{r['metrics'][metric]['value']:.4g}" for r, _ in untraced))
        if traced:
            for metric, value in traced[0][0]["metrics"].items():
                median = statistics.median(r["metrics"][metric]["value"] for r, _ in traced)
                entry["per_layer"][metric] = {"median": median, "unit": value["unit"]}
                print(f"{metric:>34} [{value['unit']}]  median {median:.6g}")
            for layer in traced[0][1]["layer_shares"]:
                share = statistics.median(d["layer_shares"][layer] for _, d in traced)
                entry["layer_shares"][layer] = share
                print(f"{layer:>10} share of cell time {share:.1%}")
            plain = statistics.median(d["cells_per_s"] for _, d in untraced[: len(traced)])
            with_trace = statistics.median(d["cells_per_s"] for _, d in traced)
            entry["tracing_overhead"] = (with_trace - plain) / plain
            print(f"tracing: {with_trace:.4g} cells/s traced vs {plain:.4g} untraced "
                  f"on the same seeds ({entry['tracing_overhead']:+.1%})")
        report[name] = entry
    out = HERE / "out" / "report.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
