"""Sweep benchmark for relurec.

Runs ``relurec sweep`` through ``relurec.cli.cli_dispatch`` on one of the
seeded workloads in ``workloads.py``, checks every cell and prints one
JSON line with the metrics named in ``BENCHMARK.json``::

    python3 perfbench/run.py --workload rep_small --seed 1 --seconds 25 --trace 0

A workload is a fixed list of seeded cells, swept in batches; each batch
is one ``relurec sweep`` call.  A run has four parts.

* Warm-up: one launch of a fresh interpreter that imports relurec and
  stops at its first cell, untimed; it only warms the file cache.
* Timed rounds: each round is a fresh interpreter (``sweep_round.py``)
  that sweeps every batch once, one cell after another, so no process
  state is left from an earlier round or the warm-up: a round pays each
  cache the program keeps in its process once, as one ``relurec sweep``
  of the workload's cells would.  A run makes at least ``MIN_ROUNDS``
  rounds, and more while another fits in ``--seconds``.  Every round must
  write the same ``results.csv`` for each batch.  ``cells_per_s`` is the
  number of cells over the sum, across batches, of each batch's median
  scaled sweep time.
* Set-up: ``setup_s`` is the median scaled time from launching a round to
  its first cell.  When there are fewer than ``SETUP_LAUNCHES`` rounds,
  more launches that stop at their first cell make up the number.
* Checks: every cell is checked (``checks.py``) after the timed rounds.

Scaled times.  The machine this was written on changes speed by up to 2x
for stretches of seconds to minutes, so the same code measured 61 to 98
cells/s in consecutive runs.  Right after each sweep, and right before
each launch, the run times ``reference_work``: fixed work that does not
touch relurec.  A measured time ``t`` next to a reference time ``r`` is
reported as ``t * REFERENCE_S / r``: the time the work would take while
the machine runs the reference work in ``REFERENCE_S``.  The unscaled
times are kept in ``run.json``.

With ``--trace 1`` the rounds run under ``tracing.Tracer`` and the run
prints the per-layer metrics instead; set-up is not measured.  The BLAS
thread count is fixed to 1 before numpy is imported, and the rounds
inherit it.  Outputs go to ``perfbench/out/<workload>/``.
"""

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import csv  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from sweep_round import reference_work  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
ROUND = HERE / "sweep_round.py"
# setup_s is the median over at least this many launches
SETUP_LAUNCHES = 9
# each batch gets at least this many sweeps to take the median of
MIN_ROUNDS = 3
# about the median time of reference_work on the machine this was written on
REFERENCE_S = 0.012


def launch(batches: list[tuple[Path, Path]], trace: int, spans: Path | None = None,
           setup_only: bool = False) -> dict:
    """Run ``sweep_round.py`` in a fresh interpreter and return its result.

    ``setup_s`` is the time from the launch to the round's first cell, and
    ``setup_reference_s`` the reference time taken right before the launch.
    """
    job = {
        "src": str(SRC),
        "batches": [[str(config), str(out)] for config, out in batches],
        "trace": trace,
        "spans": str(spans) if spans else None,
        "setup_only": setup_only,
    }
    reference = reference_work()
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(ROUND), json.dumps(job)],
        capture_output=True, text=True, timeout=150,
    )
    if proc.returncode != 0 or not proc.stdout:
        raise RuntimeError(f"sweep round failed: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if "first_cell" in result:
        result["setup_s"] = result["first_cell"] - start
        result["setup_reference_s"] = reference
    return result


def scaled(times: list[float], references: list[float]) -> list[float]:
    return [t * REFERENCE_S / r for t, r in zip(times, references)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "relurec" / "__init__.py").is_file():
        print(f"error: no relurec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from checks import check_cell
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    out = OUT / workload.name
    out.mkdir(parents=True, exist_ok=True)
    batches = workload.batches(args.seed)
    configs = [out / f"batch{i}.cfg" for i in range(len(batches))]
    for config, seeds in zip(configs, batches):
        config.write_text(workload.config_text(seeds), encoding="ascii")
    jobs = [(config, out / f"batch{i}") for i, config in enumerate(configs)]
    spans = out / "spans"
    spans.mkdir(exist_ok=True)
    for old in spans.glob("round*.csv"):
        old.unlink()

    launch(jobs[:1], 0, setup_only=True)  # warms the file cache, untimed
    rounds: list[dict] = []
    written: list[bytes | None] = [None] * len(batches)
    identical = True
    round_s: list[float] = []
    started = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        rounds.append(launch(jobs, args.trace, spans / f"round{len(rounds)}.csv"))
        round_s.append(time.perf_counter() - round_start)
        for i in range(len(batches)):
            produced = (out / f"batch{i}" / "results.csv").read_bytes()
            written[i] = written[i] or produced
            identical &= produced == written[i]
        fits = time.perf_counter() - started + statistics.median(round_s) <= args.seconds
        if len(rounds) >= MIN_ROUNDS and not fits:
            break
    setups = [r for r in rounds if "setup_s" in r]
    while not args.trace and len(setups) < SETUP_LAUNCHES:
        setups.append(launch(jobs[:1], 0, setup_only=True))

    rows = []
    for data in written:
        rows += csv.DictReader(io.StringIO(data.decode("ascii")))
    correct = identical and [int(row["seed"]) for row in rows] == workload.seeds(args.seed)
    failed_cells, errs, sins = [], [], []
    for row in rows:
        failures, err, sin_theta = check_cell(row, workload)
        if failures:
            failed_cells.append({"seed": int(row["seed"]), "failures": failures})
            continue
        errs.append(err)
        if sin_theta is not None:
            sins.append(sin_theta)
    sweep_s = [[r["sweep_s"][i] for r in rounds] for i in range(len(batches))]
    sweep_ref = [[r["reference_s"][i] for r in rounds] for i in range(len(batches))]
    cells_per_s = workload.cells / sum(
        statistics.median(scaled(times, refs)) for times, refs in zip(sweep_s, sweep_ref)
    )
    setup = [r["setup_s"] for r in setups]
    setup_ref = [r["setup_reference_s"] for r in setups]
    peak_rss_mb = statistics.median(r["peak_rss_mb"] for r in rounds)
    err_p50 = statistics.median(errs) if errs else math.nan
    sin_theta_p50 = statistics.median(sins) if sins else 0.0

    shares = None
    if args.trace:
        from tracing import PER_LAYER, summarise

        layer_values, shares = summarise(rounds)
        metrics = {
            name: {"value": layer_values[name], "unit": unit} for name, unit, _, _ in PER_LAYER
        }
        metrics["subspace.sin_theta_p50"] = {"value": sin_theta_p50, "unit": "1"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(scaled(setup, setup_ref)), "unit": "s"},
            "cells_per_s": {"value": cells_per_s, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
            "err_p50": {"value": err_p50, "unit": "1"},
        }
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cells": workload.cells,
        "rounds": len(rounds),
        "round_s": round_s,
        "sweep_s": sweep_s,
        "sweep_reference_s": sweep_ref,
        "setup_s": setup,
        "setup_reference_s": setup_ref,
        "cells_per_s": cells_per_s,
        "err_p50": err_p50,
        "sin_theta_p50": sin_theta_p50,
        "peak_rss_mb": [r["peak_rss_mb"] for r in rounds],
        "rounds_identical": identical,
        "failed_cells": failed_cells,
        "layer_shares": shares,
        "metrics": metrics,
    }
    (out / "run.json").write_text(json.dumps(detail, indent=2) + "\n", encoding="ascii")
    print(
        f"{workload.name}: seed {args.seed}, {len(rounds)} rounds of {workload.cells} cells, "
        f"{BLAS_THREADS} BLAS thread, {len(failed_cells)} failed cells per round",
        file=sys.stderr,
    )
    print(json.dumps({
        "correct": bool(correct),
        "attempted": len(rounds) * workload.cells,
        "failed": len(rounds) * len(failed_cells),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
