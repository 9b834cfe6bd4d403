"""
Config-driven experiment sweeps
===============================

A sweep is described by a flat key=value text file: a task, dimension
lists (or rules tied to d), a bias config, and seeds.  Running it
produces one row per (configuration x seed) cell, a stable CSV holding
the columns of its task only, and a JSON summary of medians against the
theoretical rates.  Identical configs produce byte-identical result
files.
"""

import json
import tempfile
from pathlib import Path

from relurec.harness import RESULT_COLUMNS, emit_results, parse_config, run_sweep

CONFIG = """
# robust recovery across three sizes; outlier count tracks d
task = robust_recovery
d = 250, 500, 1000
k = 8
s = 0.02d
delta = 0.01
bias = const:value=0.0
lambda_mode = oracle
seeds = 0, 1, 2, 3, 4
"""

config = parse_config(CONFIG)
print(f"task {config.task}: d in {config.d}, {len(config.seeds)} seeds per size")

records = run_sweep(config)
failures = [r for r in records if r["error"] is not None]
print(f"{len(records)} cells run, {len(failures)} failed")

with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "results"
    target = emit_results(records, out)
    print(f"\nwrote {target.name}, timings.csv, summary.json under {out.name}/")
    print(f"the columns of a {config.task} row: {', '.join(RESULT_COLUMNS[config.task])}")

    summary = json.loads((out / "summary.json").read_text())
    print("\nmedian recovery error and error-to-bound ratio by configuration")
    for key, entry in summary.items():
        err = entry["recovery_error"]["median"]
        ratio = entry["recovery_error_over_bound"]["median"]
        print(f"  {key:<28} error {err:.4f}  ratio {ratio:.3f}")

    # Determinism: a second identical run emits the same bytes.
    again = Path(tmp) / "again"
    emit_results(run_sweep(config), again)
    same = (out / "results.csv").read_bytes() == (again / "results.csv").read_bytes()
    print(f"\nsecond run byte-identical: {same}")
