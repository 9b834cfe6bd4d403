"""One round of a benchmark run, in a fresh interpreter.

    python3 perfbench/sweep_round.py JOB

``JOB`` is a JSON object written by ``run.py``:
``{"src": ..., "batches": [[config, out], ...], "trace": 0 | 1,
"spans": path | null, "setup_only": bool}``.

The round imports relurec from ``src`` and sweeps each batch once, one
after another, with ``relurec.cli.cli_dispatch``, so nothing from an
earlier round or the warm-up is left in the process.  Right after each
sweep it times ``reference_work``.  The last line of standard output is
one JSON object: ``first_cell`` (the monotonic clock at the first cell),
``sweep_s``, ``reference_s``, ``peak_rss_mb`` and, with ``trace`` set,
the tracer's samples.  With ``setup_only`` the round stops at its first
cell.  With ``trace`` set, every span is written to ``spans`` after the
last sweep.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time

CELL_RUNNERS = ("_run_rep_cell", "_run_recovery_cell")


def reference_work() -> float:
    """Time fixed work that does not touch relurec: interpreter, numpy, LAPACK."""
    import numpy as np

    start = time.perf_counter()
    total = 0
    for i in range(30_000):
        total += i * i % 7
    x = np.linspace(0.0, 1.0, 300_000)
    np.linalg.svd(np.outer(x[:150], x[:150]) + np.eye(150))
    np.multiply(x, 1e3, out=x)
    np.sin(x, out=x)
    x.sort()
    return time.perf_counter() - start


def mark_first_cell(harness, result: dict, setup_only: bool) -> None:
    """Record the clock at the first cell, then put the cell runners back."""
    originals = {name: getattr(harness, name) for name in CELL_RUNNERS}

    def marker(name):
        def run(*args, **kwargs):
            result["first_cell"] = time.monotonic()
            for attr, fn in originals.items():
                setattr(harness, attr, fn)
            if setup_only:
                os.write(1, (json.dumps(result) + "\n").encode())
                os._exit(0)
            return originals[name](*args, **kwargs)

        return run

    for name in CELL_RUNNERS:
        setattr(harness, name, marker(name))


def main() -> int:
    job = json.loads(sys.argv[1])
    sys.path.insert(0, job["src"])
    from relurec import cli, harness

    result: dict = {"sweep_s": [], "reference_s": []}
    tracer = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        mark_first_cell(harness, result, job["setup_only"])
    for config, out in job["batches"]:
        argv = ["sweep", "--config", config, "--out", out, "--force"]
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code = cli.cli_dispatch(argv)
            elapsed = time.perf_counter() - start
        if code != 0:
            print(f"relurec sweep {config} exited with {code}", file=sys.stderr)
            return 1
        result["sweep_s"].append(elapsed)
        result["reference_s"].append(reference_work())
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()
        result["samples"], result["layer_ns"] = tracer.samples()
        tracer.write(job["spans"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
