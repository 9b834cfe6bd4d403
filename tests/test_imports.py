"""What ``relurec`` imports, each case checked in a fresh interpreter.

The package runs on numpy and the standard library: ``import relurec.cli``
loads no scipy module.  It loads neither ``numpy.polynomial``, which only
the Legendre rule of an exponential or logistic law's moments needs, nor
``numpy.ma`` or ``statistics``, which no command needs: each costs a
launch milliseconds.  A module a sweep needs loads with the package or
before the sweep's first cell, never inside a cell, where its import time
would be charged to that cell.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(code: str, cwd: Path) -> str:
    """Standard output of ``code`` run by a fresh interpreter with ``relurec`` from ``src/``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


IMPORT_CLI = """
import json, sys
import relurec.cli
print(json.dumps(sorted(sys.modules)))
"""


def test_cli_import_loads_no_scipy(tmp_path):
    loaded = json.loads(_run(IMPORT_CLI, tmp_path))
    assert [name for name in loaded if name.split(".")[0] == "scipy"] == []


def _within(names, packages):
    """The names in ``names`` of one of ``packages`` or of a module inside one."""
    return [name for name in names if any(
        name == package or name.startswith(package + ".") for package in packages
    )]


def test_cli_import_loads_neither_the_legendre_rule_nor_unused_modules(tmp_path):
    loaded = json.loads(_run(IMPORT_CLI, tmp_path))
    assert _within(loaded, ("numpy.ma", "numpy.polynomial", "statistics")) == []


SWEEPS = {
    "rep-exp": "task = rep_learning\nd = 20\nn = 2d\nk = 2\nbias = exp:rate=1.0,shift=-2.0\n",
    "rep-gauss": "task = rep_learning\nd = 20\nn = 2d\nk = 2\nbias = gauss:mean=0.0,std=1.0\n",
    "recovery-gauss": (
        "task = robust_recovery\nd = 200\nk = 3\ns = 0.02d\ndelta = 0.01\n"
        "bias = gauss:mean=0.0,std=1.0\n"
    ),
    "diagnostics": (  # the cone check that the diagnostics task once ran
        "task = robust_recovery\nd = 40\nk = 2\ns = 1\nbias = const:value=0.0\n"
        "lambda_mode = agnostic\ncone_check = true\n"
    ),
}


@pytest.mark.parametrize("config", SWEEPS.values(), ids=SWEEPS.keys())
def test_first_sweep_loads_no_module_of_numpy_or_relurec(tmp_path, config):
    report = json.loads(_run(
        f"""
        import json, sys
        import relurec.cli
        from relurec.harness import emit_results, parse_config, run_sweep

        before = set(sys.modules)
        records = run_sweep(parse_config({config + "seeds = 0, 1"!r}))
        emit_results(records, "out")
        print(json.dumps({{
            "errors": [r["error"] for r in records if r["error"] is not None],
            "loaded": sorted(set(sys.modules) - before),
        }}))
        """,
        tmp_path,
    ))
    assert report["errors"] == []
    roots = ("numpy", "relurec", "statistics")
    assert [name for name in report["loaded"] if name.split(".")[0] in roots] == []


def test_legendre_rule_loads_before_the_first_cell(tmp_path):
    config = (
        "task = robust_recovery\nd = 200\nk = 3\ns = 0.02d\n"
        "bias = exp:rate=1.0,shift=-2.0\nseeds = 0, 1\n"
    )
    report = json.loads(_run(
        f"""
        import json, sys
        import relurec.cli
        from relurec import harness

        run_cell = harness._run_recovery_cell
        loaded = {{}}

        def first_cell(*args, **kwargs):
            loaded["first_cell"] = sorted(sys.modules)
            harness._run_recovery_cell = run_cell
            return run_cell(*args, **kwargs)

        harness._run_recovery_cell = first_cell
        loaded["import"] = sorted(sys.modules)
        records = harness.run_sweep(harness.parse_config({config!r}))
        loaded["end"] = sorted(sys.modules)
        print(json.dumps({{
            "errors": [r["error"] for r in records if r["error"] is not None],
            **loaded,
        }}))
        """,
        tmp_path,
    ))
    assert report["errors"] == []
    setup = set(report["first_cell"]) - set(report["import"])
    assert "numpy.polynomial.legendre" in setup
    in_cells = set(report["end"]) - set(report["first_cell"])
    assert _within(in_cells, ("numpy", "relurec", "statistics")) == []
