"""What ``relurec`` imports, each case checked in a fresh interpreter.

The package runs on numpy and the standard library: ``import relurec.cli``
loads no scipy module.  And every module a sweep needs loads with the
package, so the first sweep of a process imports nothing more; numpy loads
``numpy.random``, ``numpy.polynomial`` and ``numpy.ma`` lazily, and a lazy
load would add its import time to the first cell.
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


def test_cli_import_loads_no_scipy(tmp_path):
    loaded = json.loads(_run(
        """
        import json, sys
        import relurec.cli
        print(json.dumps(sorted(sys.modules)))
        """,
        tmp_path,
    ))
    assert [name for name in loaded if name.split(".")[0] == "scipy"] == []


SWEEPS = {
    "rep-exp": "task = rep_learning\nd = 20\nn = 2d\nk = 2\nbias = exp:rate=1.0,shift=-2.0\n",
    "rep-gauss": "task = rep_learning\nd = 20\nn = 2d\nk = 2\nbias = gauss:mean=0.0,std=1.0\n",
    "recovery-gauss": (
        "task = robust_recovery\nd = 200\nk = 3\ns = 0.02d\ndelta = 0.01\n"
        "bias = gauss:mean=0.0,std=1.0\n"
    ),
    "diagnostics": (
        "task = diagnostics\nd = 40\nk = 2\ns = 1\nbias = const:value=0.0\n"
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
