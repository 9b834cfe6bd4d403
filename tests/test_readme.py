"""The examples in ``README.md`` run as written.

Every ``relurec ...`` line of the "Command line" section runs, in order,
in one fresh directory, as ``python -m relurec.cli`` with ``relurec``
imported from ``src/`` and ``-W error``.  The example
config of the "Sweep configs" section is written there as ``sweep.cfg``
first, so ``relurec sweep --config sweep.cfg`` runs the documented config.
That section's lines for each task list the keys the task reads and the
columns of its ``results.csv``.  Each
```` ```python ```` example runs in a fresh interpreter the same way and
prints its result.
"""

import os
import re
import shlex
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from relurec.harness import RESULT_COLUMNS, TASK_KEYS

ROOT = Path(__file__).resolve().parent.parent


def _readme() -> str:
    return (ROOT / "README.md").read_text(encoding="utf-8")


def _section(title: str) -> str:
    match = re.search(rf"^## {re.escape(title)}\n(.*?)(?=^## |\Z)", _readme(), re.M | re.S)
    assert match, f"README.md has no section {title!r}"
    return match.group(1)


def _commands() -> list[list[str]]:
    lines = re.findall(r"^    (relurec .*)$", _section("Command line"), re.M)
    return [shlex.split(line)[1:] for line in lines]


def _sweep_config() -> str:
    block = re.search(r"\n\n((?:    .*\n)+)", _section("Sweep configs"))
    assert block, "the Sweep configs section has no indented example"
    return textwrap.dedent(block.group(1))


def _python(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    """``python -W error *args`` in a fresh interpreter that imports ``relurec`` from ``src/``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    return subprocess.run(
        [sys.executable, "-W", "error", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def test_readme_commands_run(tmp_path):
    commands = _commands()
    assert sorted({argv[0] for argv in commands}) == ["gen", "learn-rep", "recover", "sweep"]
    (tmp_path / "sweep.cfg").write_text(_sweep_config(), encoding="utf-8")
    for argv in commands:
        done = _python(["-m", "relurec.cli", *argv], tmp_path)
        assert done.returncode == 0, f"relurec {shlex.join(argv)}\n{done.stderr}"
    assert (tmp_path / "inst" / "instance.npz").exists()
    assert (tmp_path / "results" / "results.csv").exists()


def test_readme_lists_the_keys_of_each_task():
    lines = re.findall(r"^- `(\w+)`: (.*)$", _section("Sweep configs"), re.M)
    listed = {task: tuple(re.findall(r"`(\w+)`", keys)) for task, keys in lines}
    assert listed == TASK_KEYS


def test_readme_lists_the_columns_of_each_task():
    lines = re.findall(r"^- `(\w+)` writes (.*)$", _section("Sweep configs"), re.M)
    listed = {task: tuple(re.findall(r"`(\w+)`", columns)) for task, columns in lines}
    assert listed == RESULT_COLUMNS


@pytest.mark.parametrize("index", [0, 1], ids=["reconstruction", "recovery"])
def test_readme_python_example_runs(index, tmp_path):
    examples = re.findall(r"^```python\n(.*?)^```", _readme(), re.M | re.S)
    assert len(examples) == 2
    done = _python(["-c", examples[index]], tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
