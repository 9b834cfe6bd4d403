"""The command-line examples in ``README.md`` run as written.

Every ``relurec ...`` line of the "Command line" section runs, in order,
in one fresh directory, as ``python -m relurec.cli`` with ``relurec``
imported from ``src/`` and ``-W error::RuntimeWarning``.  The example
config of the "Sweep configs" section is written there as ``sweep.cfg``
first, so ``relurec sweep --config sweep.cfg`` runs the documented config.
That section's line for each task lists the keys the task reads.
"""

import os
import re
import shlex
import subprocess
import sys
import textwrap
from pathlib import Path

from relurec.harness import TASK_KEYS

ROOT = Path(__file__).resolve().parent.parent


def _section(title: str) -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    match = re.search(rf"^## {re.escape(title)}\n(.*?)(?=^## |\Z)", text, re.M | re.S)
    assert match, f"README.md has no section {title!r}"
    return match.group(1)


def _commands() -> list[list[str]]:
    lines = re.findall(r"^    (relurec .*)$", _section("Command line"), re.M)
    return [shlex.split(line)[1:] for line in lines]


def _sweep_config() -> str:
    block = re.search(r"\n\n((?:    .*\n)+)", _section("Sweep configs"))
    assert block, "the Sweep configs section has no indented example"
    return textwrap.dedent(block.group(1))


def test_readme_commands_run(tmp_path):
    commands = _commands()
    assert sorted({argv[0] for argv in commands}) == [
        "diag", "gen", "learn-rep", "recover", "sweep",
    ]
    (tmp_path / "sweep.cfg").write_text(_sweep_config(), encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    for argv in commands:
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "relurec.cli", *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, f"relurec {shlex.join(argv)}\n{done.stderr}"
    assert (tmp_path / "inst" / "instance.npz").exists()
    assert (tmp_path / "results" / "results.csv").exists()


def test_readme_lists_the_keys_of_each_task():
    lines = re.findall(r"^- `(\w+)`: (.*)$", _section("Sweep configs"), re.M)
    listed = {task: tuple(re.findall(r"`(\w+)`", keys)) for task, keys in lines}
    assert listed == TASK_KEYS
