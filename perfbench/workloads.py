"""The four seeded sweep configs the benchmark runs.

Each workload is a fixed list of ``cells`` sweep cells, run as
consecutive ``relurec sweep`` calls of ``batch`` cells each.  A round of
a run sweeps the whole list, so every round computes the same cells.
The cell seeds come from the benchmark's base seed as
``1000 * base_seed + i`` for ``i = 0 .. cells - 1``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    task: str
    cells: int
    batch: int
    keys: tuple[tuple[str, str], ...]

    def seeds(self, base_seed: int) -> list[int]:
        return [1000 * base_seed + i for i in range(self.cells)]

    def config_text(self, seeds: list[int]) -> str:
        lines = [f"task = {self.task}"]
        lines += [f"{key} = {value}" for key, value in self.keys]
        lines.append("seeds = " + ", ".join(str(s) for s in seeds))
        return "\n".join(lines) + "\n"

    def batches(self, base_seed: int) -> list[list[int]]:
        seeds = self.seeds(base_seed)
        return [seeds[i : i + self.batch] for i in range(0, self.cells, self.batch)]

    def key(self, name: str) -> str:
        return dict(self.keys)[name]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="rep_small",
            task="rep_learning",
            cells=60,
            batch=20,
            keys=(
                ("d", "100"),
                ("n", "2d"),
                ("k", "5"),
                ("gamma", "1.0"),
                ("bias", "exp:rate=1.0,shift=-2.0"),
                ("fill_strategy", "midpoint"),
            ),
        ),
        Workload(
            name="rep_large",
            task="rep_learning",
            cells=6,
            batch=1,
            keys=(
                ("d", "800"),
                ("n", "2d"),
                ("k", "5"),
                ("gamma", "1.0"),
                ("bias", "gauss:mean=0.0,std=1.0"),
                ("fill_strategy", "midpoint"),
            ),
        ),
        Workload(
            name="recover_gauss",
            task="robust_recovery",
            cells=32,
            batch=4,
            keys=(
                ("d", "2000"),
                ("k", "10"),
                ("s", "0.02d"),
                ("delta", "0.01"),
                ("outlier_magnitude", "5.0"),
                ("lambda_mode", "oracle"),
                ("bias", "gauss:mean=0.0,std=1.0"),
            ),
        ),
        Workload(
            name="recover_large",
            task="robust_recovery",
            cells=32,
            batch=8,
            keys=(
                ("d", "64000"),
                ("k", "10"),
                ("s", "0.02d"),
                ("delta", "0.01"),
                ("outlier_magnitude", "5.0"),
                ("lambda_mode", "oracle"),
                ("bias", "const:value=0.0"),
            ),
        ),
    )
}
