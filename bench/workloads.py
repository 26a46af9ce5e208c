"""The benchmark's workloads: fpdrift CLI calls and how their seeds are made.

Each workload is one CLI subcommand with fixed ``--set`` overrides and a fixed
``--workers`` count. A run repeats calls of ``replications`` trials each; call
``k`` of a run with benchmark seed ``s`` passes ``--seed s*1000 + k`` to the
program, so the same benchmark seed always gives the same inputs. The reasons
for each choice are in README.md next to this file.
"""

from __future__ import annotations

from dataclasses import dataclass

# Program seed of the call whose summary.csv is pinned in reference.json.
REFERENCE_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    command: str               # "experiment" or "coverage"
    sets: tuple[str, ...]      # --set KEY=VALUE overrides, replications included
    workers: int
    replications: int          # trials per CLI call

    @property
    def overrides(self) -> list[str]:
        return [*self.sets, f"replications={self.replications}"]

    def argv(self, program_seed: int, out_dir: str, workers: int | None = None) -> list[str]:
        argv = [self.command]
        for item in self.overrides:
            argv += ["--set", item]
        argv += ["--seed", str(program_seed), "--out", out_dir,
                 "--workers", str(self.workers if workers is None else workers)]
        return argv


def program_seed(bench_seed: int, call: int) -> int:
    return bench_seed * 1000 + call


WORKLOADS = {w.name: w for w in (
    Workload(
        name="fbm-prefix",
        command="experiment",
        sets=("model=model2", "H=0.7", "steps=20", "n_max=200"),
        workers=1,
        replications=10,
    ),
    Workload(
        name="fbm-fine-grid",
        command="coverage",
        sets=("model=model1", "H=0.9", "steps=400", "n_max=50"),
        workers=1,
        replications=2,
    ),
    Workload(
        name="bm-coverage-pool",
        command="coverage",
        sets=("model=model2", "mode=bm", "H=0.5", "steps=100", "n_max=200"),
        workers=2,
        replications=50,
    ),
)}
