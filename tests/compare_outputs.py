"""Compare every benchmark workload's output between a parent source tree and this one.

    python tests/compare_outputs.py PARENT_TREE

Runs each perfbench/workloads/*.ini at seeds 0-2 through `python -m qbm_structures.cli`, once with
PARENT_TREE/src and once with this tree's src, and prints per workload the largest absolute and relative
difference over every CSV value and whether the printed summary differs.  Exits 1 when a value differs by
more than 1e-12 times max(1, |parent value|), when a summary, a header or an exit status differs, and 0
otherwise.  The CSVs go to a temporary directory; perfbench/ is only read.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 1, 2)
TOL = 1e-12


def run(tree: Path, config: Path, seed: int, output: Path) -> tuple[int, str, list[str], np.ndarray]:
    """Exit status, stdout, CSV header and CSV values of one CLI run against tree/src."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    argv = [sys.executable, "-m", "qbm_structures.cli", str(config), "--seed", str(seed), "--output", str(output)]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, cwd=output.parent)
    if proc.returncode != 0 or not output.exists():
        return proc.returncode, proc.stdout + proc.stderr, [], np.zeros((0, 0))
    lines = output.read_text(encoding="utf-8").splitlines()
    values = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
    return proc.returncode, proc.stdout, lines[:2], values


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not (Path(argv[0]) / "src" / "qbm_structures").is_dir():
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    parent = Path(argv[0]).resolve()
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for config in sorted((ROOT / "perfbench" / "workloads").glob("*.ini")):
            worst_abs = worst_rel = 0.0
            stdout_differs = mismatch = False
            for seed in SEEDS:
                runs = []
                for label, tree in (("parent", parent), ("this", ROOT)):
                    out = Path(tmp) / label / f"{config.stem}-{seed}.csv"
                    out.parent.mkdir(exist_ok=True)
                    runs.append(run(tree, config, seed, out))
                (status_a, stdout_a, head_a, old), (status_b, stdout_b, head_b, new) = runs
                stdout_differs |= stdout_a != stdout_b
                if status_a != status_b or head_a != head_b or old.shape != new.shape:
                    mismatch = True
                    continue
                gap = np.abs(new - old)
                worst_abs = max(worst_abs, float(np.max(gap, initial=0.0)))
                nonzero = old != 0
                worst_rel = max(worst_rel, float(np.max(gap[nonzero] / np.abs(old[nonzero]), initial=0.0)))
                mismatch |= bool(np.any(~(gap <= TOL * np.maximum(1.0, np.abs(old)))))
            failed |= mismatch or stdout_differs
            print(
                f"{config.stem}: max abs {worst_abs:.3g}, max rel {worst_rel:.3g}, "
                f"stdout {'differs' if stdout_differs else 'same'}" + (", FAIL" if mismatch else "")
            )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
