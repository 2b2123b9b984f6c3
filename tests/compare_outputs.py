"""Compare every benchmark workload's output between a parent source tree and this one.

    python tests/compare_outputs.py PARENT_TREE

Runs each perfbench/workloads/*.ini at seeds 0-2 through `python -W error::RuntimeWarning -m
qbm_structures.cli`, so that a numpy overflow or invalid value fails the run, once with PARENT_TREE/src and
once with this tree's src.  Prints per workload the largest absolute difference over every CSV value, the
largest relative one |this - parent| / max(1, |parent|), which is the gate's own measure, and whether the
printed summary differs.  Some workloads also run with overrides (VARIANTS): oracle-compare certified, with
a free particle, whose larger space and off-diagonal h_0 take Fock products that the plain run does not, and
with three bath modes, whose four-mode number basis (dimension 10^4) no workload builds; and pod-wide as er
and unpurified (mixed), routes that no workload takes.  Exits 1 when a value differs by more
than 1e-12 times max(1, |parent value|), when a summary, a header or an exit status differs, and 0 otherwise.
The CSVs go to a temporary directory; perfbench/ is only read.
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
# extra --set overrides per workload, each run as a workload of its own
VARIANTS = {
    "oracle-compare": (
        ["oracle.certify=true"],
        ["model.potential=free"],
        ["model.bath_omegas=0.9 1.4 1.9", "model.bath_kappas=0.15 0.15 0.15"],
    ),
    "pod-wide": (["scenario.kind=er"], ["initial.purified=false"]),
}


def run(
    tree: Path, config: Path, overrides: list[str], seed: int, output: Path
) -> tuple[int, str, list[str], np.ndarray]:
    """Exit status, stdout, CSV header and CSV values of one CLI run against tree/src."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    argv = [sys.executable, "-W", "error::RuntimeWarning", "-m", "qbm_structures.cli", str(config)]
    argv += ["--seed", str(seed), "--output", str(output)]
    for item in overrides:
        argv += ["--set", item]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, cwd=output.parent)
    if proc.returncode != 0 or not output.exists():
        return proc.returncode, proc.stdout + proc.stderr, [], np.zeros((0, 0))
    lines = output.read_text(encoding="utf-8").splitlines()
    values = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
    return proc.returncode, proc.stdout, lines[:2], values


def compare(parent: tuple, this: tuple) -> tuple[float, float, bool]:
    """Largest absolute and relative difference between two runs' CSV values, and whether they fail the gate.

    Each run is run()'s (status, stdout, header, values).  The relative difference is |this - parent| /
    max(1, |parent|); the runs fail when it exceeds TOL (a NaN fails too), or when the exit status, the
    header or the shape of the values differs.
    """
    (status_a, _, head_a, old), (status_b, _, head_b, new) = parent, this
    if status_a != status_b or head_a != head_b or old.shape != new.shape:
        return 0.0, 0.0, True
    gap = np.abs(new - old)
    rel = gap / np.maximum(1.0, np.abs(old))
    return float(np.max(gap, initial=0.0)), float(np.max(rel, initial=0.0)), bool(np.any(~(rel <= TOL)))


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not (Path(argv[0]) / "src" / "qbm_structures").is_dir():
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    parent = Path(argv[0]).resolve()
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        configs = sorted((ROOT / "perfbench" / "workloads").glob("*.ini"))
        for config, overrides in [(c, o) for c in configs for o in ([], *VARIANTS.get(c.stem, ()))]:
            name = " ".join([config.stem] + [f"--set {item}" for item in overrides])
            worst_abs = worst_rel = 0.0
            stdout_differs = mismatch = False
            for seed in SEEDS:
                runs = []
                for label, tree in (("parent", parent), ("this", ROOT)):
                    out = Path(tmp) / label / f"{config.stem}-{seed}.csv"
                    out.parent.mkdir(exist_ok=True)
                    runs.append(run(tree, config, overrides, seed, out))
                stdout_differs |= runs[0][1] != runs[1][1]
                gap, rel, fails = compare(*runs)
                worst_abs, worst_rel, mismatch = max(worst_abs, gap), max(worst_rel, rel), mismatch or fails
            failed |= mismatch or stdout_differs
            print(
                f"{name}: max abs {worst_abs:.3g}, max rel {worst_rel:.3g}, "
                f"stdout {'differs' if stdout_differs else 'same'}" + (", FAIL" if mismatch else "")
            )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
