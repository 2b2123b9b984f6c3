"""Output checks for the CLI runs of the benchmark.

Each check reads a CSV written by `python -m qbm_structures.cli` and raises
CheckFailed with a reason when the output is wrong.  Pure standard library,
so the process that runs the benchmark stays small and imports no numerics.
"""

from __future__ import annotations

import math
from pathlib import Path

CSV_VERSION_HEADER = "# qbm-structures v1"

PURE_STATE_TOL = 1e-10  # |purity - sech(neg ln 2)|; holds to ~1e-13 today
EXCLUSIVITY_THRESHOLD = 1e-3
ORACLE_DELTA_BOUND = 1e-6  # max |Gaussian - Fock| per run; up to 1.6e-7 at cutoff 10 today
BASELINE_TOL = 1e-10
GRID_TOL = 1e-12


class CheckFailed(Exception):
    """An output of the program is wrong."""


def read_csv(path: Path, versioned: bool = True) -> tuple[list[str], list[list[float]]]:
    """Column names and float rows of a CSV; `versioned` requires the CLI header line."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if versioned:
        if not lines or lines[0] != CSV_VERSION_HEADER:
            raise CheckFailed(f"{path}: missing version header {CSV_VERSION_HEADER!r}")
        lines = lines[1:]
    if not lines:
        raise CheckFailed(f"{path}: no column header")
    columns = lines[0].split(",")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            row = [float(v) for v in line.split(",")]
        except ValueError as exc:
            raise CheckFailed(f"{path}:{lineno}: {exc}") from exc
        if len(row) != len(columns) or not all(math.isfinite(v) for v in row):
            raise CheckFailed(f"{path}:{lineno}: expected {len(columns)} finite values")
        rows.append(row)
    return columns, rows


def _column(columns: list[str], rows: list[list[float]], name: str) -> list[float]:
    if name not in columns:
        raise CheckFailed(f"missing column {name!r} (have {columns})")
    i = columns.index(name)
    return [row[i] for row in rows]


def check_grid(columns: list[str], rows: list[list[float]], t_max: float, n_points: int) -> None:
    """One row per grid point, at the times np.linspace(0, t_max, n_points) gives."""
    if len(rows) != n_points:
        raise CheckFailed(f"expected {n_points} rows, got {len(rows)}")
    for i, t in enumerate(_column(columns, rows, "t")):
        expected = t_max * i / (n_points - 1)
        if abs(t - expected) > GRID_TOL * max(1.0, t_max):
            raise CheckFailed(f"row {i}: time {t!r}, expected {expected!r}")


def check_pod(columns: list[str], rows: list[list[float]]) -> None:
    """Pure-state identity between purity and 1|rest log-negativity, both splits.

    For a pure global Gaussian state the single-mode reduction has symplectic
    eigenvalue nu = 1/(2 purity) and the log-negativity across 1|rest is
    log2(2 nu + 2 sqrt(nu^2 - 1/4)) (Adesso & Illuminati, J. Phys. A 40,
    7821 (2007)).  Solved for the purity this reads purity = sech(neg ln 2),
    which stays well conditioned where nu is close to 1/2.
    """
    for pur_name, neg_name in (("purity_1", "neg_12"), ("purity_Sp", "neg_SpEp")):
        purities = _column(columns, rows, pur_name)
        negs = _column(columns, rows, neg_name)
        for i, (pur, neg) in enumerate(zip(purities, negs)):
            expected = 1.0 / math.cosh(neg * math.log(2.0))
            if neg < 0 or abs(pur - expected) > PURE_STATE_TOL:
                raise CheckFailed(
                    f"row {i}: {pur_name}={pur!r} and {neg_name}={neg!r} break the "
                    f"pure-state identity by {abs(pur - expected):.3e}"
                )


def check_exclusivity(columns: list[str], rows: list[list[float]]) -> None:
    """The `excluding` flag is exactly neg > 1e-3."""
    negs = _column(columns, rows, "neg_SpEp_branch")
    flags = _column(columns, rows, "excluding")
    for i, (neg, flag) in enumerate(zip(negs, flags)):
        if flag != float(neg > EXCLUSIVITY_THRESHOLD):
            raise CheckFailed(f"row {i}: excluding={flag!r} but neg={neg!r}")


def check_marginal(columns: list[str], rows: list[list[float]]) -> None:
    """An L1 distance between two probability densities lies in [0, 2]."""
    for i, dist in enumerate(_column(columns, rows, "l1_distance")):
        if not 0.0 <= dist <= 2.0:
            raise CheckFailed(f"row {i}: L1 distance {dist!r} outside [0, 2]")


def check_oracle(columns: list[str], rows: list[list[float]]) -> float:
    """Max |Gaussian - Fock| deviation of the run; must stay under ORACLE_DELTA_BOUND."""
    delta = max(_column(columns, rows, "max_abs_delta"))
    if not 0.0 <= delta < ORACLE_DELTA_BOUND:
        raise CheckFailed(f"oracle max |delta| {delta:.3e} not under {ORACLE_DELTA_BOUND:g}")
    return delta


SCENARIO_CHECKS = {
    "pod": check_pod,
    "exclusivity": check_exclusivity,
    "marginal": check_marginal,
    "oracle-compare": check_oracle,
}


def check_output(kind: str, path: Path, t_max: float, n_points: int) -> float | None:
    """Run the grid check and the scenario's own check; returns the oracle delta if any."""
    columns, rows = read_csv(path)
    check_grid(columns, rows, t_max, n_points)
    return SCENARIO_CHECKS[kind](columns, rows)


def compare_baseline(path: Path, baseline: Path) -> float:
    """Max abs deviation of a CLI CSV from a recorded baseline; fails above BASELINE_TOL."""
    columns, rows = read_csv(path)
    base_columns, base_rows = read_csv(baseline, versioned=False)
    if columns != base_columns or len(rows) != len(base_rows):
        raise CheckFailed(
            f"shape differs from {baseline}: {columns} x {len(rows)} vs {base_columns} x {len(base_rows)}"
        )
    worst = max(abs(a - b) for row, base in zip(rows, base_rows) for a, b in zip(row, base))
    if worst > BASELINE_TOL:
        raise CheckFailed(f"deviates from {baseline} by {worst:.3e} (tolerance {BASELINE_TOL:g})")
    return worst
