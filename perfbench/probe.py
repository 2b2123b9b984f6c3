"""Child process of run.py: describe the environment and the baselines.

Run with the same environment as the measured CLI processes.  Prints one
JSON object: interpreter, numpy/scipy and BLAS build, where the package was
imported from, and the canonical configurations behind the recorded
baselines in tests/data, written out as CLI config files so run.py can
replay them through the command line.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# canonical scenario function in tests/helpers.py -> (CLI kind, recorded baseline)
REPLAYS = {
    "pod_scenario": ("pod", "tests/data/pod_baseline.csv"),
    "exclusivity_scenario": ("exclusivity", "tests/data/exclusivity_baseline.csv"),
}


def blas_info() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # older numpy without mode="dicts"
        return {"name": "unknown"}
    return {k: blas.get(k) for k in ("name", "version", "openblas configuration")}


def config_text(scenario, kind: str) -> str:
    """The CLI config that rebuilds `scenario` exactly (explicit bath lists, no jitter)."""
    import numpy as np

    times = np.asarray(scenario.times)
    if not np.array_equal(np.linspace(0.0, times[-1], times.size), times):
        raise SystemExit(f"{kind}: time grid is not a linspace the CLI can express")
    p = scenario.model
    floats = lambda values: " ".join(repr(float(v)) for v in values)  # noqa: E731
    lines = [
        "[scenario]",
        f"kind = {kind}",
        "[model]",
        f"m1 = {float(p.m1)!r}",
        f"potential = {p.potential}",
        f"coupling_sign = {'plus' if p.coupling_sign > 0 else 'minus'}",
        f"bath_masses = {floats(m for m, _, _ in p.bath)}",
        f"bath_omegas = {floats(w for _, w, _ in p.bath)}",
        f"bath_kappas = {floats(k for _, _, k in p.bath)}",
    ]
    if p.omega is not None:
        lines.append(f"omega = {float(p.omega)!r}")
    lines += [
        "[initial]",
        f"kind = {scenario.particle_state}",
        f"x = {float(scenario.x0)!r}",
        f"p = {float(scenario.p0)!r}",
        f"temperature = {float(scenario.bath_temperature)!r}",
        f"purified = {'true' if scenario.purified else 'false'}",
        "[times]",
        f"t_max = {float(times[-1])!r}",
        f"n_points = {times.size}",
    ]
    return "\n".join(lines) + "\n"


def main() -> None:
    import numpy
    import scipy

    import qbm_structures

    sys.path.insert(0, str(ROOT / "tests"))
    import helpers

    replays = {
        kind: {"config": config_text(getattr(helpers, scenario_fn)(), kind), "baseline": baseline}
        for scenario_fn, (kind, baseline) in REPLAYS.items()
    }
    print(
        json.dumps(
            {
                "nproc": os.cpu_count(),
                "affinity": len(os.sched_getaffinity(0)),
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "scipy": scipy.__version__,
                "blas": blas_info(),
                "package_file": qbm_structures.__file__,
                "replays": replays,
            }
        )
    )


if __name__ == "__main__":
    main()
