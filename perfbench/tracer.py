"""Outside-in layer trace of one CLI configuration, run in a single process.

Wraps the public functions of each qbm_structures module from outside, in
every module namespace that holds them, and records one span per call:
name, start, end, parent span and thread.  Parent stacks are kept per
thread; a span that opens on a worker thread with an empty stack takes the
span open on the main thread as its parent, so work fanned out to a thread
pool is charged to the call that waited for it.  Spans stay in memory and
are written out at the end.

As a script (run.py starts it in the measured environment):

    python perfbench/tracer.py CONFIG --seed N --seconds S --out-dir DIR

It calls `qbm_structures.cli.main` once untraced to warm up, then in pairs,
untraced and traced with the same seed, until S seconds have passed.  The
last line of its output is a JSON object with the per-layer metrics (means
per traced call) and the CSV paths of every pair.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import io
import json
import statistics
import sys
import threading
import time
from pathlib import Path

PACKAGE = "qbm_structures"

# module -> public functions (or Class.method) to wrap, in layer order
TARGETS: dict[str, tuple[str, ...]] = {
    "cli": ("parse_config", "apply_overrides", "build_scenario", "run"),
    "experiments": ("run_pod", "run_exclusivity", "marginal_incompatibility", "run_oracle_compare"),
    "model": ("build_qbm_hamiltonian", "discretize_bath"),
    "structure": ("collective_mode_map",),
    "gaussian": (
        # per-time algebra
        "propagator",
        "embed_symplectic",
        "evolve",
        "reduce",
        "purity",
        "log_negativity",
        "symplectic_eigenvalues",
        "GaussianState.__post_init__",
        # state preparation and branches
        "thermal_state",
        "purify",
        "williamson",
        "product_state",
        "coherent_state",
        "condition_on_coherent",
        "cat_state",
        "decoherence_factor",
    ),
    "fock_oracle": (
        "build_fock_hamiltonian",
        "DenseEvolver.__init__",
        "DenseEvolver.propagate",
        "gaussian_to_fock",
        "reduced_density",
        "quadrature_moments",
        "mode_means",
        "weyl_operator",
        "purity_density",
    ),
}
ROOT_SPAN = "cli.main"
SAMPLE_LAYER = "experiments"  # its runners return one report row per time sample
COUNTERS = (
    ("cli.rows_written", "count"),
    ("experiments.samples", "count"),
    ("gaussian.states_per_sample", "ratio"),
    ("cli.main.s", "s"),
    ("process.import_s", "s"),
    ("trace.calls", "count"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


def target_names() -> list[str]:
    return [f"{module}.{name}" for module, names in TARGETS.items() for name in names]


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in target_names():
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    for module in TARGETS:
        units[f"{module}.self_s"] = "s"
    units.update(COUNTERS)
    return units


class Tracer:
    """Installs span-recording wrappers and restores the originals on uninstall."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent span or None, thread ident]
        self.samples = 0
        self.missing: list[str] = []
        self._installed: list[tuple[object, str, object]] = []
        self._local = threading.local()
        self._main_stack: list[list] = []

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if main else []
            self._local.stack = stack
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            top = self._main_stack[-1:]  # one slice read: safe against the main thread popping
            parent = top[0] if top else None
        rec = [name, time.perf_counter(), None, parent, threading.get_ident()]
        self.spans.append(rec)
        stack.append(rec)
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            stack.pop()

    def _wrap(self, name: str, fn, counts_samples: bool):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if counts_samples:
                times = getattr(result, "times", None)
                tracer.samples += 1 if times is None else len(times)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target in every loaded package module that refers to it."""
        self.missing = []
        modules = [m for n, m in sorted(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for module_name, names in TARGETS.items():
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            for name in names:
                full = f"{module_name}.{name}"
                owner_name, _, attr = name.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                original = vars(owner).get(attr) if owner is not None else None
                if not callable(original):
                    self.missing.append(full)
                    continue
                wrapper = self._wrap(full, original, module_name == SAMPLE_LAYER)
                if owner_name:  # a method: every caller looks it up on the class
                    self._patch(owner, attr, original, wrapper)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def totals(self) -> dict[str, float]:
        """Busy seconds (summed over threads), self seconds and calls per span name and layer.

        Self time is a span's duration minus the part of it that its child
        spans, on any thread, cover.  A span nested in a span of the same
        name adds to the calls but not again to the busy seconds.
        """
        children: dict[int, list[list]] = {}
        for rec in self.spans:
            if rec[3] is not None:
                children.setdefault(id(rec[3]), []).append(rec)
        out: dict[str, float] = {}
        for rec in self.spans:
            name, start, end, parent = rec[0], rec[1], rec[2], rec[3]
            if end is None:
                continue
            covered, reach = 0.0, start
            for _, c_start, c_end, _, _ in sorted(children.get(id(rec), ()), key=lambda c: c[1]):
                c_start, c_end = max(c_start, reach), min(c_end if c_end is not None else end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            self_s = end - start - covered
            layer = name.split(".", 1)[0]
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + self_s
            out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0.0) + self_s
            ancestor = parent
            while ancestor is not None and ancestor[0] != name:
                ancestor = ancestor[3]
            if ancestor is None:
                out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + end - start
        return out

    def dump(self, path: Path) -> None:
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        rows = [
            [name, start, end, None if parent is None else index[id(parent)], thread]
            for name, start, end, parent, thread in self.spans
        ]
        path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "thread"], "spans": rows}))


def _data_rows(csv_path: Path) -> int:
    """Rows after the version and column headers; 0 when the call wrote no file."""
    if not csv_path.exists():
        return 0
    with csv_path.open(encoding="utf-8") as fh:
        return max(0, sum(1 for _ in fh) - 2)


def _call_cli(main, config: str, seed: int, output: Path) -> tuple[int, float]:
    argv = [config, "--seed", str(seed), "--output", str(output)]
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        status = main(argv)
        return status, time.perf_counter() - t0


def trace_config(config: str, seed: int, seconds: float, out_dir: Path) -> dict:
    """Warm-up call, then untraced/traced pairs of `cli.main` until `seconds` pass."""
    t0 = time.perf_counter()
    cli = importlib.import_module(f"{PACKAGE}.cli")
    import_s = time.perf_counter() - t0

    out_dir.mkdir(parents=True, exist_ok=True)
    statuses = [_call_cli(cli.main, config, seed, out_dir / "warmup.csv")[0]]
    tracer = Tracer()
    pairs, plain_s, traced_s = [], [], []
    start = time.perf_counter()
    while not pairs or time.perf_counter() - start < seconds:
        k = len(pairs)
        plain = out_dir / f"untraced-{k}.csv"
        traced = out_dir / f"traced-{k}.csv"
        s1, dt_plain = _call_cli(cli.main, config, seed + k, plain)
        with tracer:
            with tracer.span(ROOT_SPAN):
                s2, dt_traced = _call_cli(cli.main, config, seed + k, traced)
        statuses += [s1, s2]
        pairs.append({"seed": seed + k, "untraced": str(plain), "traced": str(traced)})
        plain_s.append(dt_plain)
        traced_s.append(dt_traced)
    tracer.dump(out_dir / "spans.json")

    n = len(pairs)
    totals = tracer.totals()
    counters = dict(COUNTERS)
    metrics = {name: totals.get(name, 0.0) / n for name in metric_units() if name not in counters}
    samples = tracer.samples / n
    states = metrics["gaussian.GaussianState.__post_init__.calls"]
    rows = sum(_data_rows(Path(pair["traced"])) for pair in pairs) / n
    overhead = statistics.median(t - p for t, p in zip(traced_s, plain_s))
    metrics.update(
        {
            "cli.rows_written": rows,
            "experiments.samples": samples,
            "gaussian.states_per_sample": states / samples if samples else 0.0,
            "cli.main.s": statistics.median(traced_s),
            "process.import_s": import_s,
            "trace.calls": n,
            "trace.overhead_s": overhead,
            "trace.overhead_frac": overhead / statistics.median(plain_s),
        }
    )
    return {"statuses": statuses, "metrics": metrics, "missing": tracer.missing, "pairs": pairs}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("config")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args()
    print(json.dumps(trace_config(args.config, args.seed, args.seconds, args.out_dir)))


if __name__ == "__main__":
    main()
