"""Closed-loop benchmark of the qbm-structures command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  With --trace 0 it times fresh
`python -m qbm_structures.cli CONFIG --seed N+k` processes, one after the
other from this single process (closed loop, one client), for S seconds,
and reports the end-to-end metrics.  With --trace 1 it instead runs the
same configuration inside one traced process (see tracer.py) and reports
the per-layer metrics.  Every CLI output is checked; a run fails when it
exits non-zero or fails a check.  The last line of output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  The exit status is
0 when every run passed, 1 when one failed, and 2 (with no result line)
when the benchmark cannot run at all.

--workload all runs every workload in turn and prints one table.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = {
    "pod-wide": "dense per-time Gaussian algebra on 258-dim covariances (N_bath=64, purified), where BLAS threads and the thread pool contend",
    "exclusivity-long": "320 samples of small 34-dim states: per-sample validation, dispatch, branch conditioning and a long CSV",
    "marginal-wide": "state preparation per time point at N_bath=128 (514-dim): model, structure map, thermal state and purify carry the run",
    "oracle-compare": "the dense Fock oracle at dimension 1000 does almost all the work; the Gaussian route does little",
}
REPLAYS = {"pod-wide": "pod", "exclusivity-long": "exclusivity"}  # canonical baseline replayed first
END_TO_END = {"run_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

SETUP_IMPORTS = 3  # fresh interpreters timed for setup_s; the median is reported
MIN_RUNS = 3
PROCESS_TIMEOUT_S = 60.0
LOOP_DEADLINE_S = 90.0  # stop starting processes after this, whatever --seconds says
THREAD_VARS = ("QBM_STRUCTURES_THREADS", "MKL_NUM_THREADS")
THREAD_PREFIXES = ("OPENBLAS_", "OMP_")


class BenchError(Exception):
    """The benchmark cannot run here (no program source, a broken environment)."""


@dataclass(frozen=True)
class Workload:
    name: str
    config: Path
    kind: str
    t_max: float
    n_points: int
    size: dict  # work done, known from the config: inputs, not metrics


def load_workload(name: str, config: Path) -> Workload:
    cp = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
    if not cp.read(config, encoding="utf-8"):
        raise BenchError(f"no workload config {config}")
    model = cp["model"]
    n_bath = len(model["bath_omegas"].split()) if "bath_omegas" in model else model.getint("n_bath")
    modes = 1 + n_bath
    ancillas = n_bath if cp.getboolean("initial", "purified", fallback=False) else 0
    size = {"modes": modes, "phase_space_dim": 2 * (modes + ancillas)}
    kind = cp.get("scenario", "kind")
    if kind == "oracle-compare":
        size["fock_dim"] = cp.getint("oracle", "cutoff") ** modes
    n_points = cp.getint("times", "n_points")
    size["grid_points"] = n_points
    return Workload(name, config, kind, cp.getfloat("times", "t_max"), n_points, size)


@dataclass
class Proc:
    status: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    stderr: str


def run_process(argv: list[str], env: dict, log: Path, timeout: float = PROCESS_TIMEOUT_S) -> Proc:
    """Run argv to completion from the checkout root; wall time from spawn to exit, rusage of the child."""
    out_path, err_path = log.with_suffix(".out"), log.with_suffix(".err")
    with out_path.open("wb") as out, err_path.open("wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        lock, exited = threading.Lock(), False

        def kill_on_timeout():
            with lock:
                if not exited:
                    proc.kill()

        timer = threading.Timer(timeout, kill_on_timeout)
        timer.start()
        try:
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)  # exited, not yet reaped
            wall = time.perf_counter() - t0
            with lock:
                exited = True
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(
        status=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


def child_env() -> tuple[dict, dict]:
    """Environment for the measured processes: program defaults, checkout source first.

    Thread-count variables are removed so that the defaults are measured;
    the values found are returned for the record.
    """
    env = dict(os.environ)
    removed = {k: env.pop(k) for k in list(env) if k in THREAD_VARS or k.startswith(THREAD_PREFIXES)}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env, removed


def source_record() -> dict:
    """Git commit when the checkout is a repository, and a digest of src/ either way."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    return {"commit": commit or "unknown (not a git checkout)", "src_sha256": digest.hexdigest()[:16]}


def probe(env: dict, removed: dict, out_dir: Path) -> dict:
    """Environment record plus the canonical replay configs, from a child in the measured env."""
    if not (SRC / "qbm_structures" / "cli.py").is_file():
        raise BenchError(f"no program source under {SRC}")
    proc = run_process([sys.executable, str(BENCH / "probe.py")], env, out_dir / "probe")
    if proc.status != 0:
        raise BenchError(f"environment probe failed: {proc.stderr.strip()[-500:]}")
    info = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(info["package_file"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"qbm_structures imported from {info['package_file']}, not from {SRC}")
    info["thread_vars_removed"] = removed
    info.update(source_record())
    return info


def measure_setup(env: dict, out_dir: Path, n: int = SETUP_IMPORTS) -> list[float]:
    """Wall time of fresh interpreters that only import the CLI module."""
    walls = []
    for _ in range(n):
        proc = run_process([sys.executable, "-c", "import qbm_structures.cli"], env, out_dir / "setup")
        if proc.status != 0:
            raise BenchError(f"import qbm_structures.cli failed: {proc.stderr.strip()[-500:]}")
        walls.append(proc.wall_s)
    return walls


@dataclass
class Run:
    label: str
    proc: Proc | None = None
    error: str | None = None
    oracle_delta: float | None = None
    baseline_dev: float | None = None
    csv_rows: int = 0
    csv_bytes: int = 0


def cli_argv(config: Path, seed: int, output: Path) -> list[str]:
    return [sys.executable, "-m", "qbm_structures.cli", str(config), "--seed", str(seed), "--output", str(output)]


def check_run(run: Run, workload: Workload, csv: Path) -> Run:
    """Fill in the run's error (if any), oracle delta and CSV size from its output file."""
    if run.proc is not None and run.proc.status != 0:
        last = (run.proc.stderr.strip().splitlines() or ["(no stderr)"])[-1]
        run.error = f"exit {run.proc.status}: {last}"
        return run
    try:
        run.oracle_delta = checks.check_output(workload.kind, csv, workload.t_max, workload.n_points)
        run.csv_bytes = csv.stat().st_size
        run.csv_rows = workload.n_points
    except (checks.CheckFailed, OSError) as exc:
        run.error = f"check failed: {exc}"
    return run


def replay_baseline(kind: str, spec: dict, env: dict, out_dir: Path) -> Run:
    """Run a canonical configuration through the CLI and compare it with its recorded baseline."""
    config = out_dir / f"replay-{kind}.ini"
    config.write_text(spec["config"], encoding="utf-8")
    csv = out_dir / f"replay-{kind}.csv"
    run = Run(f"replay {spec['baseline']}")
    run.proc = run_process(cli_argv(config, 0, csv), env, out_dir / "replay")
    if run.proc.status != 0:
        run.error = f"exit {run.proc.status}: {run.proc.stderr.strip()[-300:]}"
        return run
    try:
        run.baseline_dev = checks.compare_baseline(csv, ROOT / spec["baseline"])
    except (checks.CheckFailed, OSError) as exc:
        run.error = f"check failed: {exc}"
    return run


def timed_runs(
    workload: Workload, env: dict, seed: int, seconds: float, out_dir: Path, min_runs: int = MIN_RUNS
) -> list[Run]:
    """Closed loop: one CLI process at a time, seeds seed, seed+1, ..., for about `seconds`."""
    runs: list[Run] = []
    csv = out_dir / f"{workload.name}.csv"
    start = time.perf_counter()
    while len(runs) < min_runs or (
        time.perf_counter() - start + statistics.median(r.proc.wall_s for r in runs) <= seconds
    ):
        if time.perf_counter() - start > LOOP_DEADLINE_S:
            break
        csv.unlink(missing_ok=True)
        k = len(runs)
        run = Run(f"seed {seed + k}")
        run.proc = run_process(cli_argv(workload.config, seed + k, csv), env, out_dir / "cli")
        runs.append(check_run(run, workload, csv))
    return runs


def traced_runs(workload: Workload, env: dict, seed: int, seconds: float, out_dir: Path) -> tuple[list[Run], dict]:
    """Per-layer metrics from one traced process, and the checked outputs of its calls."""
    trace_dir = out_dir / f"trace-{workload.name}"
    argv = [sys.executable, str(BENCH / "tracer.py"), str(workload.config), "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--out-dir", str(trace_dir)]
    proc = run_process(argv, env, out_dir / "tracer", timeout=120.0)
    if proc.status != 0:
        return [Run("traced process", proc, f"exit {proc.status}: {proc.stderr.strip()[-500:]}")], {}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    runs = []
    for pair in result["pairs"]:
        run = check_run(Run(f"traced seed {pair['seed']}"), workload, Path(pair["traced"]))
        if run.error is None and Path(pair["traced"]).read_bytes() != Path(pair["untraced"]).read_bytes():
            run.error = "traced and untraced calls wrote different CSVs"
        runs.append(run)
    if any(result["statuses"]):
        runs.append(Run("in-process calls", error=f"cli.main returned {result['statuses']}"))
    for name in result["missing"]:
        print(f"note: {name} no longer exists; its metrics read 0")
    return runs, result["metrics"]


def summary(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)


def bench_workload(name: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> Result:
    workload = load_workload(name, BENCH / "workloads" / f"{name}.ini")
    env, removed = child_env()
    info = probe(env, removed, out_dir)
    runs = []
    if name in REPLAYS:
        runs.append(replay_baseline(REPLAYS[name], info["replays"][REPLAYS[name]], env, out_dir))
    record = {"workload": name, "why": WORKLOADS[name], "seed": seed, "seconds": seconds, "trace": trace}
    record["env"] = {k: v for k, v in info.items() if k != "replays"}

    if trace:
        traced, layer_metrics = traced_runs(workload, env, seed, seconds, out_dir)
        runs += traced
        units = tracer.metric_units()
        metrics = {k: {"value": layer_metrics.get(k, 0.0), "unit": unit} for k, unit in units.items()}
        stats = {}
    else:
        setup = measure_setup(env, out_dir)
        timed = timed_runs(workload, env, seed, seconds, out_dir)
        runs += timed
        procs = [r.proc for r in timed]
        stats = {
            "run_s": summary([p.wall_s for p in procs]),
            "setup_s": summary(setup),
            "cpu_s": summary([p.cpu_s for p in procs]),
            "peak_rss_mb": summary([p.rss_mb for p in procs]),
        }
        metrics = {k: {"value": stats[k]["median"], "unit": unit} for k, unit in END_TO_END.items()}
        deltas = [r.oracle_delta for r in timed if r.oracle_delta is not None]
        if workload.kind == "oracle-compare" and deltas:
            stats["oracle_max_delta"] = summary(deltas)

    failed = [r for r in runs if r.error is not None]
    last_ok = [r for r in runs if r.error is None and r.csv_rows]
    inputs = dict(workload.size)
    if last_ok:
        inputs.update(csv_rows=last_ok[-1].csv_rows, csv_bytes=last_ok[-1].csv_bytes)
    record.update(
        inputs=inputs,
        metrics=metrics,
        stats=stats,
        runs=[
            {"label": r.label, "error": r.error, "oracle_delta": r.oracle_delta, "baseline_dev": r.baseline_dev}
            | ({"wall_s": r.proc.wall_s, "cpu_s": r.proc.cpu_s, "rss_mb": r.proc.rss_mb} if r.proc else {})
            for r in runs
        ],
    )
    (out_dir / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    report(record, runs, failed)
    return Result(attempted=len(runs), failed=len(failed), metrics=metrics)


def report(record: dict, runs: list[Run], failed: list[Run]) -> None:
    env = record["env"]
    blas = env["blas"]
    print(f"== {record['workload']}: {record['why']}")
    print(
        f"env: nproc {env['nproc']} (affinity {env['affinity']}), Python {env['python']}, "
        f"numpy {env['numpy']}, scipy {env['scipy']}, BLAS {blas.get('name')} {blas.get('version')} "
        f"[{blas.get('openblas configuration')}], thread vars removed {env['thread_vars_removed'] or 'none'}, "
        f"commit {env['commit']}, src sha256 {env['src_sha256']}"
    )
    print("inputs: " + ", ".join(f"{k} {v}" for k, v in record["inputs"].items()))
    for r in runs:
        if r.label.startswith("replay"):
            print(f"check: {r.label}: " + (r.error or f"max deviation {r.baseline_dev:.3e}"))
    if record["trace"]:
        layers = {k: v["value"] for k, v in record["metrics"].items()}
        print(f"trace: {layers['trace.calls']:.0f} traced calls, overhead {layers['trace.overhead_s']:.4f} s "
              f"({100 * layers['trace.overhead_frac']:.1f}%)")
        print("layer self time per call: " + ", ".join(f"{m} {layers[m + '.self_s']:.4f} s" for m in tracer.TARGETS))
        busiest = sorted((k for k in layers if k.endswith(".self_s") and k.count(".") > 1), key=lambda k: -layers[k])
        for k in busiest[:8]:
            name = k[: -len(".self_s")]
            print(f"  {name:40s} self {layers[k]:.4f} s  busy {layers[name + '.s']:.4f} s  "
                  f"calls {layers[name + '.calls']:.0f}")
    else:
        for name, s in record["stats"].items():
            unit = END_TO_END.get(name, "1")
            print(f"{name:17s} {s['median']:.6g} {unit}  (q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']})")
    print(f"failed_frac       {len(failed) / len(runs):.6g} ratio  ({len(failed)} failed of {len(runs)} attempted)")
    for r in failed:
        print(f"FAILED {r.label}: {r.error}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Closed-loop benchmark of the qbm-structures CLI.")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    OUT.mkdir(exist_ok=True)
    total = Result()
    try:
        for name in names:
            res = bench_workload(name, args.seed, args.seconds, bool(args.trace), OUT)
            total.attempted += res.attempted
            total.failed += res.failed
            prefix = f"{name}." if args.workload == "all" else ""
            total.metrics.update({prefix + k: v for k, v in res.metrics.items()})
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    correct = total.failed == 0
    print(json.dumps({"correct": correct, "attempted": total.attempted, "failed": total.failed, "metrics": total.metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
