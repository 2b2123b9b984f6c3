"""Fast tests of the benchmark's own machinery, at tiny sizes."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

TINY_POD = """\
[scenario]
kind = pod

[model]
potential = harmonic
omega = 1.0
n_bath = 2

[initial]
x = 1.0
temperature = 1.0
purified = true

[times]
t_max = 2.0
n_points = 5
"""


@pytest.fixture(scope="module")
def env():
    return run.child_env()[0]


def _package_namespaces():
    return {
        name: dict(vars(module))
        for name, module in sys.modules.items()
        if name == tracer.PACKAGE or name.startswith(tracer.PACKAGE + ".")
    }


def test_tracer_restores_every_wrapped_function(tmp_path):
    from qbm_structures import cli, experiments, gaussian
    from qbm_structures.fock_oracle import DenseEvolver
    from qbm_structures.gaussian import GaussianState

    config = tmp_path / "tiny.ini"
    config.write_text(TINY_POD)
    methods = (GaussianState.__post_init__, DenseEvolver.__init__, DenseEvolver.propagate)
    before = _package_namespaces()

    t = tracer.Tracer()
    with t:
        assert experiments.evolve is not before["qbm_structures.gaussian"]["evolve"]
        assert gaussian.evolve is experiments.evolve
        with t.span(tracer.ROOT_SPAN):
            status = cli.main([str(config), "--output", str(tmp_path / "out.csv")])
    assert status == 0
    assert t.missing == []

    after = _package_namespaces()
    assert after.keys() == before.keys()
    for name, namespace in before.items():
        assert after[name].keys() == namespace.keys()
        assert all(after[name][k] is v for k, v in namespace.items()), name
    assert (GaussianState.__post_init__, DenseEvolver.__init__, DenseEvolver.propagate) == methods

    totals = t.totals()
    assert totals["experiments.run_pod.calls"] == 1
    assert totals["gaussian.propagator.calls"] == 5
    assert t.samples == 5
    assert "fock_oracle.build_fock_hamiltonian.calls" not in totals
    # spans opened on pool threads hang under the call that waited for them
    for name, _, _, parent, _ in t.spans:
        if name == "gaussian.propagator":
            while parent is not None and parent[0] != "experiments.run_pod":
                parent = parent[3]
            assert parent is not None


def test_config_that_exits_1_counts_as_failed(tmp_path, env):
    config = tmp_path / "bad.ini"
    config.write_text(TINY_POD + "bogus = 1\n")
    workload = run.load_workload("bad", config)
    runs = run.timed_runs(workload, env, seed=0, seconds=0, out_dir=tmp_path, min_runs=1)
    assert len(runs) == 1
    assert runs[0].proc.status == 1
    assert runs[0].error.startswith("exit 1")


def test_perturbed_negativity_fails_pure_state_check(tmp_path, env):
    config = tmp_path / "tiny.ini"
    config.write_text(TINY_POD)
    workload = run.load_workload("tiny", config)
    (good,) = run.timed_runs(workload, env, seed=3, seconds=0, out_dir=tmp_path, min_runs=1)
    assert good.error is None

    csv = tmp_path / "tiny.csv"
    lines = csv.read_text().splitlines()
    col = lines[1].split(",").index("neg_SpEp")
    row = lines[4].split(",")
    row[col] = repr(float(row[col]) + 1e-6)
    lines[4] = ",".join(row)
    csv.write_text("\n".join(lines) + "\n")
    with pytest.raises(checks.CheckFailed, match="pure-state identity"):
        checks.check_output("pod", csv, workload.t_max, workload.n_points)


def test_benchmark_json_lists_what_run_py_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == run.WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.metric_units()
