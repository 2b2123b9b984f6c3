"""The CI workflow runs the Tier-1 command that ROADMAP.md names, verbatim,
after comparing a pull request's outputs with its base commit's, running the
benchmark's output checks on every workload, checking the mixed-state pod
negativities against their 50-digit reference and certifying the Fock oracle
on the oracle-compare workload."""

import re
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
CERTIFY = (
    "PYTHONPATH=src python -m qbm_structures.cli perfbench/workloads/oracle-compare.ini"
    " --set oracle.certify=true --output /tmp/oc.csv"
)
REFERENCE = "PYTHONPATH=src python tests/reference_pod_negativity.py --check"
BENCHMARK = "python3 perfbench/run.py --workload all --seed 0 --seconds 1"
COMPARE = (
    "git archive --prefix=base/ ${{ github.event.pull_request.base.sha }} | tar -x -C /tmp"
    " && python tests/compare_outputs.py /tmp/base"
)


def test_tier1_workflow_runs_the_roadmap_command():
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8"))
    triggers = workflow.get("on", workflow.get(True))  # YAML 1.1 reads a bare `on` key as True
    assert set(triggers) == {"push", "pull_request"}
    (job,) = workflow["jobs"].values()
    assert 0 < job["timeout-minutes"] <= 30
    python = [s["with"]["python-version"] for s in job["steps"] if "setup-python" in s.get("uses", "")]
    assert python == ["3.11"]
    commands = [s["run"] for s in job["steps"] if "run" in s]
    roadmap = (ROOT / "ROADMAP.md").read_text(encoding="utf-8")
    (tier1,) = re.findall(r"\*\*Tier-1 verify:\*\* `([^`]+)`", roadmap)
    assert commands[-1] == tier1
    assert commands[-2] == CERTIFY  # certification at the default bump, on the unchanged workload config
    assert commands[-3] == REFERENCE  # the standing 50-digit gate, before certification
    assert commands[-4] == BENCHMARK  # baseline replays and output checks of every workload, unchanged harness
    for package in ("numpy", "scipy", "pytest", "hypothesis", "mpmath", "pyyaml"):
        assert package in commands[0].split()
    # on a pull request, every workload's output against its base commit's, after install and before the benchmark
    assert commands[1] == COMPARE
    (compare,) = [s for s in job["steps"] if s.get("run") == COMPARE]
    assert compare["if"] == "github.event_name == 'pull_request'"
    (checkout,) = [s for s in job["steps"] if s.get("uses", "").startswith("actions/checkout")]
    assert checkout["with"]["fetch-depth"] == 0  # the base commit is in the clone
