"""The CI workflow runs the Tier-1 command that ROADMAP.md names, verbatim,
after checking the mixed-state pod negativities against their 50-digit
reference and certifying the Fock oracle on the oracle-compare workload."""

import re
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
CERTIFY = (
    "PYTHONPATH=src python -m qbm_structures.cli perfbench/workloads/oracle-compare.ini"
    " --set oracle.certify=true --output /tmp/oc.csv"
)
REFERENCE = "PYTHONPATH=src python tests/reference_pod_negativity.py --check"


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
    for package in ("numpy", "scipy", "pytest", "hypothesis", "mpmath", "pyyaml"):
        assert package in commands[0].split()
