"""The CI workflow runs the Tier-1 command that ROADMAP.md names, verbatim."""

import re
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent


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
    for package in ("numpy", "scipy", "pytest", "hypothesis", "mpmath", "pyyaml"):
        assert package in commands[0].split()
