"""The CI workflow file is valid YAML and every step in it runs something.

An unquoted `: ` inside a step name makes the whole file invalid YAML, and
then CI does not run at all, which no other test notices."""

from pathlib import Path

import yaml

WORKFLOW = (Path(__file__).resolve().parent.parent
            / ".github" / "workflows" / "tier1.yml")


def test_workflow_parses_and_every_step_is_named_and_runs():
    workflow = yaml.safe_load(WORKFLOW.read_text())
    assert workflow["jobs"]
    for job in workflow["jobs"].values():
        assert job["steps"]
        for step in job["steps"]:
            assert isinstance(step.get("name"), str) and step["name"], step
            # a step runs a command or uses an action, never both
            assert ("run" in step) != ("uses" in step), step["name"]
