"""tools/output_manifest.py runs its commands and prints a manifest that
parses: two commands of its list, run through the script, give one digest
per output, and those of the files match the files the CLI writes here.
The committed `OUTPUTS.sha256` parses and covers the script's command list;
its digests depend on the CPU and the BLAS build, so none is compared."""

import hashlib
import importlib.util
import subprocess
import sys
from pathlib import Path

from cosetkernel import cli

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "output_manifest.py"


def _is_digest(value):
    return len(value) == 64 and set(value) <= set("0123456789abcdef")


def test_two_commands_give_a_manifest_that_parses(tmp_path, capsys):
    result = subprocess.run(
        [sys.executable, str(SCRIPT), "--only", "theory_small",
         "heatmap_train"], capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    header = [line for line in lines if line.startswith("#")]
    assert [line.split()[1] for line in header] == ["python", "blas", "cpu"]
    entries = {}
    for line in lines[len(header):]:
        name, output, value = line.split(" ")
        assert (name, output) not in entries
        entries[name, output] = value
    assert set(entries) == {
        ("theory_small", "exit"), ("theory_small", "stdout"),
        ("theory_small", "stderr"), ("heatmap_train", "exit"),
        ("heatmap_train", "stdout"), ("heatmap_train", "stderr"),
        ("heatmap_train", "file:t.csv"), ("heatmap_train", "file:t.json")}
    assert entries["theory_small", "exit"] == "0"
    assert entries["heatmap_train", "exit"] == "0"
    digests = [v for (_, output), v in entries.items() if output != "exit"]
    assert all(_is_digest(v) for v in digests)
    # the same command in process writes files of the listed digests
    out, heat = tmp_path / "t.json", tmp_path / "t.csv"
    assert cli.main(["simulate", "--qubits", "3..5", "--cosets", "3,2",
                     "--trials", "4", "--seed", "1", "--noise", "selection",
                     "--epsilon", "0.2", "--out", str(out),
                     "--heatmap", str(heat)]) == 0
    capsys.readouterr()
    for path in (out, heat):
        assert (entries["heatmap_train", f"file:{path.name}"]
                == hashlib.sha256(path.read_bytes()).hexdigest())


def test_committed_manifest_covers_every_command():
    spec = importlib.util.spec_from_file_location("output_manifest", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    lines = (ROOT / "OUTPUTS.sha256").read_text().splitlines()
    assert [line.split()[1] for line in lines[:3]] == ["python", "blas", "cpu"]
    assert all(line.startswith("# ") for line in lines[:3])
    outputs = {}
    for line in lines[3:]:
        name, output, value = line.split(" ")
        assert output not in outputs.setdefault(name, {}), line
        outputs[name][output] = value
        if output == "exit":
            assert value.isdigit(), line
        else:
            assert output in ("stdout", "stderr") or output.startswith(
                "file:"), line
            assert _is_digest(value), line
    names = [name for name, _, _ in script.COMMANDS]
    assert list(outputs) == names
    assert all({"exit", "stdout", "stderr"} <= set(outputs[name])
               for name in names)
