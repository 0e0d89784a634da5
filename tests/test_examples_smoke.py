"""Smoke tests: every example script runs to completion.

Examples are documentation that executes; these tests keep them honest.
The slower closed-loop example runs in-process at a reduced horizon.
"""

import importlib.util
import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def _run(script: str, timeout: int = 240) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, (
        f"{script} failed:\n{result.stdout}\n{result.stderr}"
    )
    return result.stdout


@pytest.mark.parametrize(
    "script,expected",
    [
        ("quickstart.py", "Recovered in"),
        ("chemical_plant.py", "Reactor stayed safe"),
        ("partition_recovery.py", "each partition keeps serving"),
        ("stream_processing.py", "revision records applied"),
    ],
)
def test_example_runs(script, expected):
    output = _run(script)
    assert expected in output


def test_cruise_control_example_runs(monkeypatch, capsys, figure_result):
    # The example simulates 3 s x 3 scenarios; run its main() in-process
    # on the tiny-scale results the Fig. 10 tests share.
    spec = importlib.util.spec_from_file_location(
        "cruise_control_attack", EXAMPLES / "cruise_control_attack.py"
    )
    example = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(example)
    monkeypatch.setattr(example, "run_all", lambda duration_s: figure_result("fig10"))
    example.main()
    output = capsys.readouterr().out
    assert "unnoticeable to the driver" in output or "excursion" in output
