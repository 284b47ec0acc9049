"""Smoke tests: every example script runs end to end.

Examples are executed in-process with reduced workloads where they expose
``main()``; the goal is that a user following the README never hits a
broken script.
"""

import runpy
import sys
from pathlib import Path

import pytest

from repro.nn import reset_tape, tape_length

EXAMPLES = Path(__file__).parent.parent / "examples"


def _run(name):
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")


def test_quickstart_runs(capsys):
    _run("quickstart.py")
    out = capsys.readouterr().out
    assert "approximate search" in out
    assert "cycles" in out


@pytest.mark.slow
def test_accelerator_comparison_runs(capsys):
    _run("accelerator_comparison.py")
    out = capsys.readouterr().out
    assert "geomean ANS+BCE speedup" in out


@pytest.mark.slow
def test_lidar_detection_runs(capsys):
    reset_tape()
    _run("lidar_detection.py")
    out = capsys.readouterr().out
    assert "BEV IoU" in out
    # Every recorded graph was backpropagated; inference recorded none.
    assert tape_length() == 0


@pytest.mark.slow
def test_classification_tradeoff_runs(capsys):
    _run("classification_tradeoff.py")
    out = capsys.readouterr().out
    assert "speedup" in out
