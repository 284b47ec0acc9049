"""The BENCH record writer: merge semantics and the fields every record carries."""

import json
import os

import artifacts
from artifacts import ARTIFACT_DIR_ENV, src_lines, write_bench_artifact


def test_record_carries_src_lines_and_cpu_count(tmp_path, monkeypatch):
    monkeypatch.setenv(ARTIFACT_DIR_ENV, str(tmp_path))
    write_bench_artifact("probe", {"a": 1})
    with open(write_bench_artifact("probe", {"b": 2})) as fh:
        record = json.load(fh)
    assert (record["a"], record["b"]) == (1, 2)  # sections merge
    assert record["src_lines"] == src_lines() > 0
    assert record["cpu_count"] == os.cpu_count()


def test_src_lines_counts_python_lines_like_wc(tmp_path, monkeypatch):
    monkeypatch.setattr(artifacts, "SRC_DIR", tmp_path)
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "b.py").write_text("z = 3")  # no final newline: wc -l says 0
    (tmp_path / "notes.txt").write_text("not python\n")
    assert src_lines() == 2
