"""Tests for the CLI experiment runner."""

import pytest

from repro.analysis.cli import FIGURES, main


class TestCli:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "available figures" in out

    def test_unknown_figure(self, capsys):
        assert main(["--figures", "99"]) == 2

    def test_single_figure_runs(self, capsys):
        assert main(["--figures", "4"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 4" in out

    def test_every_figure_has_a_driver(self):
        for fig, fn in FIGURES.items():
            assert callable(fn), fig

    def test_zero_workers_rejected(self, capsys):
        assert main(["--figures", "4", "--workers", "0"]) == 2

    # Fig. 4 renders ~10x slower than Fig. 9, so "4 9" also catches a
    # pool that prints figures in completion order.
    @pytest.mark.parametrize("figures", [("9", "4"), ("4", "9")])
    def test_worker_pool_prints_serial_output_in_request_order(self, capsys, figures):
        assert main(["--figures", *figures, "--workers", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(["--figures", *figures, "--workers", "2"]) == 0
        pooled = capsys.readouterr().out
        assert pooled == serial
        first, second = (f"Fig. {fig}:" for fig in figures)
        assert serial.index(first) < serial.index(second)


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--requests", "0"),
        ("--clouds", "0"),
        ("--cloud-size", "0"),
        ("--queries", "0"),
        ("--max-batch", "0"),
        ("--window-ms", "-1"),
        ("--max-pending", "0"),
        ("--seed", "-1"),
    ],
)
def test_serve_rejects_bad_argument(capsys, flag, value):
    # Exit 1 means "results not identical"; a bad argument is a usage
    # error (2) reported in one line, never an escaped exception.
    assert main(["serve", flag, value]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and flag in err[0]


def test_serve_replays_through_both_tiers(capsys):
    argv = ["serve", "--requests", "12", "--clouds", "2", "--cloud-size", "128",
            "--queries", "8", "--workers", "1"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "serve: 12 requests over 2 clouds (8 queries each)" in out
    assert "serve --workers 1: sharded multi-process tier" in out
    assert out.count("results identical") == 2
    assert "False" not in out
