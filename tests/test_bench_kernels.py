"""Smoke test of the kernel micro-benchmark: ``--quick`` runs every row."""

import re
import runpy
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_kernels.py"

ROWS = [
    "within_hub_runs (dwell 1)",
    "within_hub_runs (dwell 3)",
    "within_hub_runs (dwell 3, stop)",
    "within_hub_runs (dwell 3, gateway rows)",
    "merge_runs (capped at the run count)",
    "fifo_match_units",
    "fifo_match_units (dwell 3, engine steps)",
    "fifo_match_units (dwell 3, resumed)",
    "fifo_match_units (dwell 3, capacity-free tail)",
    "keepable_rows (dwell 3, engine steps, spans built)",
    "fifo_replay",
    "pool assign + simulate_hires (130 pooled)",
    "book 384 roster entries: Shift + assign + RosterEntry, then roster_tables",
]


def test_bench_kernels_quick_prints_every_row(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--quick"])
    runpy.run_path(str(SCRIPT), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    parsed = [re.fullmatch(r"(.+?)\s+(\d+\.\d{4})s", line) for line in lines]
    assert all(parsed), lines
    assert [m.group(1) for m in parsed] == ROWS
