"""tools/bench_record.py's summary of alternating base/head pairs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

BASE = [100.0, 101.0, 102.0, 103.0, 104.0, 100.0, 101.0, 102.0, 103.0, 104.0]  # IQR 2.0


def summary(base, head, metric="items_per_s"):
    rest = {m: 1.0 for m in bench_record.METRICS if m != metric}
    pairs = [{"base": {**rest, metric: x}, "head": {**rest, metric: y}} for x, y in zip(base, head)]
    return bench_record.summarize(pairs)[metric]


def test_clear_gain_is_shown():
    s = summary(BASE, [x + 10.0 for x in BASE])
    assert s["head_wins"] == 10 and s["gain_shown"] and s["change_exceeds_base_iqr"]


def test_regression_beyond_the_iqr_is_no_gain():
    s = summary(BASE, [x - 10.0 for x in BASE])
    assert s["change_exceeds_base_iqr"] and not s["gain_shown"]


def test_lower_is_better_metrics_gain_by_falling():
    s = summary(BASE, [x - 10.0 for x in BASE], metric="setup_s")
    assert s["head_wins"] == 10 and s["gain_shown"]


@pytest.mark.parametrize(
    "head, wins",
    [
        ([x + 10.0 for x in BASE[:8]] + BASE[8:], 8),  # two ties: 8 wins of 10
        ([x + 1.0 for x in BASE], 10),  # every pair won, median within the IQR
    ],
)
def test_gain_needs_nine_wins_and_a_move_past_the_iqr(head, wins):
    s = summary(BASE, head)
    assert s["head_wins"] == wins and not s["gain_shown"]


def test_source_lines_count_the_package_modules(tmp_path):
    package = tmp_path / "src" / "dimkit"
    (package / "data").mkdir(parents=True)
    (package / "a.py").write_text("import b\n\nX = 1\n")
    (package / "b.py").write_text("Y = 2\nZ = 3")  # no final newline: wc -l counts 1
    (package / "data" / "c.py").write_text("not a module\n")
    (package / "notes.txt").write_text("not python\n")
    assert bench_record.source_lines(tmp_path) == 4


def test_floor_convert_is_the_command_setup_s_times(tmp_path):
    """perfbench's setup_s runs ``python -m dimkit.cli --kb <KB> convert 1
    meter centimeter``; the floor times that same command."""
    kb = tmp_path / "src" / "dimkit" / "data" / "units.tsv"
    assert bench_record.floor_command("convert", tmp_path)[1:] == [
        "-m", "dimkit.cli", "--kb", str(kb), "convert", "1", "meter", "centimeter"]
    in_process = bench_record.floor_command("convert_main_vmhwm", tmp_path)
    assert in_process[1] == "-c" and in_process[2].endswith(bench_record.PRINT_VMHWM)


def test_floor_reports_time_and_peak_rss_where_each_is_measured(monkeypatch):
    monkeypatch.setattr(bench_record, "FLOOR_REPEATS", 1)
    floor = bench_record.process_floor({"head": bench_record.ROOT})["head"]
    assert all(f["samples"] == 1 for f in floor.values())
    assert floor["convert"]["median_s"] > 0 and floor["convert"]["vmhwm_mb"] is None
    assert floor["convert_main_vmhwm"]["median_s"] is None
    assert floor["convert_main_vmhwm"]["vmhwm_mb"] > 0
    assert floor["bare_interpreter"]["median_s"] > 0 and floor["bare_interpreter"]["vmhwm_mb"] > 0
