"""End-to-end command-line harness tests."""

import errno
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hubroster import cli
from hubroster.cli import main
from hubroster.config import DEFAULT_CONFIG, config_hash, file_header

TINY = {
    "seed": 7,
    "network": {"hubs": 4, "gateways": 1, "area_km": 4.0, "move_radius_m": 3000.0, "walk_speed_m_per_h": 15000.0},
    "arrivals": {"daily_volume": 30000, "gateway_weight": 6.0, "hub_jitter": 0.2, "cell_jitter": 0.25, "local_peak_h": 12, "gateway_peak_h": 2},
}

# the functions through which ``run`` writes its outputs
WRITERS = (
    "write_ledger_json",
    "write_ledger_csv",
    "write_roster_csv",
    "write_series_csv",
    "write_flows_csv",
    "write_forecast_csv",
)


def _write_cfg(tmp_path, extra=None):
    cfg = json.loads(json.dumps(TINY))
    if extra:
        cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_generate_creates_instance(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "run"
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "network.json").exists()
    assert (out / "arrivals.csv").exists()
    assert "generated 4 hubs" in capsys.readouterr().out
    first = (out / "arrivals.csv").read_bytes()
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "arrivals.csv").read_bytes() == first  # idempotent rerun


def test_generate_rejects_bad_volume(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {"arrivals": {**TINY["arrivals"], "daily_volume": -5}})
    assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    assert "error" in capsys.readouterr().err


def test_run_requires_generated_instance(tmp_path, capsys):
    assert main(["run", "--out", str(tmp_path / "nothing")]) == 1
    assert "generate" in capsys.readouterr().err


def test_run_single_scenario_moving_zero(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "run"
    main(["generate", "--config", str(cfg), "--out", str(out)])
    assert main(["run", "--out", str(out), "--scenario", "2"]) == 0
    ledger = json.loads((out / "ledger_s2.json").read_text())
    assert ledger["moving"] == 0
    assert (out / "roster_s2.csv").exists()
    assert (out / "series_s2.csv").exists()
    assert (out / "flows_s2.csv").exists()


def test_run_perfect_noise_zero_lateness_all_scenarios(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "run"
    main(["generate", "--config", str(cfg), "--out", str(out)])
    assert main(["run", "--out", str(out), "--scenario", "all", "--noise", "perfect"]) == 0
    for k in (1, 2, 3):
        assert json.loads((out / f"ledger_s{k}.json").read_text())["lateness"] == 0


def test_run_outputs_are_reproducible(tmp_path):
    cfg = _write_cfg(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        main(["generate", "--config", str(cfg), "--out", str(out)])
        main(["run", "--out", str(out), "--scenario", "all"])
    for name in ("ledger_s1.json", "roster_s1.csv", "ledger_s3.json", "roster_s3.csv", "series_s2.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_headers_carry_seed_and_config_hash(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "run"
    main(["generate", "--config", str(cfg), "--out", str(out)])
    main(["run", "--out", str(out), "--scenario", "1"])
    for name in ("arrivals.csv", "roster_s1.csv", "series_s1.csv", "flows_s1.csv"):
        head = (out / name).read_text().splitlines()[0]
        assert head.startswith("# seed=7 config=")


def test_compare_identical_ledgers_zero_delta(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "run"
    main(["generate", "--config", str(cfg), "--out", str(out)])
    main(["run", "--out", str(out), "--scenario", "2"])
    capsys.readouterr()
    code = main(["compare", str(out / "ledger_s2.json"), str(out / "ledger_s2.json")])
    assert code == 0
    table = capsys.readouterr().out
    deltas = table.strip().splitlines()[-1].split()
    assert deltas[0] == "delta" and all(v == "0" for v in deltas[1:])


def test_compare_reports_documented_scenario_gap(tmp_path, capsys):
    # the rolling-vs-day-start example gap: 713145 - 660670 = 52475
    a = {"hiring": 274400, "hourly": 343180, "waiting": 13080, "moving": 10380,
         "lateness": 0, "emergency": 19630, "total": 660670}
    c = {"hiring": 160450, "hourly": 330540, "waiting": 9650, "moving": 5710,
         "lateness": 199240, "emergency": 7555, "total": 713145}
    pa, pc = tmp_path / "a.json", tmp_path / "c.json"
    pa.write_text(json.dumps(a))
    pc.write_text(json.dumps(c))
    assert main(["compare", str(pa), str(pc)]) == 0
    out = capsys.readouterr().out
    assert out.strip().splitlines()[-1].split()[-1] == "52475"


def test_compare_usage_and_schema_errors(tmp_path, capsys):
    only = tmp_path / "one.json"
    only.write_text("{}")
    assert main(["compare", str(only)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"hiring": 3}')
    assert main(["compare", str(only), str(bad)]) == 1


LEDGER = {"hiring": 50, "hourly": 160, "waiting": 0, "moving": 0, "lateness": 5, "emergency": 0, "total": 215}


def test_compare_names_a_ledger_file_it_cannot_read(tmp_path, capsys):
    # a directory ended in an IsADirectoryError traceback, and a file that
    # is not JSON printed the decoder's message without the file's name
    good = tmp_path / "good.json"
    good.write_text(json.dumps(LEDGER))
    (tmp_path / "a_dir").mkdir()
    (tmp_path / "text.json").write_text("not json\n")
    (tmp_path / "bytes.json").write_bytes(b"\xff\xfe")
    # an integer past Python's digit limit for int() used to be printed
    # without the file
    (tmp_path / "digits.json").write_text('{"hiring": ' + "9" * 5000 + "}")
    for name, message in (
        ("a_dir", "cannot read ledger (Is a directory)"),
        ("missing.json", "cannot read ledger (No such file or directory)"),
        ("text.json", "ledger is not valid JSON (Expecting value: line 1 column 1 (char 0))"),
        ("bytes.json", "ledger is not UTF-8 text ('utf-8' codec can't decode byte 0xff in position 0"),
        ("digits.json", "ledger is not valid JSON ("),
    ):
        bad = tmp_path / name
        assert main(["compare", str(good), str(bad)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {bad}: {message}")


def test_run_names_an_output_it_cannot_write(tmp_path, capsys):
    # an output path that is a directory ended in an IsADirectoryError traceback
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "run"
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    (out / "ledger_s1.json").mkdir()
    assert main(["run", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {out / 'ledger_s1.json'}: cannot write (Is a directory)\n"


def test_generate_names_an_output_directory_it_cannot_make(tmp_path, capsys):
    # an output directory that is a file ended in a FileExistsError traceback
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "run"
    out.write_text("")
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {out}: cannot write (File exists)\n"


def _files(out):
    """Every entry of ``out``: a file's bytes, None for a directory."""
    return {p.name: p.read_bytes() if p.is_file() else None for p in out.iterdir()}


def test_a_failed_run_leaves_the_outputs_as_they_were(tmp_path, capsys, monkeypatch):
    # a perfect-noise run over a paper-noise run's outputs that fails at any
    # output, for a directory in its way or a writer that raises, names that
    # output, changes no file and leaves no temporary directory; it used to
    # leave the files written before the failure beside the older run's
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "run"
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["run", "--out", str(out), "--debug-forecasts"]) == 0
    capsys.readouterr()
    rerun = ["run", "--out", str(out), "--noise", "perfect", "--debug-forecasts"]
    before = _files(out)
    for name in sorted(set(before) - {"network.json", "arrivals.csv", "config.json"}):
        (out / name).unlink()
        (out / name).mkdir()
        in_the_way = _files(out)
        assert main(rerun) == 1, name
        assert capsys.readouterr() == ("", f"error: {out / name}: cannot write (Is a directory)\n")
        assert _files(out) == in_the_way, name
        (out / name).rmdir()
        (out / name).write_bytes(before[name])

    calls = []

    def failing(real, k):
        def writer(path, *args):
            calls.append(Path(path).name)
            if len(calls) == k:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))
            return real(path, *args)

        return writer

    # five files per scenario, and one forecast dump for scenarios 1 and 3
    # (scenario 2 copies the first)
    for k in range(1, 18):
        calls.clear()
        with monkeypatch.context() as m:
            for name in WRITERS:
                m.setattr(cli, name, failing(getattr(cli, name), k))
            assert main(rerun) == 1, k
        assert len(calls) == k
        assert capsys.readouterr() == ("", f"error: {out / calls[-1]}: cannot write ({os.strerror(errno.ENOSPC)})\n")
        assert _files(out) == before, calls[-1]


def test_compare_prints_one_column_per_file_when_stems_collide(tmp_path, capsys):
    # two runs' ledger_s1.json share a stem: each keeps its column, labelled
    # with the path as given, while a file with a stem of its own keeps it
    paths = []
    for name, hiring in (("a", 50), ("b", 100)):
        (tmp_path / name).mkdir()
        path = tmp_path / name / "ledger_s1.json"
        path.write_text(json.dumps({**LEDGER, "hiring": hiring, "total": 165 + hiring}))
        paths.append(str(path))
    other = tmp_path / "ledger_s3.json"
    other.write_text(json.dumps(LEDGER))
    assert main(["compare", *paths, str(other)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split()[2:] == [*paths, "ledger_s3"]
    assert lines[1].split() == ["hiring", "50", "100", "50"]
    assert lines[-1].split() == ["delta", "0", "50", "0"]


def test_compare_rejects_a_ledger_of_the_wrong_shape(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(LEDGER))
    for text, message in (
        ("5", "ledger must be a JSON object"),
        ("[1]", "ledger must be a JSON object"),
        (json.dumps({**LEDGER, "hiring": "x"}), "key 'hiring' must be a number, got \"x\""),
        (json.dumps({**LEDGER, "total": True}), "key 'total' must be a number, got true"),
        (json.dumps({**LEDGER, "moving": None}), "key 'moving' must be a number, got null"),
        (json.dumps({**LEDGER, "hourly": math.nan}), "key 'hourly' must be finite, got NaN"),
        (json.dumps({**LEDGER, "total": -math.inf}), "key 'total' must be finite, got -Infinity"),
        # past float's range: printing the table used to end in an OverflowError
        (json.dumps({**LEDGER, "total": 10**400}), f"key 'total' must be finite, got {10**400}"),
    ):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["compare", str(good), str(bad)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {bad}: ") and message in err[0]


def test_debug_dumps(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "run"
    main(["generate", "--config", str(cfg), "--out", str(out)])
    assert main(["run", "--out", str(out), "--scenario", "2", "--debug-forecasts"]) == 0
    forecasts = (out / "forecasts_s2.csv").read_text().splitlines()
    assert forecasts[1] == "made_at_h,hub_id,slot_h,arrivals"
    # scenarios 1 and 2 plan with one plan, so they dump the same forecasts
    assert main(["run", "--out", str(out), "--scenario", "all", "--debug-forecasts"]) == 0
    assert (out / "forecasts_s1.csv").read_bytes() == (out / "forecasts_s2.csv").read_bytes()
    assert (out / "forecasts_s1.csv").read_bytes() != (out / "forecasts_s3.csv").read_bytes()
    # a worker's pool state is read from roster_s*.csv; there is no worker dump
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["run", "--out", str(out), "--scenario", "2", "--debug-workers"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --debug-workers" in capsys.readouterr().err
    assert not (out / "workers_s2.csv").exists()


def test_run_reads_the_instance_config_and_takes_no_other(tmp_path, capsys):
    # ``run`` has no --config: it reads the instance's config.json, so a
    # second config beside it would be ignored
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "run"
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
    other = tmp_path / "c.json"
    other.write_text(json.dumps({"params": {"dwell_h": 3}}))
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(other), "--out", str(out), "--scenario", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --config" in capsys.readouterr().err
    assert not (out / "ledger_s1.json").exists()
    # without the instance's config.json, ``run`` reads the defaults
    (out / "config.json").unlink()
    assert main(["run", "--out", str(out), "--scenario", "1"]) == 0
    header = file_header(DEFAULT_CONFIG["seed"], config_hash(DEFAULT_CONFIG))
    assert (out / "ledger_s1.csv").read_text().startswith(header)


def _run_error(tmp_path, capsys, edit):
    """Generate the tiny instance, apply ``edit(out)``, and return the error
    line of the failing ``run``."""
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "run"
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
    edit(out)
    capsys.readouterr()
    assert main(["run", "--out", str(out), "--scenario", "1"]) == 1
    captured = capsys.readouterr()
    assert not (out / "ledger_s1.json").exists()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    return err[0]


def _edit_json(path, update):
    doc = json.loads(path.read_text())
    update(doc)
    path.write_text(json.dumps(doc))


def test_run_rejects_unknown_params_key(tmp_path, capsys):
    err = _run_error(
        tmp_path, capsys,
        lambda out: _edit_json(out / "config.json", lambda c: c["params"].update(replan_minutes=15)),
    )
    assert "replan_minutes" in err


def test_generate_rejects_unknown_params_key(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {"params": {"dwell": 2}})
    assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    assert "dwell" in capsys.readouterr().err


def test_run_rejects_negative_arrivals(tmp_path, capsys):
    def edit(out):
        path = out / "arrivals.csv"
        lines = path.read_text().splitlines(keepends=True)
        lines[-1] = lines[-1].rsplit(",", 1)[0] + ",-3\n"
        path.write_text("".join(lines))

    message = _run_error(tmp_path, capsys, edit)
    assert "arrivals.csv: row " in message and "arrivals must be non-negative" in message


def test_run_rejects_arrivals_for_another_network(tmp_path, capsys):
    # hub 3's rows dropped, then moved to hub 9: the message names the hubs
    # the arrivals miss and add
    for moved_to, extra in ((None, []), (9, [9])):

        def edit(out):
            path = out / "arrivals.csv"
            lines = path.read_text().splitlines(keepends=True)
            rows = [ln for ln in lines if not ln.startswith("3,")]
            if moved_to is not None:
                rows += [f"{moved_to},{ln[2:]}" for ln in lines if ln.startswith("3,")]
            path.write_text("".join(rows))

        (tmp_path / str(moved_to)).mkdir()
        err = _run_error(tmp_path / str(moved_to), capsys, edit)
        assert err == f"error: arrivals must cover exactly the network's hubs: missing [3], extra {extra}"


def test_run_names_the_hub_whose_arrivals_do_not_fit_the_horizon(tmp_path, capsys):
    # the message used to name neither the hub nor the arrivals' length
    err = _run_error(
        tmp_path, capsys, lambda out: _edit_json(out / "config.json", lambda c: c["params"].update(horizon_h=20))
    )
    assert err == "error: hub 0 has 24 arrival slots, but params.horizon_h is 20"


def test_run_rejects_malformed_config(tmp_path, capsys):
    def edit(out):
        (out / "config.json").write_text('{"seed": 7,')

    assert "config.json" in _run_error(tmp_path, capsys, edit)


def test_generate_rejects_malformed_or_missing_config(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    for text in ('{"seed": 7,', "[1, 2]", None):
        if text is None:
            cfg.unlink()
        else:
            cfg.write_text(text)
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "config.json" in err[0]
    assert not (tmp_path / "x").exists()


def test_generate_names_a_config_that_is_not_utf8(tmp_path, capsys):
    # the codec's message used to be printed without the file
    cfg = tmp_path / "config.json"
    cfg.write_bytes(b'{"seed": 7, "label": "\xff"}\n')
    assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: {cfg}: config is not UTF-8 text ('utf-8' codec can't decode byte 0xff")
    assert not (tmp_path / "x").exists()


def test_run_names_a_network_that_is_not_utf8(tmp_path, capsys):
    # the codec's message used to be printed without the file
    def write_bytes(out):
        (out / "network.json").write_bytes(b'{"hubs": [], "name": "\xff"}\n')

    err = _run_error(tmp_path, capsys, write_bytes)
    path = tmp_path / "run" / "network.json"
    assert err.startswith(f"error: {path}: network is not UTF-8 text ('utf-8' codec can't decode byte 0xff")


def test_run_rejects_arrivals_missing_a_column(tmp_path, capsys):
    def drop_column(out):
        path = out / "arrivals.csv"
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(ln if ln.startswith("#") else ln.rsplit(",", 1)[0] + "\n" for ln in lines))

    def truncate_row(out):
        path = out / "arrivals.csv"
        lines = path.read_text().splitlines(keepends=True)
        lines[-1] = lines[-1].rsplit(",", 1)[0] + "\n"
        path.write_text("".join(lines))

    assert "missing column(s) arrivals" in _run_error(tmp_path, capsys, drop_column)
    assert "lacks a field" in _run_error(tmp_path, capsys, truncate_row)


def test_run_rejects_a_malformed_arrivals_field(tmp_path, capsys):
    """A field that is not an integer names the file, the row and the column."""
    cases = [
        (2, "12.5", "arrivals"), (2, "", "arrivals"), (2, "abc", "arrivals"),
        (2, "12.5,x", "arrivals"), (1, "2.0", "slot_h"), (0, "a", "hub_id"),
    ]
    for col, value, name in cases:
        row = {}

        def edit(out):
            path = out / "arrivals.csv"
            lines = path.read_text().splitlines(keepends=True)
            fields = lines[-1].rstrip("\n").split(",")
            fields[col] = value
            row.update(path=path, text=",".join(fields))
            lines[-1] = row["text"] + "\n"
            path.write_text("".join(lines))

        err = _run_error(tmp_path, capsys, edit)
        assert err == f"error: {row['path']}: row {row['text']!r}: {name} must be an integer"


def test_run_rejects_an_arrivals_row_with_fields_past_the_header(tmp_path, capsys):
    """A field past the header's three (a shifted or misjoined column) names
    the file and the row; the row keeps the file's CRLF line ending."""
    row = {}

    def edit(out):
        path = out / "arrivals.csv"
        lines = path.read_bytes().decode().splitlines(keepends=True)
        assert lines[-1].endswith("\r\n")
        row.update(path=path, text=lines[-1][:-2] + ",999")
        lines[-1] = row["text"] + "\r\n"
        path.write_bytes("".join(lines).encode())

    err = _run_error(tmp_path, capsys, edit)
    assert err == f"error: {row['path']}: row {row['text']!r} has more fields than the header's 3"


def test_run_rejects_malformed_network(tmp_path, capsys):
    def drop_d_max(out):
        _edit_json(out / "network.json", lambda doc: doc.pop("d_max_m"))

    def not_json(out):
        (out / "network.json").write_text("not json\n")

    err = _run_error(tmp_path, capsys, drop_d_max)
    assert "network.json" in err and "'d_max_m'" in err
    assert "network.json" in _run_error(tmp_path, capsys, not_json)


def test_run_rejects_a_network_with_no_hubs(tmp_path, capsys):
    # the plan's forecast used to fail with an IndexError traceback
    def empty(out):
        _edit_json(out / "network.json", lambda doc: doc.update(hubs=[]))
        path = out / "arrivals.csv"
        path.write_text("".join(ln for ln in path.read_text().splitlines(keepends=True) if not ln[0].isdigit()))

    err = _run_error(tmp_path, capsys, empty)
    assert err == f"error: {tmp_path / 'run' / 'network.json'}: a network needs at least one hub"


def test_run_names_an_arrivals_file_it_cannot_read(tmp_path, capsys):
    # a directory in its place ended in an IsADirectoryError traceback, and
    # bytes that are not UTF-8 printed the codec's message without the file
    def replace_with_a_directory(out):
        (out / "arrivals.csv").unlink()
        (out / "arrivals.csv").mkdir()

    def write_bytes(out):
        (out / "arrivals.csv").write_bytes(b"hub_id,slot_h,arrivals\n\xff\n")

    err = _run_error(tmp_path, capsys, replace_with_a_directory)
    assert err.endswith("arrivals.csv: cannot read arrivals CSV (Is a directory)")
    (tmp_path / "bytes").mkdir()
    err = _run_error(tmp_path / "bytes", capsys, write_bytes)
    assert "arrivals.csv: arrivals CSV is not UTF-8 text ('utf-8' codec can't decode byte 0xff" in err


def test_run_rejects_hubs_that_share_coordinates(tmp_path, capsys):
    def stack_hubs(out):
        def update(doc):
            a, b = doc["hubs"][1], doc["hubs"][3]
            b["x_m"], b["y_m"] = a["x_m"], a["y_m"]

        _edit_json(out / "network.json", update)

    err = _run_error(tmp_path, capsys, stack_hubs)
    assert "network.json: hubs 1 and 3 share coordinates" in err


def test_run_rejects_a_network_with_an_infinite_walk_speed(tmp_path, capsys):
    # scenario 3 used to book moves between hubs with no travel segment
    err = _run_error(
        tmp_path, capsys, lambda out: _edit_json(out / "network.json", lambda doc: doc.update(speed_m_per_h=math.inf))
    )
    assert "network.json: speed_m_per_h must be finite, got Infinity" in err


def test_run_rejects_value_weights_not_summing_to_one(tmp_path, capsys):
    err = _run_error(
        tmp_path, capsys,
        lambda out: _edit_json(out / "config.json", lambda c: c["params"].update(urgency_weight=0.6)),
    )
    assert "value weights must sum to 1, got 1.2" in err


def test_generate_rejects_a_section_that_is_not_an_object(tmp_path, capsys):
    # a section must be an object: a string or a number used to end in a
    # TypeError traceback, and a list of params was taken as no overrides
    for section, value in (("network", "abc"), ("arrivals", 5), ("params", [])):
        cfg = _write_cfg(tmp_path, {section: value})
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "config.json" in err[0] and f"section '{section}' must be a JSON object" in err[0]
    assert not (tmp_path / "x").exists()


def test_run_rejects_a_section_that_is_not_an_object(tmp_path, capsys):
    for section, value in (("params", []), ("network", None)):
        err = _run_error(
            tmp_path, capsys,
            lambda out: _edit_json(out / "config.json", lambda c: c.update({section: value})),
        )
        assert "config.json" in err and f"section '{section}' must be a JSON object" in err


WRONG_TYPES = (
    ({"network": {"hubs": None}}, "'network.hubs' must be an integer, got null"),
    ({"arrivals": {"daily_volume": [1]}}, "'arrivals.daily_volume' must be an integer, got [1]"),
    ({"seed": "x"}, "'seed' must be an integer, got \"x\""),
    ({"params": {"dwell_h": "2"}}, "'params.dwell_h' must be an integer, got \"2\""),
    ({"network": {"area_km": True}}, "'network.area_km' must be a number, got true"),
)
NON_FINITE = (
    ({"params": {"urgency_weight": math.nan}}, "'params.urgency_weight' must be finite, got NaN"),
    ({"params": {"fix_lead_h": math.inf}}, "'params.fix_lead_h' must be finite, got Infinity"),
    ({"arrivals": {"gateway_weight": math.nan}}, "'arrivals.gateway_weight' must be finite, got NaN"),
    ({"network": {"area_km": -math.inf}}, "'network.area_km' must be finite, got -Infinity"),
    # integers past float's range: generate used to end in an OverflowError
    ({"network": {"area_km": 10**400}}, f"'network.area_km' must be finite, got {10**400}"),
    ({"arrivals": {"daily_volume": 10**400}}, f"'arrivals.daily_volume' must be finite, got {10**400}"),
)
MISSPELLED = (
    ({"parms": {"dwell_h": 3}}, "unknown config key 'parms'"),
    ({"network": {"hubz": 4}}, "unknown config key 'network.hubz'"),
    # the top-level seed used to override a params seed without a word
    ({"params": {"seed": 5}}, "unknown config key 'params.seed'"),
    ({"params": {"dwel_h": 3}}, "unknown config key 'params.dwel_h'"),
)


def _generate_error(tmp_path, capsys, extra):
    cfg = _write_cfg(tmp_path, extra)
    assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not (tmp_path / "x").exists()
    return err[0]


def test_generate_rejects_a_value_of_the_wrong_type(tmp_path, capsys):
    # each used to end in a TypeError traceback
    for extra, message in WRONG_TYPES:
        assert message in _generate_error(tmp_path, capsys, extra)


def _add_to_frozen_config(extra):
    """An edit of the generated config.json that merges ``extra`` into it,
    section by section."""

    def update(doc):
        for key, value in extra.items():
            if isinstance(value, dict) and key in doc:
                doc[key].update(value)
            else:
                doc[key] = value

    return lambda out: _edit_json(out / "config.json", update)


def test_run_rejects_a_value_of_the_wrong_type(tmp_path, capsys):
    for extra, message in WRONG_TYPES:
        assert message in _run_error(tmp_path, capsys, _add_to_frozen_config(extra))


def test_generate_and_run_reject_a_non_finite_number(tmp_path, capsys):
    # Python's json reads NaN and Infinity. A NaN urgency weight passed the
    # sum check and ran a day with another ledger, and a NaN gateway weight
    # failed with "hub 0: arrival counts must be non-negative"
    for extra, message in NON_FINITE:
        err = _generate_error(tmp_path, capsys, extra)
        assert message in err and "config.json" in err
        err = _run_error(tmp_path, capsys, _add_to_frozen_config(extra))
        assert message in err and "config.json" in err


def test_generate_rejects_a_misspelled_section_or_key(tmp_path, capsys):
    # both used to generate with the defaults, copying the stray key into the
    # frozen config.json
    for extra, message in MISSPELLED:
        err = _generate_error(tmp_path, capsys, extra)
        assert message in err and "config.json" in err


def test_run_rejects_a_misspelled_section_or_key(tmp_path, capsys):
    for extra, message in MISSPELLED:
        assert message in _run_error(tmp_path, capsys, _add_to_frozen_config(extra))


OUT_OF_RANGE = (
    ({"network": {"area_km": -1}}, "'network.area_km' must be positive, got -1"),
    ({"network": {"area_km": 0.0}}, "'network.area_km' must be positive, got 0.0"),
    ({"seed": -1}, "seed must be >= 0, got -1"),
    ({"network": {"hubs": 0}}, "'network.hubs' must be >= 1, got 0"),
    ({"network": {"gateways": -1}}, "'network.gateways' must lie in [0, 52] (network.hubs), got -1"),
    ({"network": {"hubs": 2, "gateways": 3}}, "'network.gateways' must lie in [0, 2] (network.hubs), got 3"),
    ({"network": {"move_radius_m": 0}}, "'network.move_radius_m' must be positive, got 0"),
    ({"network": {"walk_speed_m_per_h": math.inf}}, "'network.walk_speed_m_per_h' must be finite, got Infinity"),
    ({"network": {"walk_speed_m_per_h": 0}}, "'network.walk_speed_m_per_h' must be positive, got 0"),
    ({"network": {"walk_speed_m_per_h": -1}}, "'network.walk_speed_m_per_h' must be positive, got -1"),
)


def test_generate_rejects_a_value_out_of_range(tmp_path, capsys):
    # the first two printed numpy's "high - low < 0" and "expected
    # non-negative integer", hubs 0 the misleading "n_gateways cannot exceed
    # n_hubs", gateways -1 generated a network without gateways, a move
    # radius of 0 printed "d_max_m must be positive", an infinite walk
    # speed (JSON's Infinity) generated moves without a travel segment, and
    # a walk speed of 0 or below is refused before any network is built
    for extra, message in OUT_OF_RANGE:
        assert message in _generate_error(tmp_path, capsys, extra)
    # a range error of each section names the config file, the key and the
    # value; the first and the last used to name neither file nor value
    path = tmp_path / "config.json"
    for extra, message in (
        ({"params": {"dwell_h": -1}}, "dwell_h must be >= 0, got -1"),
        ({"network": {"hubs": 0}}, "config key 'network.hubs' must be >= 1, got 0"),
        ({"arrivals": {"hub_jitter": 1.5}}, "hub_jitter must lie in [0, 1), got 1.5"),
    ):
        assert _generate_error(tmp_path, capsys, extra) == f"error: {path}: {message}"


def test_generate_and_run_reject_a_negative_seed_flag(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    assert main(["generate", "--config", str(cfg), "--seed", "-1", "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert not (tmp_path / "x").exists()
    # run used to end in numpy's "expected non-negative integer" traceback
    out = tmp_path / "run"
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["run", "--out", str(out), "--seed", "-1", "--scenario", "1"]) == 1
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert not (out / "ledger_s1.json").exists()
    # a seed past float's range was frozen into a config.json that run
    # then refused
    big = str(10**400)
    assert main(["generate", "--config", str(cfg), "--seed", big, "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err == f"error: --seed must be finite, got {big}\n"
    assert not (tmp_path / "x").exists()
    assert main(["run", "--out", str(out), "--seed", big, "--scenario", "1"]) == 1
    assert capsys.readouterr().err == f"error: --seed must be finite, got {big}\n"
    assert not (out / "ledger_s1.json").exists()


@pytest.mark.parametrize("debug", [False, True], ids=["plain", "debug-forecasts"])
def test_run_all_equals_the_three_single_scenario_runs(tmp_path, debug):
    # scenarios 1 and 2 share one plan under `--scenario all`; every file
    # is the one its scenario writes when run alone
    cfg = _write_cfg(tmp_path)
    together, apart = tmp_path / "all", tmp_path / "apart"
    flag = ["--debug-forecasts"] if debug else []
    for out in (together, apart):
        assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["run", "--out", str(together), "--scenario", "all", *flag]) == 0
    for k in ("1", "2", "3"):
        assert main(["run", "--out", str(apart), "--scenario", k, *flag]) == 0
    names = sorted(p.name for p in together.iterdir())
    assert names == sorted(p.name for p in apart.iterdir())
    assert len(names) == 3 + (18 if debug else 15)  # the instance, then 5 or 6 files per scenario
    for name in names:
        assert (together / name).read_bytes() == (apart / name).read_bytes(), name


@pytest.mark.parametrize("scenario", ["3", "all"])
def test_run_into_a_closed_pipe_exits_1_quietly(tmp_path, scenario):
    # `hubroster run ... | head`: the reader is gone before the summary is
    # printed; the run still writes every file, says nothing on stderr and
    # exits 1
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "run"
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "hubroster", "run", "--out", str(out), "--scenario", scenario],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""
    for k in ("1", "2", "3") if scenario == "all" else (scenario,):
        assert (out / f"flows_s{k}.csv").exists()
