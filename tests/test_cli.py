"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import _jsonable, _parse_override, main


def test_list_prints_all_experiments(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for key in ("fig01", "fig13", "fig21", "tab1"):
        assert key in out


def test_unknown_experiment_fails(capsys):
    assert main(["run", "fig99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_run_with_overrides_emits_json(capsys):
    code = main([
        "run", "fig09",
        "--set", "thread_counts=[1]",
        "--set", "duration=0.5",
    ])
    assert code == 0
    result = json.loads(capsys.readouterr().out)
    assert result["threads"] == [1]
    assert len(result["block_mbps"]) == 1


def test_parse_override_json_and_string():
    assert _parse_override("x=3") == ("x", 3)
    assert _parse_override("x=[1,2]") == ("x", [1, 2])
    assert _parse_override("x=hello") == ("x", "hello")
    with pytest.raises(Exception):
        _parse_override("novalue")


def test_jsonable_handles_odd_values():
    class Odd:
        def __repr__(self):
            return "<odd>"

    out = _jsonable({"a": (1, 2.5), "b": Odd(), 3: None})
    assert out == {"a": [1, 2.5], "b": "<odd>", "3": None}


def test_run_all_out_writes_json_and_report(tmp_path, capsys, monkeypatch):
    # run-all takes no --set; shrink fig09 (run inline by --jobs 1) instead.
    import functools

    from repro.experiments import fig09_time_overhead as fig09

    monkeypatch.setattr(
        fig09, "run", functools.partial(fig09.run, thread_counts=[1], duration=0.5)
    )
    code = main([
        "run-all", "--only", "fig09", "--jobs", "1", "--out", str(tmp_path),
    ])
    assert code == 0
    assert capsys.readouterr().out == ""
    data = json.loads((tmp_path / "fig09.json").read_text())
    assert list(data) == ["experiment", "title", "wall_seconds", "result"]
    assert data["experiment"] == "fig09"
    assert data["result"]["threads"] == [1]
    report = (tmp_path / "REPORT.md").read_text()
    assert (
        f"- **fig09** — {data['title']} ({data['wall_seconds']}s) -> `fig09.json`"
        in report.splitlines()
    )


def test_run_all_out_writes_the_faults_run_prints(tmp_path, capsys, monkeypatch):
    # Under a fault plan, <key>.json holds the same result, _faults
    # included, that `run` prints for the same flags.
    import functools

    from repro.experiments import fig09_time_overhead as fig09

    monkeypatch.setattr(
        fig09, "run", functools.partial(fig09.run, thread_counts=[1], duration=0.5)
    )
    flags = ["--fault-read-error-prob", "0.01", "--jobs", "1"]
    assert main(["run", "fig09", *flags]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["_faults"]
    assert main(["run-all", "--only", "fig09", *flags, "--out", str(tmp_path)]) == 0
    written = json.loads((tmp_path / "fig09.json").read_text())
    assert written["result"] == printed


def test_lint_clean_path_exits_zero(tmp_path, capsys):
    ok = tmp_path / "ok.py"
    ok.write_text("def f(env):\n    return env.now\n")
    assert main(["lint", str(ok)]) == 0
    assert "simlint: clean" in capsys.readouterr().out


def test_lint_violation_exits_nonzero_with_location_and_fixit(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "def f(items, env, entry):\n"
        "    for x in set(items):\n"
        "        env._queue.append(entry)\n"
    )
    assert main(["lint", str(bad)]) == 1
    out = capsys.readouterr().out
    assert f"{bad}:2:" in out and "SIM002" in out
    assert f"{bad}:3:" in out and "SIM005" in out
    assert "fix:" in out


def test_lint_json_format_and_select(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "def f(items, env, entry):\n"
        "    for x in set(items):\n"
        "        env._queue.append(entry)\n"
    )
    assert main(["lint", str(bad), "--format", "json",
                 "--select", "SIM005"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert [v["rule"] for v in payload] == ["SIM005"]


def test_lint_rejects_unknown_rule(tmp_path, capsys):
    assert main(["lint", str(tmp_path), "--select", "SIM999"]) == 2
    assert "unknown rules" in capsys.readouterr().err


def test_fs_demo_runs_a_reprofs_session(capsys):
    assert main(["fs-demo"]) == 0
    out = capsys.readouterr().out
    assert "reprofs demo" in out
    assert "/data/report.bin" in out
    assert "pump episodes" in out


def test_fs_demo_accepts_scheduler_and_device(capsys):
    assert main(["fs-demo", "--device", "hdd", "--scheduler", "split-token"]) == 0
    out = capsys.readouterr().out
    assert "device=hdd" in out
