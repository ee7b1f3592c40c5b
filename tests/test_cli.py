"""Command-line interface tests: scan, status, and report rendering."""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

import fixture_data as fd
from conftest import Workspace
from vulnhunt.cli import main
from vulnhunt.store import FileStore


def _scan_args(ws: Workspace) -> list[str]:
    return [
        "scan",
        "--export",
        str(ws.export_path),
        "--targets",
        str(ws.targets_dir),
        "--scenario",
        str(ws.scenario_path),
        "--out",
        str(ws.out_dir),
        "--store",
        str(ws.store_dir),
        "--sanitizer",
        "address",
        "--seed",
        "0",
    ]


@pytest.fixture(scope="module")
def scanned_ws(tmp_path_factory) -> Workspace:
    """A workspace scanned once through the CLI into a file-backed store."""
    ws = Workspace(tmp_path_factory.mktemp("cli"))
    fd.write_export(fd.E2E_EXPORT_RECORDS, ws.export_path)
    fd.write_targets(fd.E2E_TARGET_OBJECTS, ws.targets_dir)
    fd.write_scenario(copy.deepcopy(fd.E2E_SCENARIO), ws.scenario_path)
    assert main(_scan_args(ws)) == 0
    return ws


class TestScan:
    def test_scan_prints_snapshot_and_report_count(self, e2e_workspace, capsys):
        rc = main(_scan_args(e2e_workspace))
        out = capsys.readouterr().out
        assert rc == 0
        assert "5 report(s) emitted." in out
        assert "run totals:" in out
        assert "img_fuzzer--address" in out

    def test_scan_persists_artifacts(self, scanned_ws):
        store = FileStore(str(scanned_ws.store_dir))
        assert len(store.list("reports")) == 5
        assert len(store.list("povs")) == 5
        assert len(store.list("tasks")) == 3
        assert store.get("metrics", "run")["report_count"] == 5
        blobs = sorted((scanned_ws.out_dir / "povs").glob("*.bin"))
        assert len(blobs) == 5

    def test_delta_mode_requires_diff_flag(self, e2e_workspace, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["scan", "--mode", "delta", "--export", str(e2e_workspace.export_path)])
        assert excinfo.value.code == 2
        assert "--mode delta requires --diff" in capsys.readouterr().err

    def test_config_file_with_flag_overrides(self, e2e_workspace, tmp_path, capsys):
        ws = e2e_workspace
        cfg = tmp_path / "scan.yaml"
        cfg.write_text(
            "\n".join(
                [
                    f"export_path: {ws.export_path}",
                    f"targets_dir: {ws.targets_dir}",
                    f"scenario_path: {ws.scenario_path}",
                    f"out_dir: {ws.out_dir}",
                    "fuzzers: [img_fuzzer]",
                ]
            )
        )
        rc = main(
            [
                "--config",
                str(cfg),
                "scan",
                "--fuzzer",
                "meta_fuzzer",
                "--store",
                str(ws.store_dir),
            ]
        )
        assert rc == 0
        capsys.readouterr()
        reports = FileStore(str(ws.store_dir)).list("reports")
        assert {r["function"] for r in reports} == {"meta_parse_exif", "meta_checksum_blk"}

    def test_config_error_exits_2(self, tmp_path, capsys):
        rc = main(["--config", str(tmp_path / "absent.yaml"), "scan"])
        assert rc == 2
        assert "error: config file not found" in capsys.readouterr().err

    def test_failed_worker_exits_1(self, e2e_workspace, monkeypatch, capsys):
        def explode(self):
            raise RuntimeError("induced failure")

        monkeypatch.setattr("vulnhunt.pipeline.Worker._analyze", explode)
        rc = main(_scan_args(e2e_workspace))
        captured = capsys.readouterr()
        assert rc == 1
        assert "worker img_fuzzer--address failed" in captured.err
        assert "induced failure" in captured.err


    @pytest.mark.parametrize("flag, bad, extra", [
        ("--export", "absent.jsonl", []),
        ("--scenario", "absent.json", []),
        ("--scenario", "malformed.json", []),
        ("--targets", "absent-targets", []),
        ("--diff", "absent.diff", ["--mode", "delta"]),
    ], ids=["missing-export", "missing-scenario", "malformed-scenario", "missing-targets",
            "missing-diff"])
    def test_bad_input_file_exits_2_naming_it(self, e2e_workspace, tmp_path, capsys,
                                              flag, bad, extra):
        """An input that cannot be read or parsed ends the scan with one
        ``error:`` line that names the path, not a traceback or a scan
        without it."""
        path = tmp_path / bad
        if bad == "malformed.json":
            path.write_text('{"agents": ', encoding="utf-8")
        args = _scan_args(e2e_workspace)
        if flag in args:
            args[args.index(flag) + 1] = str(path)
        else:
            args += [flag, str(path)]
        rc = main(args + extra)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error: ") and str(path) in captured.err
        assert "report(s) emitted" not in captured.out


class TestStatus:
    def test_status_reads_persisted_store(self, scanned_ws, capsys):
        rc = main(["status", "--store", str(scanned_ws.store_dir)])
        out = capsys.readouterr().out
        assert rc == 0
        for task_id in ("img_fuzzer--address", "meta_fuzzer--address", "net_fuzzer--address"):
            assert task_id in out
        assert "report_count=5" in out

    def test_missing_store_exits_2_and_creates_nothing(self, tmp_path, capsys):
        store_dir = tmp_path / "typo"
        rc = main(["status", "--store", str(store_dir)])
        assert rc == 2
        assert f"error: no store at '{store_dir}'" in capsys.readouterr().err
        assert not store_dir.exists()


@pytest.mark.parametrize("command", [["status"], ["report", "--all"]])
def test_old_per_record_store_exits_2(tmp_path, capsys, command):
    store_dir = tmp_path / "old"
    (store_dir / "tasks").mkdir(parents=True)
    (store_dir / "tasks" / "img_fuzzer--address.json").write_text('{"id": "img_fuzzer--address"}\n')
    rc = main(command + ["--store", str(store_dir)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "old per-record store (<collection>/<id>.json, such as 'tasks/')" in captured.err


class TestReport:
    def test_render_one_report(self, scanned_ws, tmp_path, capsys):
        out_dir = tmp_path / "rendered"
        report_id = "rpt-img_fuzzer--address-001"
        rc = main(
            ["report", "--store", str(scanned_ws.store_dir), "--out", str(out_dir), "--id", report_id]
        )
        paths = capsys.readouterr().out.split()
        assert rc == 0
        assert [Path(p).name for p in paths] == [f"{report_id}.json", f"{report_id}.md"]

        record = FileStore(str(scanned_ws.store_dir)).get("reports", report_id)
        json_text = (out_dir / f"{report_id}.json").read_text()
        assert json_text == json.dumps(record, indent=2, sort_keys=True) + "\n"
        assert json.loads(json_text) == record

        md = (out_dir / f"{report_id}.md").read_text()
        assert md.startswith("# heap-buffer-overflow in img_apply_palette")
        assert "- discovered by: crafted proof-of-crash [S]" in md
        assert "## Crash trace" in md and "```" in md
        assert "\nimg_apply_palette\n" in md

    def test_rendering_is_byte_stable(self, scanned_ws, tmp_path, capsys):
        report_id = "rpt-net_fuzzer--address-001"
        args = ["report", "--store", str(scanned_ws.store_dir), "--id", report_id]
        first = tmp_path / "a"
        second = tmp_path / "b"
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        capsys.readouterr()
        for name in (f"{report_id}.json", f"{report_id}.md"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_render_all_reports(self, scanned_ws, tmp_path, capsys):
        out_dir = tmp_path / "all"
        rc = main(["report", "--store", str(scanned_ws.store_dir), "--out", str(out_dir), "--all"])
        paths = [Path(p) for p in capsys.readouterr().out.split()]
        assert rc == 0
        assert len(paths) == 10
        assert all(p.is_file() for p in paths)

    def test_all_with_empty_store_is_a_clean_noop(self, tmp_path, capsys):
        store_dir = tmp_path / "empty-store"
        FileStore(str(store_dir))  # materialize an empty store layout
        rc = main(["report", "--store", str(store_dir), "--out", str(tmp_path / "o"), "--all"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "no reports in store; nothing rendered" in captured.out

    def test_missing_store_exits_2_and_creates_nothing(self, tmp_path, capsys):
        store_dir = tmp_path / "typo"
        rc = main(["report", "--store", str(store_dir), "--out", str(tmp_path / "o"), "--all"])
        assert rc == 2
        assert f"error: no store at '{store_dir}'" in capsys.readouterr().err
        assert not store_dir.exists()
        assert not (tmp_path / "o").exists()

    def test_unknown_id_exits_1(self, scanned_ws, tmp_path, capsys):
        rc = main(
            ["report", "--store", str(scanned_ws.store_dir), "--out", str(tmp_path / "o"), "--id", "nope"]
        )
        captured = capsys.readouterr()
        assert rc == 1
        assert "error: no report with id 'nope'" in captured.err

    def test_id_and_all_are_mutually_exclusive(self, scanned_ws, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["report", "--store", str(scanned_ws.store_dir), "--id", "x", "--all"])
        assert excinfo.value.code == 2
        capsys.readouterr()
