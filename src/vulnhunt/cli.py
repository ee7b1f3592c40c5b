"""Command-line entry point: scan, status, and report rendering.

Configuration comes from an optional declarative file (YAML or JSON) plus
flag overrides; flags win.  All artifacts land in the persistent store and
the --out directory.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from .config import load_config
from .errors import VulnHuntError
from .pipeline import run_scan, status_snapshot
from .reporting import render_markdown
from .store import FileStore


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vulnhunt",
        description="Agent-driven vulnerability scanning over simulated crash targets.",
    )
    parser.add_argument("--config", help="configuration file (YAML or JSON)")
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser("scan", help="run a full or delta scan")
    scan.add_argument("--mode", choices=("full", "delta"), default=None)
    scan.add_argument("--diff", help="unified diff file (required for delta mode)")
    scan.add_argument("--fuzzer", action="append", help="restrict to this fuzzer (repeatable)")
    scan.add_argument(
        "--sanitizer", action="append", help="restrict to this sanitizer (repeatable)"
    )
    scan.add_argument("--budget-minutes", type=float, default=None)
    scan.add_argument("--budget-dollars", type=float, default=None)
    scan.add_argument("--seed", type=int, default=None, help="rng seed")
    scan.add_argument("--scenario", help="scripted agent scenario file")
    scan.add_argument("--export", help="call graph export (JSONL)")
    scan.add_argument("--targets", help="directory of simulated target definitions")
    scan.add_argument("--out", help="output directory for blobs and rendered files")
    scan.add_argument("--store", help="persistent store directory (default: in-memory)")
    scan.add_argument("--parallelism", type=int, default=None, help="concurrent workers")

    status = sub.add_parser("status", help="print per-task metrics from a store")
    status.add_argument("--store", required=True, help="persistent store directory")

    report = sub.add_parser("report", help="render stored reports to files")
    report.add_argument("--store", required=True, help="persistent store directory")
    report.add_argument("--out", default="out", help="directory for rendered files")
    group = report.add_mutually_exclusive_group(required=True)
    group.add_argument("--id", help="render one report by id")
    group.add_argument("--all", action="store_true", help="render every stored report")
    return parser


def _scan_overrides(args: argparse.Namespace) -> dict:
    return {
        "mode": args.mode,
        "diff_path": args.diff,
        "fuzzers": args.fuzzer,
        "sanitizers": args.sanitizer,
        "budget_minutes": args.budget_minutes,
        "budget_dollars": args.budget_dollars,
        "rng_seed": args.seed,
        "scenario_path": args.scenario,
        "export_path": args.export,
        "targets_dir": args.targets,
        "out_dir": args.out,
        "store_dir": args.store,
        "worker_parallelism": args.parallelism,
    }


def cmd_scan(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    config = load_config(args.config, _scan_overrides(args))
    if config.mode == "delta" and not config.diff_path:
        parser.error("--mode delta requires --diff")
    result = run_scan(config)
    print(status_snapshot(result.store))
    failed = [t for t in result.tasks if t.state == "failed"]
    for task in failed:
        print(f"worker {task.id} failed: {'; '.join(task.warnings)}", file=sys.stderr)
    print(f"\n{len(result.reports)} report(s) emitted.")
    return 1 if failed else 0


def cmd_status(args: argparse.Namespace) -> int:
    store = FileStore(args.store, create=False)
    print(status_snapshot(store))
    return 0


def _write_report(record: dict, store, out_dir: str) -> list[str]:
    os.makedirs(out_dir, exist_ok=True)
    pov = store.get("povs", record.get("pov_id", "")) if record.get("pov_id") else None
    json_path = os.path.join(out_dir, f"{record['id']}.json")
    md_path = os.path.join(out_dir, f"{record['id']}.md")
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(md_path, "w", encoding="utf-8") as fh:
        fh.write(render_markdown(record, pov))
    return [json_path, md_path]


def cmd_report(args: argparse.Namespace) -> int:
    store = FileStore(args.store, create=False)
    if args.all:
        records = store.list("reports")
        if not records:
            print("no reports in store; nothing rendered")
            return 0
    else:
        record = store.get("reports", args.id)
        if record is None:
            print(f"error: no report with id {args.id!r}", file=sys.stderr)
            return 1
        records = [record]
    for record in records:
        for path in _write_report(record, store, args.out):
            print(path)
    return 0


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=os.environ.get("VULNHUNT_LOG", "WARNING"))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "scan":
            return cmd_scan(args, parser)
        if args.command == "status":
            return cmd_status(args)
        if args.command == "report":
            return cmd_report(args)
    except VulnHuntError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
