"""Vulnerability report records and byte-stable rendering.

The structured record schema is fixed; the human-readable rendering pulls
the crash trace and reproduction details from the PoV record so the stored
report stays lean.  Rendering the same records twice yields identical bytes.
"""

from __future__ import annotations

REPORT_FIELDS = (
    "sp_id",
    "function",
    "file",
    "vuln_type",
    "sanitizer",
    "fuzzer",
    "discovery_method",
    "description",
    "poc_blob_path",
    "reproduced_count",
    "attempts",
    "timestamps",
)


def render_markdown(report: dict, pov: dict | None = None) -> str:
    """Render one stored report record (plus its PoV) to Markdown text."""
    method = "background fuzzing" if report["discovery_method"] == "G" else "crafted proof-of-crash"
    lines = [
        f"# {report['vuln_type']} in {report['function']}",
        "",
        f"- id: {report['id']}",
        f"- suspicious point: {report['sp_id']}",
        f"- file: {report['file'] or '(unknown)'}",
        f"- fuzzer: {report['fuzzer']} ({report['sanitizer']} sanitizer)",
        f"- discovered by: {method} [{report['discovery_method']}]",
        f"- poc attempts: {report['attempts']}",
        "",
        "## Summary",
        "",
        report["description"],
        "",
        "## Crash trace",
        "",
    ]
    if pov and pov.get("trace"):
        lines.append("```")
        lines.extend(pov["trace"])
        lines.append("```")
    else:
        lines.append("(trace unavailable)")
    lines.extend(
        [
            "",
            "## Reproduction",
            "",
            f"Replay the stored input `{report['poc_blob_path'] or '(in-store blob)'}` against "
            f"fuzzer `{report['fuzzer']}` built with the {report['sanitizer']} sanitizer; "
            f"the crash reproduced {report['reproduced_count']}/{report['reproduced_count']} runs "
            f"at `{report['function']}`.",
            "",
        ]
    )
    return "\n".join(lines)
