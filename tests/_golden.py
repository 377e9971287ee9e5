"""Comparison helpers for golden CLI outputs.

Structure (headers, integer columns, verdicts) must match byte for
byte; floating-point fields are compared at rtol 1e-9 with an absolute
floor of 1e-12, since columns that sit at rounding level (symplectic
residuals, reality defects) wiggle across BLAS builds while staying
far below every gate.  Summary notes compare the same way, split at
their last ": " into a label, which must match exactly, and a value;
only the values of notes whose label ends in "seconds" (timings) are
skipped.
"""

import math
from pathlib import Path


def _token_equal(actual, expected):
    if actual == expected:
        return True
    try:
        a = float(actual)
        e = float(expected)
    except ValueError:
        return False
    if math.isnan(a) and math.isnan(e):
        return True
    return math.isclose(a, e, rel_tol=1e-9, abs_tol=1e-12)


def compare_csv(actual_path, golden_path):
    """List of mismatch descriptions, empty when the files agree."""
    problems = []
    actual = Path(actual_path).read_text().splitlines()
    golden = Path(golden_path).read_text().splitlines()
    if len(actual) != len(golden):
        return [f"{actual_path}: {len(actual)} lines, golden has {len(golden)}"]
    for lineno, (a_line, g_line) in enumerate(zip(actual, golden), start=1):
        if a_line == g_line:
            continue
        a_tok = a_line.split(",")
        g_tok = g_line.split(",")
        if len(a_tok) != len(g_tok):
            problems.append(f"{actual_path}:{lineno}: column count differs")
            continue
        for col, (a, g) in enumerate(zip(a_tok, g_tok)):
            if not _token_equal(a, g):
                problems.append(
                    f"{actual_path}:{lineno}: column {col}: {a!r} vs golden {g!r}"
                )
    return problems


def _summary_essentials(text):
    """(header lines, check fields, note fields, result line); a timing
    note's value reads None."""
    header = []
    checks = []
    notes = []
    result = None
    for line in text.splitlines():
        if line.startswith(("scenario:", "task:")):
            header.append(line)
        elif line.startswith("check "):
            name_verdict, _, value_part = line.partition("(")
            value = value_part.split()[0].rstrip(")") if value_part else ""
            checks.append((name_verdict.strip(), value))
        elif line.startswith("note: "):
            label, _, value = line.rpartition(": ")
            notes.append((label, None if label.endswith("seconds") else value))
        elif line.startswith("result:"):
            result = line
    return header, checks, notes, result


def compare_summary(actual_path, golden_path):
    problems = []
    a_head, a_checks, a_notes, a_result = _summary_essentials(
        Path(actual_path).read_text()
    )
    g_head, g_checks, g_notes, g_result = _summary_essentials(
        Path(golden_path).read_text()
    )
    if a_head != g_head:
        problems.append(f"{actual_path}: header lines differ: {a_head} vs {g_head}")
    if a_result != g_result:
        problems.append(f"{actual_path}: {a_result!r} vs golden {g_result!r}")
    pairs = (("check", a_checks, g_checks), ("note", a_notes, g_notes))
    for kind, actual, golden in pairs:
        if len(actual) != len(golden):
            problems.append(f"{actual_path}: {kind} count differs")
            continue
        for (a_name, a_value), (g_name, g_value) in zip(actual, golden):
            if a_name != g_name:
                problems.append(f"{actual_path}: {a_name!r} vs golden {g_name!r}")
            elif not _token_equal(a_value, g_value):
                problems.append(
                    f"{actual_path}: {a_name}: value {a_value} vs golden {g_value}"
                )
    return problems


def compare_tree(out_dir, golden_dir):
    """Compare every golden file against the fresh run; both ways."""
    out_dir = Path(out_dir)
    golden_dir = Path(golden_dir)
    problems = []
    golden_files = sorted(p.name for p in golden_dir.iterdir())
    actual_files = sorted(p.name for p in out_dir.iterdir())
    if golden_files != actual_files:
        problems.append(
            f"{out_dir}: files {actual_files} vs golden {golden_files}"
        )
    for name in golden_files:
        if name not in actual_files:
            continue
        if name.endswith(".csv"):
            problems.extend(compare_csv(out_dir / name, golden_dir / name))
        elif name == "summary.txt":
            problems.extend(compare_summary(out_dir / name, golden_dir / name))
    return problems
