"""Correctness gate: every command's output is checked; any error fails it.

Checks, in order: the exit code; the JSON report; every probability table in
[0, 1] and, except the single-row conditional table, summing to 1 within
1e-10; the expected verdicts; and every expected scalar and table row (oracle,
closed form or recorded reference) within its tolerance.
"""

from __future__ import annotations

import json

TOL_SUM = 1e-10


def _close(got, want, tol) -> bool:
    return isinstance(got, (int, float)) and abs(float(got) - float(want)) <= tol


def check(cmd, exit_code: int, stdout: str, reference: dict | None, tol: float) -> list:
    """Errors found in one command's output (empty when it passes)."""
    errors = []
    if exit_code != cmd.exit_code:
        errors.append(f"exit code {exit_code}, expected {cmd.exit_code}")
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as err:
        return errors + [f"report is not JSON: {err}"]
    if doc.get("exit_status") != exit_code:
        errors.append(f"report exit_status {doc.get('exit_status')} != process exit code {exit_code}")
    tables = {}
    for table in doc.get("tables", []):
        rows = dict(table["rows"])
        tables[table["title"]] = rows
        if any(not 0.0 <= p <= 1.0 for p in rows.values()):
            errors.append(f"table {table['title']!r}: probability outside [0, 1]")
        if not table["title"].startswith("conditional") and abs(sum(rows.values()) - 1.0) > TOL_SUM:
            errors.append(f"table {table['title']!r} sums to {sum(rows.values())!r}")

    expected = [(cmd.verdicts, cmd.scalars, cmd.tables, tol)]
    if reference is not None:
        expected.append((reference["verdicts"], reference["scalars"], reference["tables"], tol))
    for verdicts, scalars, want_tables, t in expected:
        for name, want in verdicts.items():
            got = doc.get("verdicts", {}).get(name)
            if got != want:
                errors.append(f"verdict {name}: {got!r}, expected {want!r}")
        for name, want in scalars.items():
            value, s_tol = want if isinstance(want, (list, tuple)) else (want, t)
            got = doc.get("scalars", {}).get(name)
            if not _close(got, value, s_tol):
                errors.append(f"scalar {name}: {got!r}, expected {value!r} within {s_tol:g}")
        for title, want_rows in want_tables.items():
            rows = tables.get(title)
            if rows is None:
                errors.append(f"missing table {title!r}")
                continue
            if set(rows) != set(want_rows):
                errors.append(f"table {title!r}: labels differ from the expected ones")
                continue
            bad = [lab for lab, p in want_rows.items() if not _close(rows[lab], p, t)]
            if bad:
                worst = max(abs(rows[lab] - want_rows[lab]) for lab in bad)
                errors.append(f"table {title!r}: {len(bad)} rows off, worst by {worst:.3e}")
    return errors


def summary(doc: dict) -> dict:
    """The checked parts of a report, as stored in reference.json."""
    return {
        "verdicts": doc.get("verdicts", {}),
        "scalars": doc.get("scalars", {}),
        "tables": {t["title"]: dict(t["rows"]) for t in doc.get("tables", [])},
    }
