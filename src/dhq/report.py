"""Deterministic reports: one structure, text and JSON renderings.

Both renderings carry the same numeric values.  Probabilities are printed
with 12 decimal digits in text; values below 1e-14 are reported as 0 in
both formats to keep reports stable against float noise.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

import numpy as np

from .decoherence import DecoherenceReport
from .values import Value

PRINT_FLOOR = 1e-14

# Gram matrices are embedded in reports only up to this many histories.
GRAM_REPORT_CAP = 64


# json's spellings of the floats that float.__repr__ writes as nan, inf and -inf.
_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def fmt_value(v: float) -> str:
    return f"{float(v):.12g}"


def _json_float(x: float) -> str:
    r = float.__repr__(x)
    return _JSON_NON_FINITE.get(r, r)


def _json_rows(labels: list, probs: list) -> str:
    """A table's rows as `json.dumps(doc, indent=2)` writes them at a report table's depth.

    Joined as strings: with an indent, json encodes through its pure-Python
    encoder, which takes several times longer on a table of many rows.
    """
    if not labels:
        return "[]"
    rows = ",\n".join(
        f"        [\n          {encode_basestring_ascii(k)},\n          {_json_float(p)}\n        ]"
        for k, p in zip(labels, probs)
    )
    return f"[\n{rows}\n      ]"


class Report(Value):
    """Echo of the command plus verdicts, scalars, and probability tables (mutable)."""

    _fields = ("command", "tolerances", "verdicts", "scalars", "tables", "gram", "notes",
               "error", "exit_status", "raw_output")

    def __init__(self, command: str):
        self.command = command
        self.tolerances = {}
        self.verdicts = {}
        self.scalars = {}
        self.tables = []  # (title, [label, ...], [probability, ...])
        self.gram = None
        self.notes = []
        self.error = None
        self.exit_status = 0
        self.raw_output = None  # when set, rendered verbatim instead of the report (dumps)

    def add_table(self, title: str, labels, probabilities) -> None:
        """Store a table, its probabilities clipped to [0, 1] and set to 0 below PRINT_FLOOR.

        The one place a probability is made printable: both renderings only format these values.
        """
        p = np.clip(np.asarray(probabilities, dtype=float), 0.0, 1.0)
        p[p < PRINT_FLOOR] = 0.0
        self.tables.append((title, [str(k) for k in labels], p.tolist()))

    def attach_decoherence(self, rep: DecoherenceReport, prefix: str = "") -> None:
        tag = f"{prefix}." if prefix else ""
        self.verdicts[f"{tag}decoherent"] = bool(rep.decoherent)
        self.scalars[f"{tag}max_offdiag_normalized"] = float(rep.max_offdiag_normalized)
        self.tolerances.setdefault("tol_dec", float(rep.tol_used))
        self.add_table(f"{prefix} probabilities".strip(), rep.labels, rep.probabilities)
        n = len(rep.labels)
        if n <= GRAM_REPORT_CAP:
            gram = rep.gram
            parts = np.stack([gram.real, gram.imag], axis=-1)  # [[[re, im], ...], ...]
            parts[np.abs(parts) < PRINT_FLOOR] = 0.0
            self.gram = {"labels": list(rep.labels), "matrix": parts.tolist()}
        else:
            self.notes.append(f"gram matrix omitted ({n} histories > {GRAM_REPORT_CAP})")

    def to_json(self) -> str:
        """`json.dumps(doc, indent=2, sort_keys=True)` of the report, byte for byte.

        The rest of the document is dumped with each table's rows empty, and
        the rows, rendered by `_json_rows`, are spliced into its `"rows": []`.
        No other key is "rows", and inside a JSON string its quotes are escaped.
        """
        doc = {
            "command": self.command,
            "tolerances": self.tolerances,
            "verdicts": self.verdicts,
            "scalars": {k: float(v) for k, v in self.scalars.items()},
            "tables": [{"title": t, "rows": []} for t, _, _ in self.tables],
            "gram": self.gram,
            "notes": self.notes,
            "error": self.error,
            "exit_status": self.exit_status,
        }
        head, *tails = json.dumps(doc, indent=2, sort_keys=True).split('"rows": []')
        rows = (_json_rows(labels, probs) for _, labels, probs in self.tables)
        return head + "".join(f'"rows": {r}{tail}' for r, tail in zip(rows, tails))

    def to_text(self) -> str:
        lines = [f"command: {self.command}"]
        for k in sorted(self.tolerances):
            lines.append(f"tolerance {k} = {fmt_value(self.tolerances[k])}")
        for k in sorted(self.verdicts):
            lines.append(f"verdict {k}: {self.verdicts[k]}")
        for k in sorted(self.scalars):
            lines.append(f"{k} = {fmt_value(self.scalars[k])}")
        for title, labels, probs in self.tables:
            width = max(map(len, labels), default=0)
            rows = (f"  {k.ljust(width)}  {p:.12f}" for k, p in zip(labels, probs))
            lines.append("\n".join([f"{title}:", *rows]))
        if self.gram is not None:
            lines.append(f"gram ({len(self.gram['labels'])} histories):")
            for label, row in zip(self.gram["labels"], self.gram["matrix"]):
                cells = " ".join(f"{re:+.6e}{im:+.6e}j" for re, im in row)
                lines.append(f"  {label}: {cells}")
        for n in self.notes:
            lines.append(f"note: {n}")
        if self.error:
            lines.append(f"error: {self.error}")
        lines.append(f"exit: {self.exit_status}")
        return "\n".join(lines) + "\n"

    def render(self, fmt: str) -> str:
        return self.to_json() + "\n" if fmt == "json" else self.to_text()
