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
from .histories import history_labels
from .values import Value

PRINT_FLOOR = 1e-14

# Gram matrices are embedded in reports only up to this many histories.
GRAM_REPORT_CAP = 64

# Table rows are written this many at a time, so that no list of every label or row is held.
ROW_CHUNK = 65536


# json's spellings of the floats that float.__repr__ writes as nan, inf and -inf.
_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def fmt_value(v: float) -> str:
    return f"{float(v):.12g}"


def _json_row(label: str, p: float) -> str:
    """A row as `json.dumps(doc, indent=2)` writes it at a table's depth (its pure-Python
    encoder, which json uses with an indent, takes several times longer)."""
    r = float.__repr__(p)
    return (f"        [\n          {encode_basestring_ascii(label)},\n"
            f"          {_JSON_NON_FINITE.get(r, r)}\n        ]")


def _rows(names, probs, row, sep: str = "\n"):
    """A table's rows, `row(label, p)` each, joined by `sep` ROW_CHUNK at a time.

    Its labels come from one `history_labels` generator, zipped after each chunk's
    probabilities: they run out first, so that no label is drawn and dropped.
    """
    labels = history_labels(names)
    for i in range(0, len(probs), ROW_CHUNK):
        yield sep.join(row(k, p) for p, k in zip(probs[i : i + ROW_CHUNK].tolist(), labels))


class Report(Value):
    """Echo of the command plus verdicts, scalars, and probability tables (mutable).

    Each table is (title, name axes, probabilities).  `raw_output`, when set, is rendered
    verbatim instead of the report (dumps).
    """

    _fields = ("command", "tolerances", "verdicts", "scalars", "tables", "gram", "notes",
               "error", "exit_status", "raw_output")

    def __init__(self, command: str):
        self._set(command=command, tolerances={}, verdicts={}, scalars={}, tables=[], gram=None,
                  notes=[], error=None, exit_status=0, raw_output=None)

    def add_table(self, title: str, names, probabilities) -> None:
        """Store a table: its rows' name axes and probabilities, one row per `history_labels`.

        The probabilities are clipped to [0, 1] and set to 0 below PRINT_FLOOR, the one place a
        probability is made printable: both renderings only format these values.
        """
        p = np.clip(np.asarray(probabilities, dtype=float), 0.0, 1.0)
        p[p < PRINT_FLOOR] = 0.0
        self.tables.append((title, names, p))

    def attach_decoherence(self, rep: DecoherenceReport, prefix: str = "") -> None:
        tag = f"{prefix}." if prefix else ""
        self.verdicts[f"{tag}decoherent"] = bool(rep.decoherent)
        self.scalars[f"{tag}max_offdiag_normalized"] = float(rep.max_offdiag_normalized)
        self.tolerances.setdefault("tol_dec", float(rep.tol_used))
        self.add_table(f"{prefix} probabilities".strip(), rep.names, rep.probabilities)
        n = len(rep.probabilities)
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
        the rows, rendered by `_json_row`, are spliced into its `"rows": []`.
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
        pieces = [head]
        for (_, names, probs), tail in zip(self.tables, tails):
            rows = ",\n".join(_rows(names, probs, _json_row, ",\n"))
            pieces += ['"rows": [\n', rows, "\n      ]", tail] if rows else ['"rows": []', tail]
        return "".join(pieces)

    def to_text(self) -> str:
        lines = [f"command: {self.command}"]
        lines += [f"tolerance {k} = {fmt_value(v)}" for k, v in sorted(self.tolerances.items())]
        lines += [f"verdict {k}: {v}" for k, v in sorted(self.verdicts.items())]
        lines += [f"{k} = {fmt_value(v)}" for k, v in sorted(self.scalars.items())]
        for title, names, probs in self.tables:
            # The longest label joins the longest name of each axis.
            width = sum(max(map(len, axis), default=0) for axis in names) + len(names) - 1
            lines.append(f"{title}:")
            lines += _rows(names, probs, lambda k, p: f"  {k.ljust(width)}  {p:.12f}")
        if self.gram is not None:
            lines.append(f"gram ({len(self.gram['labels'])} histories):")
            lines += [f"  {label}: " + " ".join(f"{re:+.6e}{im:+.6e}j" for re, im in row)
                      for label, row in zip(self.gram["labels"], self.gram["matrix"])]
        lines += [f"note: {n}" for n in self.notes]
        if self.error:
            lines.append(f"error: {self.error}")
        lines += [f"exit: {self.exit_status}", ""]  # the empty line ends the text with "\n"
        return "\n".join(lines)

    def render(self, fmt: str) -> str:
        return self.to_json() + "\n" if fmt == "json" else self.to_text()
