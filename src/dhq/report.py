"""Deterministic reports: one structure, text and JSON renderings.

Both renderings carry the same numeric values.  Probabilities are printed
with 12 decimal digits in text; values below 1e-14 are reported as 0 in
both formats to keep reports stable against float noise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .decoherence import DecoherenceReport

PRINT_FLOOR = 1e-14

# Gram matrices are embedded in reports only up to this many histories.
GRAM_REPORT_CAP = 64


def fmt_value(v: float) -> str:
    return f"{float(v):.12g}"


@dataclass
class Report:
    """Echo of the command plus verdicts, scalars, and probability tables."""

    command: str
    tolerances: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)
    scalars: dict = field(default_factory=dict)
    tables: list = field(default_factory=list)  # (title, [label, ...], [probability, ...])
    gram: dict | None = None
    notes: list = field(default_factory=list)
    error: str | None = None
    exit_status: int = 0
    # When set, rendered verbatim instead of the report (scenario dumps).
    raw_output: str | None = None

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
        if len(rep.histories) <= GRAM_REPORT_CAP:
            gram = rep.gram
            parts = np.stack([gram.real, gram.imag], axis=-1)  # [[[re, im], ...], ...]
            parts[np.abs(parts) < PRINT_FLOOR] = 0.0
            self.gram = {"labels": list(rep.labels), "matrix": parts.tolist()}
        else:
            self.notes.append(
                f"gram matrix omitted ({len(rep.histories)} histories > {GRAM_REPORT_CAP})"
            )

    def to_json(self) -> str:
        doc = {
            "command": self.command,
            "tolerances": self.tolerances,
            "verdicts": self.verdicts,
            "scalars": {k: float(v) for k, v in self.scalars.items()},
            "tables": [
                {"title": t, "rows": [[k, p] for k, p in zip(labels, probs)]}
                for t, labels, probs in self.tables
            ],
            "gram": self.gram,
            "notes": self.notes,
            "error": self.error,
            "exit_status": self.exit_status,
        }
        return json.dumps(doc, indent=2, sort_keys=True)

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
