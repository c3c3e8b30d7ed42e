"""Report rendering against the earlier per-row rule.

`_RowwiseReport` keeps the earlier renderer verbatim: tables stored raw, each
probability clipped and floored by `clean_probability` when it was attached and
again when it was rendered, and each Gram entry rounded by `_round_zero`.  The
report now cleans each table once, as an array, in `Report.add_table`, holds its
rows' name axes instead of their labels, and writes the rows ROW_CHUNK at a
time; both renderings must stay byte-identical.  `_reference_labels` names the
rows by the per-history rule, one index tuple at a time.
"""

import json
import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dhq import report
from dhq.report import GRAM_REPORT_CAP, PRINT_FLOOR, ROW_CHUNK, Report, fmt_value


def clean_probability(p: float) -> float:
    p = min(max(float(p), 0.0), 1.0)
    return 0.0 if p < PRINT_FLOOR else p


def fmt_probability(p: float) -> str:
    return f"{clean_probability(p):.12f}"


def _round_zero(x: float) -> float:
    x = float(x)
    return 0.0 if abs(x) < PRINT_FLOOR else x


def _reference_labels(names) -> list[str]:
    """The label of each row of a table with these name axes: per index tuple, latest first."""
    return [",".join(names[k][i] for k, i in reversed(list(enumerate(h))))
            for h in np.ndindex(*map(len, names))]


@dataclass
class _RowwiseReport:
    command: str
    tolerances: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)
    scalars: dict = field(default_factory=dict)
    tables: list = field(default_factory=list)  # (title, [(label, prob), ...])
    gram: dict | None = None
    notes: list = field(default_factory=list)
    error: str | None = None
    exit_status: int = 0

    def add_table(self, title: str, rows) -> None:
        self.tables.append((title, [(str(k), float(v)) for k, v in rows]))

    def attach_decoherence(self, rep, prefix: str = "") -> None:
        tag = f"{prefix}." if prefix else ""
        self.verdicts[f"{tag}decoherent"] = bool(rep.decoherent)
        self.scalars[f"{tag}max_offdiag_normalized"] = float(rep.max_offdiag_normalized)
        self.tolerances.setdefault("tol_dec", float(rep.tol_used))
        self.add_table(
            f"{prefix} probabilities".strip(),
            zip(rep.labels, (clean_probability(p) for p in rep.probabilities)),
        )
        if len(rep.histories) <= GRAM_REPORT_CAP:
            self.gram = {
                "labels": list(rep.labels),
                "matrix": [
                    [[_round_zero(z.real), _round_zero(z.imag)] for z in row]
                    for row in np.asarray(rep.gram)
                ],
            }
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
                {"title": t, "rows": [[k, clean_probability(v)] for k, v in rows]}
                for t, rows in self.tables
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
        for title, rows in self.tables:
            lines.append(f"{title}:")
            width = max((len(k) for k, _ in rows), default=0)
            for k, v in rows:
                lines.append(f"  {k.ljust(width)}  {fmt_probability(v)}")
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


EDGE_PROBABILITIES = [
    0.0, -0.0, 1e-15, PRINT_FLOOR, 5e-324, 1.0, 1.0 + 1e-12, -1e-3, math.nan,
    math.inf, -math.inf, 0.5, 1 / 3,
]
EDGE_GRAM_PARTS = [1e-15, -1e-15, -0.0, 0.0, PRINT_FLOOR, -PRINT_FLOOR, 1 / 9, -0.25, math.nan]
EDGE_LABELS = ["", "A", "Phi,~A", "\u00e9,\u03a8", "\"q\"", "back\\slash", "tab\there", "nl\nx",
               "\x00\x1f", "\u2028", "\u65e5\u672c\u200b"]

probabilities = st.one_of(st.sampled_from(EDGE_PROBABILITIES), st.floats())
labels = st.one_of(st.sampled_from(EDGE_LABELS), st.text(max_size=6))
tables = st.lists(
    st.tuples(labels, st.lists(st.tuples(labels, probabilities), max_size=6)), max_size=3
)


@st.composite
def decoherence_reports(draw):
    """A stand-in for a DecoherenceReport: what `attach_decoherence` reads, Gram included."""
    n = draw(st.integers(0, 4))
    parts = st.one_of(st.sampled_from(EDGE_GRAM_PARTS), st.floats(-1, 1))
    entries = np.array(draw(st.lists(parts, min_size=2 * n * n, max_size=2 * n * n)), dtype=float)
    gram = np.empty((n, n), dtype=complex)
    gram.real, gram.imag = entries.reshape(2, n, n)  # assigned, so the sign of -0.0 is kept
    names = tuple(draw(st.lists(labels, min_size=n, max_size=n)))
    return SimpleNamespace(
        decoherent=draw(st.booleans()),
        max_offdiag_normalized=draw(st.floats(0, 1)),
        tol_used=1e-8,
        histories=tuple((i,) for i in range(n)),
        names=(names,),
        labels=names,
        probabilities=np.array(draw(st.lists(probabilities, min_size=n, max_size=n)), dtype=float),
        gram=gram,
    )


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(tables, st.lists(decoherence_reports(), max_size=2))
def test_rendering_matches_the_rowwise_rule(tables, decoherence):
    new, old = Report("dhq test"), _RowwiseReport("dhq test")
    for title, rows in tables:
        new.add_table(title, ([k for k, _ in rows],), [p for _, p in rows])
        old.add_table(title, rows)
    for i, rep in enumerate(decoherence):
        new.attach_decoherence(rep, prefix=f"p{i}" if i else "")
        old.attach_decoherence(rep, prefix=f"p{i}" if i else "")
    assert new.to_text() == old.to_text()
    assert new.to_json() == old.to_json()


def test_rendering_of_the_edge_values_and_an_omitted_gram():
    # Every edge value in one table, and a report over the Gram cap (which is never formed).
    n = GRAM_REPORT_CAP + 1
    names = tuple(f"h{i}" for i in range(n))
    big = SimpleNamespace(decoherent=True, max_offdiag_normalized=0.0, tol_used=1e-8,
                          histories=tuple((i,) for i in range(n)), names=(names,), labels=names,
                          probabilities=np.full(n, 1 / n), gram=None)
    new, old = Report("dhq edge"), _RowwiseReport("dhq edge")
    new.add_table("edges", (EDGE_LABELS + ["x"] * 2,), EDGE_PROBABILITIES)
    old.add_table("edges", zip(EDGE_LABELS + ["x"] * 2, EDGE_PROBABILITIES))
    new.add_table("empty", ([],), [])
    old.add_table("empty", [])
    new.attach_decoherence(big, prefix="coarse")
    old.attach_decoherence(big, prefix="coarse")
    assert new.to_text() == old.to_text()
    assert new.to_json() == old.to_json()
    assert "empty:\n" in new.to_text()


def _json_oracle(rep: Report) -> str:
    """The report's document dumped whole by json, rows included."""
    doc = {
        "command": rep.command,
        "tolerances": rep.tolerances,
        "verdicts": rep.verdicts,
        "scalars": {k: float(v) for k, v in rep.scalars.items()},
        "tables": [{"title": t, "rows": [[k, p] for k, p in zip(_reference_labels(names),
                                                                  probs.tolist())]}
                   for t, names, probs in rep.tables],
        "gram": rep.gram,
        "notes": rep.notes,
        "error": rep.error,
        "exit_status": rep.exit_status,
    }
    return json.dumps(doc, indent=2, sort_keys=True)


# Text that looks like the spliced key, in every string the document holds.
SPLICE_LIKE = ['"rows": []', '"rows": [', "rows", '\n      "rows": []']
texts = st.one_of(st.sampled_from(EDGE_LABELS + SPLICE_LIKE), st.text(max_size=8))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.lists(st.tuples(texts, st.lists(st.tuples(labels, probabilities), max_size=6)),
                max_size=3),
       st.lists(st.tuples(texts, st.lists(st.tuples(texts, st.floats()), max_size=4)), max_size=2),
       st.lists(decoherence_reports(), max_size=2),
       texts, st.lists(texts, max_size=3), st.none() | texts)
def test_json_rows_spliced_as_json_dumps_writes_them(tables, raw_tables, decoherence, command,
                                                     notes, error):
    rep = Report(command)
    rep.notes, rep.error = list(notes), error
    rep.scalars["rows"] = 0.5
    for title, rows in tables:
        rep.add_table(title, ([k for k, _ in rows],), [p for _, p in rows])
    for title, rows in raw_tables:  # stored as given: any float, NaN and infinities included
        rep.tables.append((title, ([k for k, _ in rows],), np.array([p for _, p in rows])))
    for i, dec in enumerate(decoherence):
        rep.attach_decoherence(dec, prefix=f"p{i}" if i else "")
    assert rep.to_json() == _json_oracle(rep)


def _rowwise_pair(tables):
    """A Report given each table's name axes, and a `_RowwiseReport` given its labelled rows."""
    new, old = Report("dhq axes"), _RowwiseReport("dhq axes")
    for title, names, probs in tables:
        new.add_table(title, names, probs)
        old.add_table(title, zip(_reference_labels(names), probs))
    return new, old


axes = st.lists(st.lists(labels, min_size=1, max_size=4).map(tuple), min_size=1, max_size=3)


@st.composite
def axis_tables(draw):
    """(title, name axes, probabilities): names of any lengths, one to three axes."""
    names = tuple(draw(axes))
    n = math.prod(map(len, names))
    return draw(texts), names, draw(st.lists(probabilities, min_size=n, max_size=n))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.lists(axis_tables(), max_size=3))
def test_tables_of_name_axes_match_the_rowwise_rule(tables):
    new, old = _rowwise_pair(tables)
    assert new.to_text() == old.to_text()
    assert new.to_json() == old.to_json()


def test_text_width_is_each_axis_longest_name():
    # Each axis's longest name sits in a different history, and (latest first) the longest
    # label pairs the longest of each: the width is their lengths plus the commas.
    names = (("a", "ééééé", "bb"), ("long-first", "x"), ("", "yy", "z"))
    probs = np.linspace(0, 1, 18)
    tables = [("three axes", names, probs),
              ("partition", (("class0", "merge-slits", "c"),), [0.25, 0.5, 0.25]),
              ("empty axis", (("a", "b"), ()), []),
              ("one class", (("all",),), [1.0])]
    new, old = _rowwise_pair(tables)
    assert new.to_text() == old.to_text()
    assert new.to_json() == old.to_json()
    width = 2 + 1 + 10 + 1 + 5  # the longest name of each axis, latest first, and two commas
    assert f"\n  yy,long-first,ééééé  {probs[7]:.12f}\n" in new.to_text()
    assert {len(line) for line in new.to_text().splitlines()[2:20]} == {2 + width + 2 + 14}


@pytest.mark.parametrize("rows", [ROW_CHUNK - 1, ROW_CHUNK, ROW_CHUNK + 1])
def test_tables_one_row_either_side_of_a_chunk(rows):
    names = (tuple(f"h{i}" for i in range(rows)),)
    probs = np.random.default_rng(rows).random(rows) / rows
    new, old = _rowwise_pair([("fine", names, probs), ("after", (("a", "b"),), [0.5, 0.5])])
    assert new.to_text() == old.to_text()
    assert new.to_json() == old.to_json()


@pytest.mark.parametrize("shape", [(3,), (2, 2), (5,), (2, 4), (3, 3), (3, 2, 2), (4, 1, 3)])
def test_tables_over_several_small_chunks(shape, monkeypatch):
    # With chunks of 4 rows, tables of 3, 4, 5, 8, 9 and 12 rows over one to three axes.
    monkeypatch.setattr(report, "ROW_CHUNK", 4)
    names = tuple(tuple(f"t{k}n{'x' * a}" for a in range(m)) for k, m in enumerate(shape))
    probs = np.arange(1, math.prod(shape) + 1) / 100
    new, old = _rowwise_pair([("small", names, probs), ("empty", ((),), [])])
    assert new.to_text() == old.to_text()
    assert new.to_json() == old.to_json()
