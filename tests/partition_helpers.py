"""Partitions, history labels and class operators that only the tests build.

No command needs them: `singletons` and `marginal_partition` make partitions of
a grid's histories, `history_label` names one history, the reference for
`histories.history_labels`, `named_rows` pairs a table's labels with its
probabilities, `probabilities` pairs each history with its probability, and
`class_operators` sums the explicit Heisenberg chains of a coarse-graining's
classes, the reference its summed rows are tested against.
"""

from __future__ import annotations

import numpy as np

from dhq.decoherence import TOL_DEC_DEFAULT, decoherent_report
from dhq.histories import HistoryGrid, class_operator, enumerate_histories, history_labels
from dhq.realms import CoarseGraining, Partition


def singletons(histories) -> Partition:
    """One class per history, labelled by its tuple."""
    hs = [tuple(h) for h in histories]
    return Partition(tuple([h] for h in hs), tuple(str(h) for h in hs))


def history_label(grid: HistoryGrid, h) -> str:
    """Chain notation: projector names, latest time leftmost."""
    return ",".join(grid.sets[k].projectors[h[k]].name for k in reversed(range(len(h))))


def named_rows(names, probabilities) -> list[tuple[str, float]]:
    """(label, probability) of each row of a table given by its name axes, in row order."""
    return list(zip(history_labels(names), np.asarray(probabilities).tolist(), strict=True))


def probabilities(grid: HistoryGrid,
                  tol_dec: float = TOL_DEC_DEFAULT) -> list[tuple[tuple[int, ...], float]]:
    """(history, p) of each history of a grid's `decoherent_report`, in enumeration order."""
    report = decoherent_report(grid, tol_dec=tol_dec)
    return list(zip(enumerate_histories(grid), (float(p) for p in report.probabilities)))


def marginal_partition(joined: HistoryGrid, side: int) -> Partition:
    """Partition of a joined grid's histories by one parent's alternatives.

    side 0 groups by the first parent's indices, side 1 by the second's.
    Requires the provenance tags written by refine_join.
    """
    if side not in (0, 1):
        raise ValueError("side must be 0 or 1")
    provs = [s.provenance for s in joined.sets]
    if None in provs:
        raise ValueError("grid lacks join provenance")
    groups: dict[tuple, list] = {}
    for h in enumerate_histories(joined):
        key = tuple(p[a][side] for p, a in zip(provs, h) if p[a][side] is not None)
        groups.setdefault(key, []).append(h)
    keys = sorted(groups)
    return Partition([groups[k] for k in keys], [str(k) for k in keys])


def class_operators(cg: CoarseGraining) -> tuple[np.ndarray, ...]:
    """Summed class operator of each class of a coarse-graining."""
    return tuple(
        sum(class_operator(cg.grid, h) for h in sorted(map(tuple, cls.tolist())))
        for cls in cg.partition.classes
    )
