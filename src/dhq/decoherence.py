"""Decoherence functional, medium-decoherence verdicts, history probabilities.

The decoherence criterion is scale-invariant: every pair of branches must
satisfy |<Psi_a|Psi_b>| / sqrt(p_a p_b) <= tol_dec.  Branches whose
probability falls below an absolute floor are treated as non-interfering
(a never-occurring history cannot carry interference).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridTooLarge, InvalidPartition, NotDecoherent
from .histories import HistoryGrid, HistoryIndex, branch_matrix, enumerate_histories
from .linalg import TOL_ALG, max_abs

TOL_DEC_DEFAULT = 1e-8

# Absolute floor added to the geometric-mean denominator, and the diagonal
# level below which a branch counts as zero-norm.
OFFDIAG_FLOOR = 1e-14

# Gram matrices are dense over history pairs; refuse combinatorial blowups.
GRAM_CAP = 4096


@dataclass(frozen=True)
class DecoherenceReport:
    """Gram matrix of branch overlaps with probabilities and a verdict."""

    histories: tuple[HistoryIndex, ...]
    labels: tuple[str, ...]
    gram: np.ndarray
    probabilities: np.ndarray
    max_offdiag_normalized: float
    decoherent: bool
    tol_used: float

    def __post_init__(self):
        g = self.gram
        herm = max_abs(g - g.conj().T)
        if herm > TOL_ALG:
            raise AssertionError(f"gram matrix not Hermitian: {herm:.3e}")
        if self.probabilities.size and float(self.probabilities.min()) < -TOL_ALG:
            raise AssertionError("negative branch probability beyond tolerance")
        total = complex(g.sum())
        if abs(total - 1.0) > TOL_ALG:
            raise AssertionError(f"gram entries sum to {total!r}, expected 1")
        self.gram.setflags(write=False)
        self.probabilities.setflags(write=False)

    @classmethod
    def from_gram(cls, histories, labels, gram: np.ndarray, tol_dec: float) -> "DecoherenceReport":
        """Report of a Gram matrix: symmetrized once, then probabilities and verdict."""
        gram = 0.5 * (gram + gram.conj().T)
        worst = normalized_offdiag(gram)
        return cls(
            histories=tuple(histories),
            labels=tuple(labels),
            gram=gram,
            probabilities=gram.diagonal().real.copy(),
            max_offdiag_normalized=worst,
            decoherent=worst <= tol_dec,
            tol_used=float(tol_dec),
        )

    def probability_of(self, h: HistoryIndex) -> float:
        return float(self.probabilities[self.histories.index(tuple(h))])

    def class_sums(self, classes) -> tuple[np.ndarray, float]:
        """Block sums S^T D S of the Gram matrix over disjoint classes of histories.

        S is the class-indicator matrix.  Also returns the largest sum-rule
        violation |p(I) - sum_{a in I} p(a)|, the interference within a class.
        """
        order = {h: i for i, h in enumerate(self.histories)}
        perm = np.array([order[h] for cls in classes for h in sorted(cls)])
        starts = np.cumsum([0] + [len(cls) for cls in classes[:-1]])
        blocks = self.gram[np.ix_(perm, perm)]
        sums = np.add.reduceat(np.add.reduceat(blocks, starts, axis=0), starts, axis=1)
        violation = np.abs(sums.diagonal().real - np.add.reduceat(self.probabilities[perm], starts))
        return sums, float(violation.max())


def normalized_offdiag(gram: np.ndarray) -> float:
    d = gram.diagonal().real
    n = d.size
    if n < 2:
        return 0.0
    live = d >= OFFDIAG_FLOOR
    denom = np.sqrt(np.outer(np.abs(d), np.abs(d))) + OFFDIAG_FLOOR
    ratio = np.abs(gram) / denom
    ratio[~live, :] = 0.0
    ratio[:, ~live] = 0.0
    np.fill_diagonal(ratio, 0.0)
    return float(ratio.max())


def decoherence_functional(grid: HistoryGrid, tol_dec: float = TOL_DEC_DEFAULT) -> DecoherenceReport:
    """Gram matrix D(a,b) = <Psi_a|Psi_b> over all histories, with verdict."""
    n = grid.history_count()
    if n > GRAM_CAP:
        raise GridTooLarge(f"{n} histories would need a {n}^2 Gram matrix (cap {GRAM_CAP})")
    histories = enumerate_histories(grid)
    branches = branch_matrix(grid)
    labels = [grid.history_label(h) for h in histories]
    return DecoherenceReport.from_gram(histories, labels, branches.conj() @ branches.T, tol_dec)


def probabilities(
    grid: HistoryGrid, tol_dec: float = TOL_DEC_DEFAULT
) -> list[tuple[HistoryIndex, float]]:
    """History probabilities p(a) = ||C_a |Psi>||^2 for a decoherent grid.

    Raises NotDecoherent (carrying the report) when the set fails the
    medium-decoherence check.
    """
    report = decoherence_functional(grid, tol_dec=tol_dec)
    if not report.decoherent:
        raise NotDecoherent(
            f"set fails decoherence: max normalized off-diagonal "
            f"{report.max_offdiag_normalized:.3e} > {tol_dec:.3e}",
            report,
        )
    return list(zip(report.histories, (float(p) for p in report.probabilities)))


def validate_partition(classes, histories) -> None:
    """Check that the classes are disjoint, nonempty, and exhaustive."""
    all_h = set(histories)
    seen: set = set()
    for i, cls in enumerate(classes):
        if not cls:
            raise InvalidPartition(f"class {i} is empty")
        for h in cls:
            if h not in all_h:
                raise InvalidPartition(f"class {i} contains unknown history {h}")
            if h in seen:
                raise InvalidPartition(f"history {h} appears in more than one class")
            seen.add(h)
    if seen != all_h:
        missing = sorted(all_h - seen)[:4]
        raise InvalidPartition(f"partition misses histories, e.g. {missing}")


def check_sum_rules(grid: HistoryGrid, partition) -> float:
    """Max violation of p(class) = sum of member candidate probabilities.

    The class probability is the squared norm of the summed class operator
    applied to the initial state; exact decoherence makes the violation
    vanish, interference shows up as a nonzero value.
    """
    histories = enumerate_histories(grid)
    classes = [frozenset(map(tuple, cls)) for cls in partition.classes]
    validate_partition(classes, histories)
    branches = dict(zip(histories, branch_matrix(grid)))
    worst = 0.0
    for cls in classes:
        coarse = sum(branches[h] for h in sorted(cls))
        p_coarse = float(np.vdot(coarse, coarse).real)
        p_sum = float(sum(np.vdot(branches[h], branches[h]).real for h in sorted(cls)))
        worst = max(worst, abs(p_coarse - p_sum))
    return worst
