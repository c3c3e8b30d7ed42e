"""Decoherence functional, medium-decoherence verdicts, history probabilities.

The decoherence criterion is scale-invariant: every pair of branches must
satisfy |<Psi_a|Psi_b>| / sqrt(p_a p_b) <= tol_dec.  Branches whose
probability falls below an absolute floor are treated as non-interfering
(a never-occurring history cannot carry interference).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidPartition, NotDecoherent
from .histories import HistoryGrid, HistoryIndex, branch_matrix, enumerate_histories
from .linalg import TOL_ALG, check_gram_size, max_abs

TOL_DEC_DEFAULT = 1e-8

# Absolute floor added to the geometric-mean denominator, and the diagonal
# level below which a branch counts as zero-norm.
OFFDIAG_FLOOR = 1e-14

# Edge of the square tiles every N x N loop walks.  Fixed, never derived from
# the BLAS thread count, so reports are byte-identical across thread counts.
GRAM_TILE = 256


def _tiles(n: int):
    """Upper-triangle tiles of an n x n matrix as (rows, cols, on_diagonal) slices."""
    # A last tile one row wide would go through gemv, which rounds unlike gemm: fold it in.
    edges = [*range(0, max(n - 1, 1), GRAM_TILE), n]
    for a, (i, k) in enumerate(zip(edges, edges[1:])):
        for j, m in zip(edges[a:], edges[a + 1:]):
            yield slice(i, k), slice(j, m), i == j


def gram_matrix(branches: np.ndarray) -> np.ndarray:
    """D = conj(B) B^T from upper tiles: off-diagonal ones mirrored, diagonal ones symmetrized."""
    n = branches.shape[0]
    gram = np.empty((n, n), dtype=np.complex128)
    left = branches.conj()
    for rows, cols, on_diagonal in _tiles(n):
        t = left[rows] @ branches[cols].T
        if on_diagonal:
            gram[rows, cols] = 0.5 * (t + t.conj().T)
        else:
            gram[rows, cols] = t
            gram[cols, rows] = t.conj().T
    return gram


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
        tiles = _tiles(len(g))
        herm = np.max([max_abs(g[r, c] - g[c, r].conj().T) for r, c, _ in tiles], initial=0.0)
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
        """Report of a Hermitian Gram matrix: probabilities and verdict."""
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
        """Hermitian block sums S^T D S of the Gram matrix over disjoint classes of histories.

        S is the class-indicator matrix.  Also returns the largest sum-rule
        violation |p(I) - sum_{a in I} p(a)|, the interference within a class.
        """
        order = {h: i for i, h in enumerate(self.histories)}
        rows = [[order[h] for h in sorted(cls)] for cls in classes]
        perm = np.array([i for r in rows for i in r])
        starts = np.cumsum([0] + [len(r) for r in rows[:-1]])
        # One class's rows at a time, so no permuted N x N copy of the Gram matrix is formed.
        sums = np.vstack([np.add.reduceat(self.gram[np.ix_(r, perm)], [0]) for r in rows])
        sums = np.add.reduceat(sums, starts, axis=1)
        sums = 0.5 * (sums + sums.conj().T)
        violation = np.abs(sums.diagonal().real - np.add.reduceat(self.probabilities[perm], starts))
        return sums, float(violation.max())


def normalized_offdiag(gram: np.ndarray) -> float:
    """Max of |D(a,b)| / (sqrt(|p_a p_b|) + floor) over live a != b of a Hermitian D."""
    d = gram.diagonal().real
    n = d.size
    if n < 2:
        return 0.0
    live = d >= OFFDIAG_FLOOR
    p = np.abs(d)
    worst = []
    for rows, cols, on_diagonal in _tiles(n):
        ratio = np.abs(gram[rows, cols]) / (np.sqrt(np.outer(p[rows], p[cols])) + OFFDIAG_FLOOR)
        ratio[~live[rows], :] = 0.0
        ratio[:, ~live[cols]] = 0.0
        if on_diagonal:
            np.fill_diagonal(ratio, 0.0)
        worst.append(ratio.max())
    return float(np.max(worst))


def decoherence_functional(grid: HistoryGrid, tol_dec: float = TOL_DEC_DEFAULT) -> DecoherenceReport:
    """Gram matrix D(a,b) = <Psi_a|Psi_b> over all histories, with verdict."""
    check_gram_size(grid.history_count())  # before a single history is listed
    histories = enumerate_histories(grid)
    branches = branch_matrix(grid)
    labels = [grid.history_label(h) for h in histories]
    return DecoherenceReport.from_gram(histories, labels, gram_matrix(branches), tol_dec)


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
