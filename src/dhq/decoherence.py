"""Decoherence functional, medium-decoherence verdicts, history probabilities.

The decoherence criterion is scale-invariant: every pair of branches must
satisfy |<Psi_a|Psi_b>| / sqrt(p_a p_b) <= tol_dec.  Branches whose
probability falls below an absolute floor are treated as non-interfering
(a never-occurring history cannot carry interference), so the verdict is
decided over the live branch rows alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidPartition, NotDecoherent
from .histories import HistoryGrid, HistoryIndex, branch_matrix, enumerate_histories
from .linalg import TOL_ALG, check_dense_size, check_rows_size

TOL_DEC_DEFAULT = 1e-8

# Absolute floor added to the geometric-mean denominator, and the probability
# below which a branch counts as zero-norm (dead).
OFFDIAG_FLOOR = 1e-14

# Edge of the square tiles every pairwise loop walks.  Fixed, never derived from
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


def branch_probabilities(branches: np.ndarray) -> np.ndarray:
    """Squared row norms p_a = ||Psi_a||^2, each summed on its own row without BLAS."""
    x = np.ascontiguousarray(branches, dtype=np.complex128).view(np.float64)
    return np.einsum("ij,ij->i", x, x)


def normalized_offdiag(branches: np.ndarray, probabilities: np.ndarray) -> float:
    """Max of |D(a,b)| / (sqrt(p_a p_b) + floor) over live rows a != b, D(a,b) = <Psi_a|Psi_b>.

    Only the L rows with p >= OFFDIAG_FLOOR enter.  Their L^2 pairs are checked against the
    budget, then walked in the `_tiles` of the live rows, so no N x N or L x L array is formed.
    """
    live = probabilities >= OFFDIAG_FLOOR
    rows, p = (branches, probabilities) if live.all() else (branches[live], probabilities[live])
    n = len(p)
    check_dense_size(n * n, f"{n}^2 pairs of live branch rows")
    if n < 2:
        return 0.0
    left = rows.conj()
    worst = 0.0
    for r, c, on_diagonal in _tiles(n):
        t = left[r] @ rows[c].T
        if on_diagonal:
            t = 0.5 * (t + t.conj().T)
            np.fill_diagonal(t, 0.0)
        denominator = np.sqrt(np.outer(p[r], p[c]))
        denominator += OFFDIAG_FLOOR
        worst = max(worst, float((np.abs(t) / denominator).max()))
    return worst


@dataclass(frozen=True)
class DecoherenceReport:
    """Branch rows of a set of histories, with their probabilities and verdict.

    Row a of `branches` is C_a|Psi>; every other number is formed from the rows here.
    """

    histories: tuple[HistoryIndex, ...]
    labels: tuple[str, ...]
    branches: np.ndarray
    tol_used: float
    probabilities: np.ndarray = field(init=False)
    max_offdiag_normalized: float = field(init=False)
    decoherent: bool = field(init=False)

    def __post_init__(self):
        rows = self.branches
        if not len(rows) == len(self.histories) == len(self.labels):
            raise ValueError(f"{len(rows)} branch rows for {len(self.histories)} histories "
                             f"and {len(self.labels)} labels")
        state = rows.sum(axis=0)  # the sum of all D(a,b) is ||sum of rows||^2
        total = float(np.vdot(state, state).real)
        if not abs(total - 1.0) <= TOL_ALG:  # so that NaN fails too
            raise AssertionError(f"gram entries sum to {total!r}, expected 1")
        p = branch_probabilities(rows)
        worst = normalized_offdiag(rows, p)
        object.__setattr__(self, "probabilities", p)
        object.__setattr__(self, "max_offdiag_normalized", worst)
        object.__setattr__(self, "decoherent", worst <= self.tol_used)
        for array in (rows, p):
            array.setflags(write=False)

    @property
    def gram(self) -> np.ndarray:
        """The N x N Gram matrix D(a,b) = <Psi_a|Psi_b>, formed on each access if it fits."""
        n = len(self.branches)
        check_dense_size(n * n, f"{n}^2 Gram entries of {n} histories")
        gram = gram_matrix(self.branches)
        gram.setflags(write=False)
        return gram

    def probability_of(self, h: HistoryIndex) -> float:
        return float(self.probabilities[self.histories.index(tuple(h))])

    def class_sums(self, classes) -> tuple[np.ndarray, np.ndarray]:
        """Summed branch rows and summed member probabilities of disjoint classes of histories.

        Class operators add, so a class's branch is the sum of its members'
        branches: its squared norm is p(class), which differs from the member
        sum by the interference within the class.
        """
        order = {h: i for i, h in enumerate(self.histories)}
        members = [[order[h] for h in sorted(cls)] for cls in classes]
        perm = [i for m in members for i in m]
        starts = np.cumsum([0] + [len(m) for m in members[:-1]])
        return (
            np.add.reduceat(self.branches[perm], starts),
            np.add.reduceat(self.probabilities[perm], starts),
        )


def decoherence_functional(grid: HistoryGrid, tol_dec: float = TOL_DEC_DEFAULT) -> DecoherenceReport:
    """Report of every history's branch row: probabilities and the verdict over the live rows."""
    check_rows_size(grid.history_count(), grid.dim)  # before a single history is listed
    histories = enumerate_histories(grid)
    labels = [grid.history_label(h) for h in histories]
    return DecoherenceReport(tuple(histories), tuple(labels), branch_matrix(grid), tol_dec)


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
