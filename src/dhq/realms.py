"""Coarse-graining, refinement joins, realm compatibility, conditioning.

A realm is a decoherent set of histories.  Compatibility of two realms is
decided through the canonical commuting refinement join: if the join exists
and decoheres the realms are compatible (the join is the witness); if it
exists but fails decoherence they are incompatible (the failing report is
the witness); if the sets at a shared time do not commute the verdict is
`undetermined`, since the product join is a sufficient construction, not a
necessary one.
"""

from __future__ import annotations

import numpy as np

from .decoherence import (
    TOL_DEC_DEFAULT,
    DecoherenceReport,
    branch_probabilities,
    decoherence_functional,
    decoherent_report,
    flat_indices,
    normalized_offdiag,  # noqa: F401 - unused, but perfbench/tracing.py rebinds it
    validate_partition,
)
from .errors import (
    ConditionOnNull,
    DimensionMismatch,
    InvalidPartition,
    NonCommutingSets,
    NotDecoherent,
)
from .histories import (
    AlternativeSet,
    HistoryGrid,
    branch_matrix,
    class_operator,  # noqa: F401 - unused, but perfbench/tracing.py rebinds it
    enumerate_histories,  # noqa: F401 - unused, but perfbench/tracing.py rebinds it
    history_array,
)
from .linalg import TOL_ALG, Projector, check_grid_size, max_abs
from .values import FrozenValue

# Products with norm below this are dropped from refinement joins, and
# conditioning on data less probable than this is an error rather than 0/0.
ZERO_PRODUCT_NORM = 1e-12
P_FLOOR = 1e-12


class Partition(FrozenValue):
    """Disjoint nonempty classes of histories covering a grid, each one `history_array`.

    Labels default to class0, class1, ...
    """

    _fields = ("classes", "labels")

    def __init__(self, classes: tuple[np.ndarray, ...], labels: tuple[str, ...] | None = None):
        classes = tuple(map(history_array, classes))
        labels = tuple(labels if labels is not None else (f"class{i}" for i in range(len(classes))))
        self._set(classes=classes, labels=labels)
        if len(labels) != len(classes):
            raise InvalidPartition("one label per class required")

    def _values(self) -> tuple:
        # Each class as its sorted histories: classes are equal when they hold the same ones.
        return tuple(tuple(sorted(map(tuple, c.tolist()))) for c in self.classes), self.labels


class Realm(FrozenValue):
    """A history grid together with its passing decoherence report."""

    _fields = ("grid", "report")

    def __init__(self, grid: HistoryGrid, report: DecoherenceReport):
        self._set(grid=grid, report=report)
        if not report.decoherent:
            raise NotDecoherent("a realm must decohere at its construction tolerance", report)

    @classmethod
    def from_grid(cls, grid: HistoryGrid, tol_dec: float = TOL_DEC_DEFAULT) -> "Realm":
        return cls(grid, decoherence_functional(grid, tol_dec=tol_dec))


class CompatibilityVerdict(FrozenValue):
    """Status `compatible`, `incompatible` or `undetermined`, with its witness and detail."""

    _fields = ("status", "witness_grid", "witness_report", "detail")

    def __init__(self, status: str, witness_grid: HistoryGrid | None = None,
                 witness_report: DecoherenceReport | None = None, detail: str = ""):
        self._set(status=status, witness_grid=witness_grid, witness_report=witness_report,
                  detail=detail)


class CoarseGraining(FrozenValue):
    """Coarse report of a partition and its largest sum-rule violation.

    The violation of class I is p(I) - sum of p(a) over a in I, the
    interference between members; it vanishes for a decoherent fine set.
    """

    _fields = ("grid", "partition", "report", "max_sum_rule_violation")

    def __init__(self, grid: HistoryGrid, partition: Partition, report: DecoherenceReport,
                 max_sum_rule_violation: float):
        self._set(grid=grid, partition=partition, report=report,
                  max_sum_rule_violation=max_sum_rule_violation)


def coarse_grain(
    grid: HistoryGrid, partition: Partition, tol_dec: float = TOL_DEC_DEFAULT
) -> CoarseGraining:
    """Coarse-grain by summing class operators: each class's branch is its members' summed rows.

    The partition is checked against the grid's shape before the branch pass, and the fine
    rows get no verdict: a set decoherent at tol_dec may coarse-grain to one that is not.
    """
    class_ids = validate_partition(partition.classes, grid.shape)
    return coarse_report(grid, branch_matrix(grid), tol_dec, partition, class_ids)


def coarse_report(grid: HistoryGrid, branches: np.ndarray, tol_dec: float, partition: Partition,
                  class_ids: np.ndarray) -> CoarseGraining:
    """Coarse-graining of a grid's fine branch rows: a summed row per class, as class operators add.

    `class_ids` is `validate_partition`'s id of each fine row.  One stable sort by it keeps
    each class's rows in enumeration order, the order they are summed in.
    """
    order = np.argsort(class_ids, kind="stable")
    counts = np.bincount(class_ids)
    starts = np.cumsum(counts) - counts
    rows = np.add.reduceat(branches[order], starts)
    member_sums = np.add.reduceat(branch_probabilities(branches)[order], starts)
    report = DecoherenceReport((partition.labels,), rows, tol_dec)
    violation = float(np.abs(report.probabilities - member_sums).max())
    return CoarseGraining(grid, partition, report, violation)


def _join_sets(sa: AlternativeSet, sb: AlternativeSet, time: float) -> AlternativeSet:
    """Product set {P_a Q_b} at a shared time, zero products dropped.

    Each member's matrix is formed once per join.  A zero member's products and commutators
    are zero, so only pairs of nonzero members are multiplied.
    """
    worst = 0.0
    kept = {}  # (ia, ib) -> (name, P Q): each product is formed once, for commutator and set
    qms = [(ib, q, qm) for ib, q in enumerate(sb.projectors) if (qm := q.matrix).any()]
    for ia, p in enumerate(sa.projectors):
        pm = p.matrix
        for ib, q, qm in qms if pm.any() else ():
            m = pm @ qm
            worst = max(worst, max_abs(m - qm @ pm))
            if max_abs(m) >= ZERO_PRODUCT_NORM:
                kept[ia, ib] = p.name if p.name == q.name else f"{p.name}&{q.name}", m
    if worst > TOL_ALG:
        raise NonCommutingSets(
            f"sets {sa.label!r} and {sb.label!r} at time {time} do not commute "
            f"(max commutator norm {worst:.3e})",
            worst,
        )
    pairs = tuple(kept)  # popped in order, so each product is freed once its projector is built
    projectors = tuple(Projector(0.5 * (m + m.conj().T), name=n) for n, m in map(kept.pop, pairs))
    label = f"{sa.label}&{sb.label}" if sa.label != sb.label else sa.label
    return AlternativeSet(time, projectors, label, provenance=pairs)


def check_joinable(a: HistoryGrid, b: HistoryGrid) -> None:
    """Refuse grids whose dimension, Hamiltonian or initial state differ, then an oversized join.

    The m_a m_b products of the join must fit `MAX_DENSE_ENTRIES` (GridTooLarge).  Only the
    grids' data and set sizes are read, so callers run it before any product or report is built.
    """
    if a.dim != b.dim:
        raise DimensionMismatch(f"grid dimensions differ: {a.dim} vs {b.dim}")
    with np.errstate(over="ignore"):  # entries near 1e308 may differ by inf, still > TOL_ALG
        if max_abs(a.hamiltonian.matrix - b.hamiltonian.matrix) > TOL_ALG:
            raise ValueError("grids have different Hamiltonians")
    if max_abs(a.initial_state.amplitudes - b.initial_state.amplitudes) > TOL_ALG:
        raise ValueError("grids have different initial states")
    sizes_a = {s.time: s.size for s in a.sets}
    sizes_b = {s.time: s.size for s in b.sets}
    products = sum(sizes_a.get(t, 1) * sizes_b.get(t, 1) for t in {*sizes_a, *sizes_b})
    check_grid_size(products, a.dim)


def refine_join(a: HistoryGrid, b: HistoryGrid) -> HistoryGrid:
    """Common fine-graining of two grids over the same H and initial state.

    Shared times get the commuting product set; non-shared times keep the
    original set (tagged with one-sided provenance) and interleave.  `check_joinable`
    refuses other grids, and a join over budget, before any product is formed.
    """
    check_joinable(a, b)
    by_time_a = {s.time: s for s in a.sets}
    by_time_b = {s.time: s for s in b.sets}
    sets = []
    for t in sorted({*by_time_a, *by_time_b}):
        sa, sb = by_time_a.get(t), by_time_b.get(t)
        if sa is not None and sb is not None:
            sets.append(_join_sets(sa, sb, t))
        else:
            s = sa or sb
            provenance = tuple((i, None) if sb is None else (None, i) for i in range(s.size))
            sets.append(AlternativeSet(t, s.projectors, s.label, provenance))
    return HistoryGrid(sets, a.hamiltonian, a.initial_state)


def check_compatibility(
    a: Realm, b: Realm, tol_dec: float = TOL_DEC_DEFAULT
) -> CompatibilityVerdict:
    """Decide realm compatibility through the commuting refinement join."""
    try:
        joined = refine_join(a.grid, b.grid)
    except NonCommutingSets as err:
        return CompatibilityVerdict(
            status="undetermined",
            detail=f"join construction unavailable: {err}",
        )
    report = decoherence_functional(joined, tol_dec=tol_dec)
    if report.decoherent:
        return CompatibilityVerdict("compatible", joined, report, "common fine-graining decoheres")
    return CompatibilityVerdict("incompatible", joined, report, "common fine-graining fails "
                                "decoherence (max normalized off-diagonal "
                                f"{report.max_offdiag_normalized:.3e})")


def conditional_probability(grid: HistoryGrid, target, given,
                            tol_dec: float = TOL_DEC_DEFAULT) -> float:
    """p(target | given) for histories of a decoherent set, summed by masks in enumeration order."""
    p = decoherent_report(grid, tol_dec=tol_dec).probabilities
    masks = []
    for rows in map(history_array, (target, given)):
        flat = flat_indices([rows], grid.shape)
        if (flat < 0).any():
            raise ValueError(f"unknown history {tuple(rows.tolist()[np.argmax(flat < 0)])}")
        masks.append(np.bincount(flat, minlength=len(p)) > 0)
    p_given = p[masks[1]].sum()
    if p_given <= P_FLOOR:
        raise ConditionOnNull(f"conditioning probability {p_given:.3e} <= {P_FLOOR:.0e}")
    return float(p[masks[0] & masks[1]].sum() / p_given)


def _conditioned_family(grid, data_name, data_time, *, future: bool, tol_dec: float):
    """Shared machinery for predict/retrodict per the chain-order rules.

    Builds the sub-grid of the data set plus the alternatives strictly on
    the requested side of the data time, verifies its decoherence, then
    divides its branch probabilities through the data alternative by the
    data probability: returned with the name axes, the data set's left out.
    """
    k_d, i_d = grid.locate(data_name, data_time)
    keep = range(k_d, grid.n_times) if future else range(k_d + 1)
    if len(keep) == 1:
        raise ValueError(
            f"no alternative sets {'after' if future else 'before'} the data time {data_time}"
        )
    sub = HistoryGrid([grid.sets[k] for k in keep], grid.hamiltonian, grid.initial_state)
    report = decoherence_functional(sub, tol_dec=tol_dec)
    if not report.decoherent:
        raise NotDecoherent(
            "the set of the data projector together with the conditioned "
            "alternatives fails decoherence "
            f"({report.max_offdiag_normalized:.3e} > {tol_dec:.3e})",
            report,
        )
    # Numerators ||C_fut P_d |Psi>||^2 or ||P_d C_pst |Psi>||^2: the sub-grid
    # histories through the data alternative, index i_d along the data axis of
    # the report's rows (still in enumeration order).  The other sets are complete,
    # so those branches sum to P_d(t_d)|Psi>, whose squared norm is the denominator.
    axis = keep.index(k_d)
    rows = np.take(report.branches.reshape(*sub.shape, sub.dim), i_d, axis=axis)
    p = np.take(report.probabilities.reshape(sub.shape), i_d, axis=axis).ravel()
    data_row = np.add.reduceat(rows.reshape(-1, sub.dim), [0])[0]  # in row order, as a class
    denom = float(np.vdot(data_row, data_row).real)
    if denom <= P_FLOOR:
        raise ConditionOnNull(f"data probability {denom:.3e} <= {P_FLOOR:.0e}")
    return tuple(s.names() for k, s in enumerate(sub.sets) if k != axis), p / denom


def predict(grid: HistoryGrid, data_name: str, data_time: float, tol_dec: float = TOL_DEC_DEFAULT):
    """(name axes, conditional probabilities) of the future alternatives given the data."""
    return _conditioned_family(grid, data_name, data_time, future=True, tol_dec=tol_dec)


def retrodict(
    grid: HistoryGrid, data_name: str, data_time: float, tol_dec: float = TOL_DEC_DEFAULT
):
    """(name axes, conditional probabilities) of the past alternatives given the data."""
    return _conditioned_family(grid, data_name, data_time, future=False, tol_dec=tol_dec)
