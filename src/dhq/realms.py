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

import itertools

import numpy as np

from .decoherence import (
    TOL_DEC_DEFAULT,
    DecoherenceReport,
    decoherence_functional,
    normalized_offdiag,  # noqa: F401 - unused, but perfbench/tracing.py rebinds it
    probabilities,
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
    branch_matrix,  # noqa: F401 - unused, but perfbench/tracing.py rebinds it
    class_operator,
    enumerate_histories,
)
from .linalg import TOL_ALG, Projector, check_grid_size, max_abs
from .values import FrozenValue

# Products with norm below this are dropped from refinement joins, and
# conditioning on data less probable than this is an error rather than 0/0.
ZERO_PRODUCT_NORM = 1e-12
P_FLOOR = 1e-12


class Partition(FrozenValue):
    """Disjoint nonempty classes of histories covering a grid."""

    _fields = ("classes", "labels")

    def __init__(self, classes: tuple[frozenset, ...], labels: tuple[str, ...]):
        classes = tuple(frozenset(map(tuple, c)) for c in classes)
        self._set(classes=classes, labels=labels)
        if len(labels) != len(classes):
            raise InvalidPartition("one label per class required")

    @classmethod
    def singletons(cls, histories) -> "Partition":
        hs = [tuple(h) for h in histories]
        return cls(tuple(frozenset([h]) for h in hs), tuple(str(h) for h in hs))

    @classmethod
    def from_lists(cls, classes, labels=None) -> "Partition":
        classes = tuple(frozenset(map(tuple, c)) for c in classes)
        if labels is None:
            labels = tuple(f"class{i}" for i in range(len(classes)))
        return cls(classes, tuple(labels))


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

    @property
    def class_operators(self) -> tuple[np.ndarray, ...]:
        """Summed class operator of each class, computed on access."""
        return tuple(
            sum(class_operator(self.grid, h) for h in sorted(cls)) for cls in self.partition.classes
        )


def coarse_grain(
    grid: HistoryGrid, partition: Partition, tol_dec: float = TOL_DEC_DEFAULT
) -> CoarseGraining:
    """Coarse-grain by summing class operators: each class's branch is its members' summed rows.

    The coarse verdict is its own: a set decoherent at tol_dec may coarse-grain to one that is not.
    """
    return coarse_report(grid, decoherence_functional(grid, tol_dec=tol_dec), partition)


def coarse_report(grid: HistoryGrid, fine: DecoherenceReport, partition: Partition):
    """Coarse-graining of the grid's fine report: one summed branch row per class."""
    validate_partition(partition.classes, fine.histories)
    rows, member_sums = fine.class_sums(partition.classes)
    coarse = tuple((i,) for i in range(len(rows)))
    report = DecoherenceReport(coarse, partition.labels, rows, fine.tol_used)
    violation = float(np.abs(report.probabilities - member_sums).max())
    return CoarseGraining(grid, partition, report, violation)


def _join_sets(sa: AlternativeSet, sb: AlternativeSet, time: float) -> AlternativeSet:
    """Product set {P_a Q_b} at a shared time, zero products dropped."""
    worst = 0.0
    kept = {}  # (ia, ib) -> (name, P Q): each product is formed once, for commutator and set
    for ia, p in enumerate(sa.projectors):
        for ib, q in enumerate(sb.projectors):
            m = p.matrix @ q.matrix
            worst = max(worst, max_abs(m - q.matrix @ p.matrix))
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


def check_join_size(a: HistoryGrid, b: HistoryGrid) -> None:
    """Raise GridTooLarge unless the m_a m_b products of the join fit `MAX_DENSE_ENTRIES`.

    Only set sizes are read, so callers run it before any product or report is built.
    """
    sizes_a = {s.time: s.size for s in a.sets}
    sizes_b = {s.time: s.size for s in b.sets}
    products = sum(sizes_a.get(t, 1) * sizes_b.get(t, 1) for t in {*sizes_a, *sizes_b})
    check_grid_size(products, a.dim)


def refine_join(a: HistoryGrid, b: HistoryGrid) -> HistoryGrid:
    """Common fine-graining of two grids over the same H and initial state.

    Shared times get the commuting product set; non-shared times keep the
    original set (tagged with one-sided provenance) and interleave.  All m_a m_b
    products are counted against `MAX_DENSE_ENTRIES` before any is formed.
    """
    if a.dim != b.dim:
        raise DimensionMismatch(f"grid dimensions differ: {a.dim} vs {b.dim}")
    with np.errstate(over="ignore"):  # entries near 1e308 may differ by inf, still > TOL_ALG
        if max_abs(a.hamiltonian.matrix - b.hamiltonian.matrix) > TOL_ALG:
            raise ValueError("grids have different Hamiltonians")
    if max_abs(a.initial_state.amplitudes - b.initial_state.amplitudes) > TOL_ALG:
        raise ValueError("grids have different initial states")
    check_join_size(a, b)
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


def marginal_partition(joined: HistoryGrid, side: int) -> Partition:
    """Partition of a joined grid's histories by one parent's alternatives.

    side 0 groups by the first parent's indices, side 1 by the second's.
    Requires the provenance tags written by refine_join.
    """
    if side not in (0, 1):
        raise ValueError("side must be 0 or 1")
    histories = enumerate_histories(joined)
    groups: dict[tuple, list] = {}
    for h in histories:
        key = []
        for k, a in enumerate(h):
            prov = joined.sets[k].provenance
            if prov is None:
                raise ValueError("grid lacks join provenance")
            parent = prov[a][side]
            if parent is not None:
                key.append(parent)
        groups.setdefault(tuple(key), []).append(h)
    keys = sorted(groups)
    return Partition.from_lists([groups[k] for k in keys], [str(k) for k in keys])


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
        return CompatibilityVerdict(
            status="compatible",
            witness_grid=joined,
            witness_report=report,
            detail="common fine-graining decoheres",
        )
    return CompatibilityVerdict(
        status="incompatible",
        witness_grid=joined,
        witness_report=report,
        detail=(
            "common fine-graining fails decoherence "
            f"(max normalized off-diagonal {report.max_offdiag_normalized:.3e})"
        ),
    )


def conditional_probability(
    grid: HistoryGrid, target, given, tol_dec: float = TOL_DEC_DEFAULT
) -> float:
    """p(target | given) over a decoherent set of histories."""
    probs = dict(probabilities(grid, tol_dec=tol_dec))
    target = {tuple(h) for h in target}
    given = {tuple(h) for h in given}
    for h in target | given:
        if h not in probs:
            raise ValueError(f"unknown history {h}")
    p_given = sum(probs[h] for h in given)
    if p_given <= P_FLOOR:
        raise ConditionOnNull(f"conditioning probability {p_given:.3e} <= {P_FLOOR:.0e}")
    p_joint = sum(probs[h] for h in target & given)
    return p_joint / p_given


def _conditioned_family(grid, data_name, data_time, *, future: bool, tol_dec: float):
    """Shared machinery for predict/retrodict per the chain-order rules.

    Builds the sub-grid of the data set plus the alternatives strictly on
    the requested side of the data time, verifies its decoherence, then
    divides its branch probabilities through the data alternative by the
    data probability.
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
    data_row = np.add.reduceat(rows.reshape(-1, sub.dim), [0])[0]  # in row order, as `class_sums`
    denom = float(np.vdot(data_row, data_row).real)
    if denom <= P_FLOOR:
        raise ConditionOnNull(f"data probability {denom:.3e} <= {P_FLOOR:.0e}")
    combos = itertools.product(*(range(m) for m in rows.shape[:-1]))
    labels = sub.history_labels(skip=axis)
    return [(combo, label, float(q) / denom) for combo, label, q in zip(combos, labels, p)]


def predict(grid: HistoryGrid, data_name: str, data_time: float, tol_dec: float = TOL_DEC_DEFAULT):
    """Conditional probabilities of the future alternatives given the data."""
    return _conditioned_family(grid, data_name, data_time, future=True, tol_dec=tol_dec)


def retrodict(
    grid: HistoryGrid, data_name: str, data_time: float, tol_dec: float = TOL_DEC_DEFAULT
):
    """Conditional probabilities of the past alternatives given the data."""
    return _conditioned_family(grid, data_name, data_time, future=False, tol_dec=tol_dec)
