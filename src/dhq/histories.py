"""Time-indexed alternative sets, history enumeration, class operators.

A history grid holds one exhaustive set of exclusive alternatives per time
(strictly increasing, finite times), a Hamiltonian, and a normalized initial
state.  Projectors are stored in the Schroedinger picture; all branch vectors
are built in one pass, stepped by e^{-iH dt} between times.  `class_operator` and
`branch_vector` are the explicit Heisenberg-picture chains, the reference the
fast pass is tested against.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import DimensionMismatch
from .linalg import (
    TOL_ALG,
    Hamiltonian,
    Projector,
    StateVector,
    check_dense_size,
    check_rows_size,
    evolve_heisenberg,
    max_abs,
    propagator,
)
from .values import FrozenValue

# A history is a plain tuple of per-time alternative indices.
HistoryIndex = tuple[int, ...]


def history_array(histories) -> np.ndarray:
    """Histories as rows in order: (k, n) int64 if each is n integers, else an object array."""
    rows = histories if isinstance(histories, np.ndarray) else list(histories)
    try:
        a = np.asarray(rows)
        if a.ndim == 2 and (a.dtype.kind == "i" or not a.size):
            return a.astype(np.int64, copy=False)
    except ValueError:  # rows of mixed lengths
        pass
    return np.array(rows, dtype=object)


class AlternativeSet(FrozenValue):
    """Exhaustive set of exclusive alternatives {P_a} at one time.

    Invariants: sum_a P_a = I and P_a P_b = delta_ab P_a, both at TOL_ALG.
    `provenance` is filled by refinement joins to remember which pair of
    parent alternatives each product projector came from.
    """

    _fields = ("time", "projectors", "label", "provenance")

    def __init__(self, time: float, projectors: tuple[Projector, ...], label: str = "",
                 provenance: tuple[tuple[int | None, int | None], ...] | None = None):
        self._set(time=time, projectors=projectors, label=label, provenance=provenance)
        self.__post_init__()

    def __post_init__(self):
        ps = tuple(self.projectors)
        if not ps:
            raise ValueError(f"alternative set {self.label!r}: no projectors")
        self._set(projectors=ps)
        dim = ps[0].dim
        if any(p.dim != dim for p in ps):
            raise DimensionMismatch(f"alternative set {self.label!r}: mixed dimensions")
        # A certificate is tried only when the ranks sum to d, so that W below is square.
        certified, square = False, sum(p.rank for p in ps) == dim
        if square and all(p.basis is not None for p in ps):
            # 0/1 diagonals over disjoint index lists that cover range(d) sum to I exactly.
            certified = sorted(itertools.chain.from_iterable(p.basis for p in ps)) == [*range(dim)]
        elif square and all(p.isometry is not None for p in ps):
            # ||W W^dag - I||_2 = ||G - I||_2 <= ||G - I||_F for G = W^dag W: G certifies
            # completeness, and, through its blocks, exclusivity and each member.
            w = np.hstack([p.isometry for p in ps])
            certified = np.linalg.norm(w.conj().T @ w - np.eye(dim)) <= TOL_ALG / 2
        if not certified:  # the dense checks, which name the defect
            total = ps[0].matrix.copy()
            for p in ps[1:]:
                total += p.matrix
            total.flat[:: dim + 1] -= 1.0  # sum P - I, summed in place
            comp = max_abs(total)
            if comp > TOL_ALG:
                raise ValueError(
                    f"alternative set {self.label!r}: completeness violated, "
                    f"||sum P - I|| = {comp:.3e}"
                )
            check_exclusive(ps, self.label)
        if self.provenance is not None and len(self.provenance) != len(ps):
            raise ValueError(f"alternative set {self.label!r}: provenance length mismatch")

    @property
    def dim(self) -> int:
        return self.projectors[0].dim

    @property
    def size(self) -> int:
        return len(self.projectors)

    def names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.projectors)

    def index_of(self, name: str) -> int:
        for i, p in enumerate(self.projectors):
            if p.name == name:
                return i
        raise KeyError(f"no projector named {name!r} in set {self.label!r}")


def check_exclusive(projectors, label: str = "") -> None:
    """Raise ValueError naming the first pair (i, j > i) with ||P_i P_j|| > TOL_ALG.

    Each P_i gets orthonormal columns Q_i: its kept isometry, or else its block of one
    `eigh` of sum_k (k+1) P_k over the others (ascending: zero eigenspace, then each block).
    With e_i = ||P_i - Q_i Q_i^dag||_F (0 for a kept isometry), one product W^dag W of
    W = [Q_1 ... Q_m] bounds every pair: ||P_i P_j||_max <= ||Q_i^dag Q_j||_F + e_i + e_j
    + e_i e_j.  Pairs bounded by TOL_ALG/2 are certified; only the others are multiplied
    out, in (i, j) order.  Its m x m arrays are checked against the dense budget first.
    """
    check_dense_size(len(projectors) ** 2, f"{len(projectors)}^2 pairs of projectors")
    dim = projectors[0].dim
    qs = [np.zeros((dim, 0)) if p.isometry is None else p.isometry for p in projectors]
    rest = [i for i, p in enumerate(projectors) if p.isometry is None]
    ranks = [projectors[i].rank for i in rest]
    if rest and sum(ranks) <= dim:  # else they keep no columns, and e_i = ||P_i||_F
        a = sum((k + 1) * projectors[i].matrix for k, i in enumerate(rest))
        v = np.linalg.eigh(a if a.imag.any() else a.real)[1]  # a real eigh is ~5x cheaper
        for i, stop, r in zip(rest, dim - sum(ranks) + np.cumsum(ranks), ranks):
            qs[i] = v[:, stop - r : stop]
    w = np.hstack(qs)
    gram = w.conj().T @ w
    # Block sums of |W^dag W|^2 through the column-to-projector indicator (blocks may be empty).
    s = np.repeat(np.eye(len(qs)), [q.shape[1] for q in qs], axis=0)
    bound = np.sqrt(b := s.T @ np.abs(gram) ** 2 @ s, out=b)  # in place: one m x m array
    if rest:  # + e_i + e_j + e_i e_j, row by row
        e = np.zeros(len(qs))
        e[rest] = [np.linalg.norm(projectors[i].matrix - qs[i] @ qs[i].conj().T) for i in rest]
        for row, f in zip(bound, 1 + e):
            row += f * (1 + e) - 1
    for i, j in zip(*np.nonzero(bound > TOL_ALG / 2)):
        x = max_abs(projectors[i].matrix @ projectors[j].matrix) if i < j else 0.0
        if x > TOL_ALG:
            raise ValueError(
                f"alternative set {label!r}: projectors {projectors[i].name!r} and "
                f"{projectors[j].name!r} are not exclusive, ||P Q|| = {x:.3e}"
            )


class HistoryGrid:
    """Ordered times t_1 < ... < t_n with one AlternativeSet each.

    Immutable after construction; grids over one Hamiltonian share its eigenbasis.
    """

    def __init__(self, sets, hamiltonian: Hamiltonian, initial_state: StateVector):
        sets = tuple(sets)
        if not sets:
            raise ValueError("grid needs at least one alternative set")
        times = tuple(float(s.time) for s in sets)
        if not all(math.isfinite(t) for t in times):
            raise ValueError(f"times must be finite, got {times}")
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise ValueError(f"times must be strictly increasing, got {times}")
        dim = sets[0].dim
        if any(s.dim != dim for s in sets):
            raise DimensionMismatch("alternative sets have mixed dimensions")
        if hamiltonian.dim != dim:
            raise DimensionMismatch(f"Hamiltonian dim {hamiltonian.dim} != grid dim {dim}")
        if initial_state.dim != dim:
            raise DimensionMismatch(f"initial state dim {initial_state.dim} != grid dim {dim}")
        if not hamiltonian.is_zero:  # the phases w dt of `branch_matrix`'s t_1, t_k - t_{k-1}, -t_n
            with np.errstate(over="ignore", invalid="ignore"):
                phases = np.outer(hamiltonian.eigenbasis[0], np.diff((0.0, *times, 0.0)))
            if not np.isfinite(phases).all():
                raise ValueError(f"evolution phases w dt overflow between the times {times}")
        if not initial_state.normalized:
            initial_state = StateVector(initial_state.amplitudes, normalized=True)
        self.sets = sets
        self.times = times
        self.hamiltonian = hamiltonian
        self.initial_state = initial_state

    @property
    def dim(self) -> int:
        return self.sets[0].dim

    @property
    def n_times(self) -> int:
        return len(self.sets)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(s.size for s in self.sets)

    def history_count(self) -> int:
        return math.prod(self.shape)

    def history_label(self, h: HistoryIndex) -> str:
        """Chain notation: projector names, latest time leftmost."""
        return ",".join(self.sets[k].projectors[h[k]].name for k in reversed(range(len(h))))

    def history_labels(self, skip: int | None = None) -> list[str]:
        """`history_label` of every history in enumeration order, the set at `skip` left out."""
        names = itertools.product(*(s.names() for k, s in enumerate(self.sets) if k != skip))
        return [",".join(reversed(chain)) for chain in names]

    def locate(self, name: str, time: float) -> tuple[int, int]:
        """(time index, alternative index) of the alternative `name` in the set at `time`."""
        for k, s in enumerate(self.sets):
            if s.time == time:
                return k, s.index_of(name)
        raise KeyError(f"no alternative set at time {time!r}")


def enumerate_histories(grid: HistoryGrid) -> list[HistoryIndex]:
    """All histories in lexicographic order, first time slowest-varying, if their rows fit."""
    check_rows_size(grid.history_count(), grid.dim)
    return list(itertools.product(*(range(s.size) for s in grid.sets)))


def class_operator(grid: HistoryGrid, h: HistoryIndex) -> np.ndarray:
    """Chain of Heisenberg projections, latest time leftmost."""
    if len(h) != grid.n_times or not all(0 <= a < m for a, m in zip(h, grid.shape)):
        raise ValueError(f"history {h} is not one of the {grid.shape} grid's histories")
    m = np.eye(grid.dim, dtype=np.complex128)
    for k, s in enumerate(grid.sets):
        m = evolve_heisenberg(s.projectors[h[k]], grid.hamiltonian, grid.times[k]).matrix @ m
    return m


def branch_vector(grid: HistoryGrid, h: HistoryIndex) -> np.ndarray:
    """Unnormalized branch state: the class operator applied to the initial state.

    Its squared norm is the history's candidate probability.
    """
    return class_operator(grid, h) @ grid.initial_state.amplitudes


def branch_matrix(grid: HistoryGrid) -> np.ndarray:
    """Heisenberg-picture branch vectors of all histories, one row each.

    One Schroedinger-picture pass in the basis the projectors are given in: at
    time t_k every prefix row is stepped by e^{-iH(t_k - t_{k-1})} (unless H = 0)
    and multiplied by all projectors of set k (`_project`), so history
    (prefix, a) lands in row prefix*m_k + a, the enumeration order.  A final
    e^{+iHt_n} gives the same vectors as `branch_vector`.  The N x d result is the
    largest array of a decoherence pass; callers check it against the budget
    (`linalg.check_rows_size`) from the grid's shape before asking for it.
    """
    h = grid.hamiltonian
    rows = grid.initial_state.amplitudes[None, :]
    t_prev = 0.0
    for s, t in zip(grid.sets, grid.times):
        if not h.is_zero:  # row vectors: r -> r e^{-iH dt}^T
            rows = rows @ propagator(h, t - t_prev).T
        rows = _project(rows, s.projectors)
        t_prev = t
    if not h.is_zero:
        rows = rows @ propagator(h, -t_prev).T
    return rows


def _project(rows: np.ndarray, projectors) -> np.ndarray:
    """Rows r -> r P_a^T for every alternative a: row i of `rows` gives row i m + a.

    A set whose members all keep columns Q_a multiplies the rows by conj(W), W = [Q_1 ...
    Q_m], and expands each block of columns by its Q_a^T: 2 N d^2 flops for N rows (exact
    for the 0/1 columns of `basis` members).  Any other multiplies by all m matrices P_a^T
    side by side, N m d^2 flops.
    """
    n, d = rows.shape
    if not all(p.isometry is not None for p in projectors):
        return (rows @ np.hstack([p.matrix.T for p in projectors])).reshape(-1, d)
    qs = [p.isometry for p in projectors]
    w = np.hstack(qs)
    coefficients = rows @ np.conjugate(w, out=w)
    out = np.empty((n, len(projectors), d), dtype=np.complex128)
    for a, (q, stop) in enumerate(zip(qs, np.cumsum([q.shape[1] for q in qs]))):
        np.matmul(coefficients[:, stop - q.shape[1] : stop], q.T, out=out[:, a])
    return out.reshape(-1, d)
