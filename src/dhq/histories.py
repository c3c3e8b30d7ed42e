"""Time-indexed alternative sets, history enumeration, class operators.

A history grid holds one exhaustive set of exclusive alternatives per time
(strictly increasing, finite times), a Hamiltonian, and a normalized initial
state.  Projectors are stored in the Schroedinger picture; all branch vectors
are built in one pass in the eigenbasis of H.  `class_operator` and
`branch_vector` are the explicit Heisenberg-picture chains, the reference the
fast pass is tested against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, GridTooLarge
from .linalg import (
    TOL_ALG,
    Hamiltonian,
    Projector,
    StateVector,
    evolve_heisenberg,
    max_abs,
)

HISTORY_CAP = 10**6

# A history is a plain tuple of per-time alternative indices.
HistoryIndex = tuple[int, ...]


@dataclass(frozen=True)
class AlternativeSet:
    """Exhaustive set of exclusive alternatives {P_a} at one time.

    Invariants: sum_a P_a = I and P_a P_b = delta_ab P_a, both at TOL_ALG.
    `provenance` is filled by refinement joins to remember which pair of
    parent alternatives each product projector came from.
    """

    time: float
    projectors: tuple[Projector, ...]
    label: str = ""
    provenance: tuple[tuple[int | None, int | None], ...] | None = None

    def __post_init__(self):
        ps = tuple(self.projectors)
        if not ps:
            raise ValueError(f"alternative set {self.label!r}: no projectors")
        object.__setattr__(self, "projectors", ps)
        dim = ps[0].dim
        if any(p.dim != dim for p in ps):
            raise DimensionMismatch(f"alternative set {self.label!r}: mixed dimensions")
        total = sum(p.matrix for p in ps)
        comp = max_abs(total - np.eye(dim))
        if comp > TOL_ALG:
            raise ValueError(
                f"alternative set {self.label!r}: completeness violated, ||sum P - I|| = {comp:.3e}"
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

    Sets that `isometries_exclusive` certifies pass at once.  Otherwise, since
    P_i P_j is exactly zero unless some index is in both the column support
    of P_i and the row support of P_j, only those pairs are multiplied:
    for each i, one stacked product P_i [P_j for the j > i left].
    """
    if isometries_exclusive(projectors):
        return
    stack = np.stack([p.matrix for p in projectors])
    nonzero = stack != 0
    touch = nonzero.any(axis=1) @ nonzero.any(axis=2).T
    for i, p in enumerate(projectors[:-1]):
        js = i + 1 + np.flatnonzero(touch[i, i + 1 :])
        if not js.size:
            continue
        block_max = np.abs(p.matrix @ stack[js]).max(axis=(1, 2))
        k = int(np.argmax(block_max > TOL_ALG))
        if block_max[k] > TOL_ALG:
            raise ValueError(
                f"alternative set {label!r}: projectors {p.name!r} and "
                f"{projectors[js[k]].name!r} are not exclusive, ||P Q|| = {block_max[k]:.3e}"
            )


def isometries_exclusive(projectors) -> bool:
    """True when every projector keeps its isometry (P_i = Q_i Q_i^dag) and one
    product Q^dag Q of the stacked Q = [Q_1 ... Q_m] certifies the set exclusive.

    ||P_i P_j||_max <= ||Q_i^dag Q_j||_2 <= ||Q_i^dag Q_j||_F, and off-diagonal
    blocks all at most TOL_ALG/2 leave a margin far above the roundoff between
    the stored P_i and Q_i Q_i^dag.  False decides nothing.
    """
    qs = [p.isometry for p in projectors]
    if any(q is None for q in qs):
        return False
    g = np.hstack(qs)
    g = g.conj().T @ g
    starts = np.cumsum([0] + [q.shape[1] for q in qs[:-1]])
    blocks = np.add.reduceat(np.add.reduceat(g.real**2 + g.imag**2, starts, 0), starts, 1)
    np.fill_diagonal(blocks, 0.0)
    return bool(blocks.max() <= (TOL_ALG / 2) ** 2)


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
        n = 1
        for s in self.sets:
            n *= s.size
        return n

    def history_label(self, h: HistoryIndex) -> str:
        """Chain notation: projector names, latest time leftmost."""
        return ",".join(self.sets[k].projectors[h[k]].name for k in reversed(range(len(h))))

    def set_at(self, time: float) -> AlternativeSet:
        for s in self.sets:
            if s.time == time:
                return s
        raise KeyError(f"no alternative set at time {time!r}")

    def validate_index(self, h: HistoryIndex) -> None:
        if len(h) != self.n_times:
            raise ValueError(f"history {h} has length {len(h)}, grid has {self.n_times} times")
        for k, a in enumerate(h):
            if not 0 <= a < self.sets[k].size:
                raise ValueError(f"history {h}: index {a} out of range at time {self.times[k]}")


def enumerate_histories(grid: HistoryGrid, cap: int = HISTORY_CAP) -> list[HistoryIndex]:
    """All histories in lexicographic order, first time slowest-varying."""
    n = grid.history_count()
    if n > cap:
        raise GridTooLarge(f"{n} histories exceed the cap of {cap}")
    return list(itertools.product(*(range(s.size) for s in grid.sets)))


def class_operator(grid: HistoryGrid, h: HistoryIndex) -> np.ndarray:
    """Chain of Heisenberg projections, latest time leftmost."""
    grid.validate_index(h)
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

    One Schroedinger-picture pass in the eigenbasis of H: at time t_k every
    prefix row gets the phase e^{-iw(t_k - t_{k-1})} and is then multiplied by
    all projectors of set k (as U^dag P U) in one product, so history
    (prefix, a) lands in row prefix*m_k + a, the enumeration order.  A final
    e^{+iHt_n} gives the same vectors as `branch_vector`.  Callers bound the
    history count (`enumerate_histories`) before asking for all of them.
    """
    eigenbasis = grid.hamiltonian.eigenbasis
    rows = grid.initial_state.amplitudes[None, :]
    if eigenbasis is not None:
        w, u = eigenbasis
        rows = rows @ u.conj()
    t_prev = 0.0
    for s, t in zip(grid.sets, grid.times):
        mats = [p.matrix for p in s.projectors]
        if eigenbasis is not None:
            rows = rows * np.exp(-1j * w * (t - t_prev))
            mats = [u.conj().T @ m @ u for m in mats]
        # Row vectors: r -> r P^T for every alternative side by side.
        rows = (rows @ np.hstack([m.T for m in mats])).reshape(-1, grid.dim)
        t_prev = t
    if eigenbasis is not None:
        rows = (rows * np.exp(1j * w * t_prev)) @ u.T
    return rows
