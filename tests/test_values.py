"""The value classes against the dataclasses they replaced.

Each dhq value class is a plain class with a hand-written `__init__` over the
`dhq.values` base.  The definitions below are the earlier `@dataclass` versions,
verbatim (each under a comment naming its module), kept as the oracle: for each
class the constructor signature, `repr`, `==` and `hash` on sample instances (and
the exceptions they raise), and the exception on assigning or deleting an
attribute must match.
"""

from __future__ import annotations

import inspect
import json
import math
from dataclasses import dataclass, field

import numpy as np
import pytest

from dhq import decoherence, histories, linalg, realms, report, scenario, spacetime
from dhq.decoherence import (
    TOL_DEC_DEFAULT, branch_probabilities, decoherence_functional, gram_matrix, normalized_offdiag,
)
from dhq.errors import (
    DimensionMismatch, InvalidPartition, NotDecoherent, NotHermitian, SuperluminalBoost,
)
from dhq.histories import HistoryGrid, branch_matrix, check_exclusive, history_array, history_labels
from dhq.linalg import (
    TOL_ALG, TOL_NORM, _as_complex_matrix, _as_complex_vector, _quiet, check_dense_size,
    hermitian_eig, max_abs,
)
from dhq.report import GRAM_REPORT_CAP, PRINT_FLOOR, fmt_value

from partition_helpers import singletons


# src/dhq/linalg.py
@dataclass(frozen=True)
class StateVector:
    """Complex amplitude vector of unit norm (at TOL_NORM): an initial state."""

    amplitudes: np.ndarray

    @_quiet
    def __post_init__(self):
        object.__setattr__(self, "amplitudes", _as_complex_vector(self.amplitudes))
        n = self.norm()
        if abs(n - 1.0) > TOL_NORM:
            raise ValueError(f"state vector has norm {n!r}, expected 1")

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


# src/dhq/linalg.py
@dataclass(frozen=True)
class Projector:
    """Hermitian idempotent matrix with an integer rank and a label."""

    matrix: np.ndarray | None = None
    rank: int = field(init=False)  # the trace, or the column count of an isometry
    name: str = "P"
    # Or d x rank orthonormal columns Q in place of the matrix, checked only as ||Q^dag Q - I||_F
    # <= TOL_ALG (which bounds ||P^2 - P||_max by TOL_ALG); they set rank and matrix = Q Q^dag.
    isometry: np.ndarray | None = field(default=None, repr=False, compare=False)
    # With the isometry, the sorted canonical-basis indices of its columns of I, given by
    # basis_projector for the `basis` dump form of `scenario.scenario_to_dict`; else None.
    basis: tuple[int, ...] | None = field(default=None, repr=False, compare=False)

    @_quiet
    def __post_init__(self):
        if (self.matrix is None) == (self.isometry is None):
            raise ValueError(f"projector {self.name!r}: give either its matrix or its isometry")
        if self.isometry is not None:
            q = _as_complex_matrix(self.isometry)
            defect = np.linalg.norm(q.conj().T @ q - np.eye(q.shape[1]))
            if not defect <= TOL_ALG:
                raise ValueError(f"projector {self.name!r}: ||Q^dag Q - I|| = {defect:.3e}")
            object.__setattr__(self, "isometry", q)
            m, r = q @ q.conj().T, q.shape[1]
            m.setflags(write=False)
        else:
            m = _as_complex_matrix(self.matrix)
            if m.shape[0] != m.shape[1]:
                raise DimensionMismatch(f"projector matrix must be square, got {m.shape}")
            herm = max_abs(m - m.conj().T)
            if herm > TOL_ALG:
                raise NotHermitian(f"projector {self.name!r}: ||P - P^dag|| = {herm:.3e}")
            idem = max_abs(m @ m - m)
            if not idem <= TOL_ALG:  # so that NaN fails too
                raise ValueError(f"projector {self.name!r}: ||P^2 - P|| = {idem:.3e}")
            tr = float(np.trace(m).real)
            r = int(round(tr))
            if abs(tr - r) > TOL_ALG:
                raise ValueError(f"projector {self.name!r}: trace {tr!r} is not near an integer")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "rank", r)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


# src/dhq/linalg.py
@dataclass(frozen=True)
class Hamiltonian:
    """Hermitian generator of evolution; energy units with hbar = 1."""

    matrix: np.ndarray
    # hermitian_eig(H), computed once and shared by every grid over this H; None when H = 0.
    eigenbasis: tuple[np.ndarray, np.ndarray] | None = field(init=False, repr=False, compare=False)

    @_quiet
    def __post_init__(self):
        m = _as_complex_matrix(self.matrix)
        if m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"Hamiltonian must be square, got {m.shape}")
        herm = max_abs(m - m.conj().T)
        if herm > TOL_ALG:
            raise NotHermitian(f"||H - H^dag|| = {herm:.3e}")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "eigenbasis", hermitian_eig(self) if m.any() else None)
        if not self.is_zero and not np.isfinite(self.eigenbasis[0]).all():
            raise ValueError("Hamiltonian eigenvalues must be finite")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def is_zero(self) -> bool:
        return self.eigenbasis is None

    @classmethod
    def zero(cls, dim: int) -> "Hamiltonian":
        return cls(np.zeros((dim, dim), dtype=np.complex128))


# src/dhq/histories.py
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
        total = ps[0].matrix.copy()
        for p in ps[1:]:
            total += p.matrix
        total.flat[:: dim + 1] -= 1.0  # sum P - I, summed in place
        comp = max_abs(total)
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


# src/dhq/decoherence.py
@dataclass(frozen=True)
class DecoherenceReport:
    """Branch rows of a set of histories, with their probabilities and verdict.

    Row a of `branches` is C_a|Psi>, named by the `names` axes (one tuple of names per set, in
    time order), so `labels[a]`; every other number is formed from the rows here.  `final_size`
    > 1 says the rows are a grid's in enumeration order, ending in that many final alternatives
    (see `normalized_offdiag`).
    """

    names: tuple[tuple[str, ...], ...]
    branches: np.ndarray
    tol_used: float
    final_size: int = 1
    probabilities: np.ndarray = field(init=False)
    max_offdiag_normalized: float = field(init=False)
    decoherent: bool = field(init=False)

    def __post_init__(self):
        rows, n = self.branches, math.prod(map(len, self.names))
        if len(rows) != n:
            raise ValueError(f"{len(rows)} branch rows for {n} labels")
        state = rows.sum(axis=0)  # the sum of all D(a,b) is ||sum of rows||^2
        total = float(np.vdot(state, state).real)
        if not abs(total - 1.0) <= TOL_ALG:  # so that NaN fails too
            raise AssertionError(f"gram entries sum to {total!r}, expected 1")
        p = branch_probabilities(rows)
        worst = normalized_offdiag(rows, p, self.final_size)
        object.__setattr__(self, "probabilities", p)
        object.__setattr__(self, "max_offdiag_normalized", worst)
        object.__setattr__(self, "decoherent", worst <= self.tol_used)
        for array in (rows, p):
            array.setflags(write=False)

    @property
    def labels(self) -> tuple[str, ...]:
        """Each row's `history_labels`, formed on each access."""
        return tuple(history_labels(self.names))

    @property
    def gram(self) -> np.ndarray:
        """The N x N Gram matrix D(a,b) = <Psi_a|Psi_b>, formed on each access if it fits."""
        n = len(self.branches)
        check_dense_size(n * n, f"{n}^2 Gram entries of {n} histories")
        gram = gram_matrix(self.branches)
        gram.setflags(write=False)
        return gram


# src/dhq/realms.py
@dataclass(frozen=True, eq=False)
class Partition:
    """Disjoint nonempty classes of histories covering a grid."""

    classes: tuple[np.ndarray, ...]
    labels: tuple[str, ...] | None = None  # class0, class1, ... when None

    def __post_init__(self):
        classes = tuple(map(history_array, self.classes))
        object.__setattr__(self, "classes", classes)
        if self.labels is None:
            object.__setattr__(self, "labels", tuple(f"class{i}" for i in range(len(classes))))
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.labels) != len(classes):
            raise InvalidPartition("one label per class required")

    def _key(self):
        # Each class as its sorted histories, so that classes compare as sets.
        return tuple(tuple(sorted(map(tuple, c.tolist()))) for c in self.classes), self.labels

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key())


# src/dhq/realms.py
@dataclass(frozen=True)
class Realm:
    """A history grid together with its passing decoherence report."""

    grid: HistoryGrid
    report: DecoherenceReport

    def __post_init__(self):
        if not self.report.decoherent:
            raise NotDecoherent(
                "a realm must decohere at its construction tolerance", self.report
            )

    @classmethod
    def from_grid(cls, grid: HistoryGrid, tol_dec: float = TOL_DEC_DEFAULT) -> "Realm":
        return cls(grid, decoherence_functional(grid, tol_dec=tol_dec))


# src/dhq/realms.py
@dataclass(frozen=True)
class CompatibilityVerdict:
    status: str  # compatible | incompatible | undetermined
    witness_grid: HistoryGrid | None = None
    witness_report: DecoherenceReport | None = None
    detail: str = ""


# src/dhq/realms.py
@dataclass(frozen=True)
class CoarseGraining:
    """Coarse report of a partition and its largest sum-rule violation.

    The violation of class I is p(I) - sum of p(a) over a in I, the
    interference between members; it vanishes for a decoherent fine set.
    """

    grid: HistoryGrid
    partition: Partition
    report: DecoherenceReport
    max_sum_rule_violation: float


# src/dhq/scenario.py
@dataclass(frozen=True)
class Scenario:
    """A parsed scenario: the grid plus named extras from the file."""

    grid: HistoryGrid
    partitions: dict[str, Partition] = field(default_factory=dict)
    data_name: str | None = None
    data_time: float | None = None

    @property
    def has_data(self) -> bool:
        return self.data_name is not None


# src/dhq/spacetime.py
@dataclass(frozen=True)
class Event:
    t: float
    x: float
    y: float = 0.0
    z: float = 0.0

    def __post_init__(self):
        for c in (self.t, self.x, self.y, self.z):
            if not math.isfinite(c):
                raise ValueError("event coordinates must be finite")

    @property
    def position(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)


# src/dhq/spacetime.py
@dataclass(frozen=True)
class Boost:
    """Velocity of the primed frame relative to the lab frame, |v| < 1."""

    velocity: tuple[float, float, float]

    def __post_init__(self):
        v = tuple(float(c) for c in self.velocity)
        if len(v) != 3:
            raise ValueError("boost velocity must have 3 components")
        if not all(map(math.isfinite, v)):
            raise ValueError(f"boost velocity must be finite, got {v}")
        object.__setattr__(self, "velocity", v)
        if self.speed >= 1.0:
            raise SuperluminalBoost(f"|v| = {self.speed} >= 1")

    @property
    def speed(self) -> float:
        return float(np.linalg.norm(self.velocity))

    @property
    def gamma(self) -> float:
        return 1.0 / math.sqrt(1.0 - self.speed**2)


# src/dhq/spacetime.py
@dataclass(frozen=True)
class Igus:
    """Information gathering and utilizing system: a position and velocity."""

    position: tuple[float, float, float]
    velocity: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        pos = tuple(float(c) for c in self.position)
        vel = tuple(float(c) for c in self.velocity)
        if not all(map(math.isfinite, pos + vel)):
            raise ValueError("IGUS position and velocity must be finite")
        object.__setattr__(self, "position", pos)
        object.__setattr__(self, "velocity", vel)
        if float(np.linalg.norm(vel)) >= 1.0:
            raise SuperluminalBoost("IGUS velocity must satisfy |v| < 1")


# src/dhq/spacetime.py
@dataclass(frozen=True)
class IgusGroup:
    iguses: tuple[Igus, ...]
    tau_star: float  # perception timescale, seconds
    env_timescale: float  # environment variation timescale, seconds

    def __post_init__(self):
        object.__setattr__(self, "iguses", tuple(self.iguses))
        if not self.iguses:
            raise ValueError("IGUS group must be nonempty")
        if not (0 < self.tau_star < math.inf and 0 < self.env_timescale < math.inf):
            raise ValueError("timescales must be positive and finite")


# src/dhq/spacetime.py
@dataclass(frozen=True)
class ContingencyReport:
    """Outcome of the three common-present contingencies."""

    max_relative_speed: float
    max_light_time: float
    tau_star: float
    env_timescale: float
    v_max: float
    ratio_factor: float
    slow_relative_motion: bool  # contingency 1
    light_time_small: bool  # contingency 2
    perception_fast: bool  # contingency 3

    @property
    def common_present(self) -> bool:
        return self.slow_relative_motion and self.light_time_small and self.perception_fast


# src/dhq/report.py
@dataclass
class Report:
    """Echo of the command plus verdicts, scalars, and probability tables."""

    command: str
    tolerances: dict = field(default_factory=dict, init=False)
    verdicts: dict = field(default_factory=dict, init=False)
    scalars: dict = field(default_factory=dict, init=False)
    # (title, [label, ...], [probability, ...])
    tables: list = field(default_factory=list, init=False)
    gram: dict | None = field(default=None, init=False)
    notes: list = field(default_factory=list, init=False)
    error: str | None = field(default=None, init=False)
    exit_status: int = field(default=0, init=False)
    # When set, rendered verbatim instead of the report (scenario dumps).
    raw_output: str | None = field(default=None, init=False)

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
        if len(rep.labels) <= GRAM_REPORT_CAP:
            gram = rep.gram
            parts = np.stack([gram.real, gram.imag], axis=-1)  # [[[re, im], ...], ...]
            parts[np.abs(parts) < PRINT_FLOOR] = 0.0
            self.gram = {"labels": list(rep.labels), "matrix": parts.tolist()}
        else:
            self.notes.append(
                f"gram matrix omitted ({len(rep.labels)} histories > {GRAM_REPORT_CAP})"
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


def _outcome(fn):
    """What fn() returns, or the type and message of what it raises."""
    try:
        return ("returns", fn())
    except Exception as err:  # noqa: BLE001 - the exception is the outcome compared
        return ("raises", type(err).__name__, str(err))


def _failure(fn):
    """The exception fn() raises, as (is an AttributeError, message); None when it returns."""
    try:
        fn()
    except Exception as err:  # noqa: BLE001 - the exception is the outcome compared
        return isinstance(err, AttributeError), str(err)
    return None


def _samples():
    """(class name, plain class, oracle, [(args, kwargs), ...]) for every value class."""
    up, down = (linalg.basis_projector(2, [k], name=n) for k, n in ((0, "up"), (1, "down")))
    grid = HistoryGrid(
        [histories.AlternativeSet(1.0, (up, down), label="z")],
        linalg.Hamiltonian.zero(2),
        linalg.StateVector(np.array([0.6, 0.8])),
    )
    rows = branch_matrix(grid)
    rep = decoherence_functional(grid)
    part = singletons([(0,), (1,)])
    igus = spacetime.Igus((0.0, 0.0, 0.0))
    return [
        ("StateVector", linalg.StateVector, StateVector,
         [(([1.0, 0.0],), {}), (([-1.0],), {}), ((), {"amplitudes": [0.6j, 0.8]})]),
        ("Projector", linalg.Projector, Projector,
         [((np.diag([1.0, 0.0]), "up"), {}), ((np.eye(1),), {}),
          ((), {"isometry": np.eye(3)[:, :2], "name": "q"}),
          ((), {"isometry": np.eye(3)[:, [0, 2]], "name": "b", "basis": (0, 2)})]),
        ("Hamiltonian", linalg.Hamiltonian, Hamiltonian,
         [((np.diag([1.0, 2.0]),), {}), ((np.zeros((1, 1)),), {})]),
        ("AlternativeSet", histories.AlternativeSet, AlternativeSet,
         [((1.0, [up, down]), {}), ((2.0, (up, down), "z", ((0, None), (None, 1))), {})]),
        ("DecoherenceReport", decoherence.DecoherenceReport, DecoherenceReport,
         [(((("up", "down"),), rows, 1e-8), {}),
          ((), {"names": (("a", "b"),), "branches": rows, "tol_used": 0.5, "final_size": 2})]),
        ("Partition", realms.Partition, Partition,
         [(([[(0,)], [(1,)]], ("a", "b")), {}), (((frozenset({(0,), (1,)}),), ("all",)), {}),
          (([[(0,)], [(1,)]],), {}), (([[(0,)]], ["one"]), {}),
          (((np.array([[0, 1], [1, 0]]), [[10**20], (0, 0, 0)]), ("ab", "odd")), {})]),
        ("Realm", realms.Realm, Realm, [((grid, rep), {})]),
        ("CompatibilityVerdict", realms.CompatibilityVerdict, CompatibilityVerdict,
         [(("compatible",), {}), (("incompatible", grid, rep, "joined"), {})]),
        ("CoarseGraining", realms.CoarseGraining, CoarseGraining, [((grid, part, rep, 0.0), {})]),
        ("Scenario", scenario.Scenario, Scenario,
         [((grid,), {}), ((grid, {"p": part}, "up", 1.0), {})]),
        ("Event", spacetime.Event, Event, [((0.0, 1.0), {}), ((1, 2, 3, 4), {})]),
        ("Boost", spacetime.Boost, Boost, [(((0.5, 0, 0),), {}), (([0.1, 0.2, 0.3],), {})]),
        ("Igus", spacetime.Igus, Igus, [(((0, 0, 0),), {}), (((1, 2, 3), (0.1, 0, 0)), {})]),
        ("IgusGroup", spacetime.IgusGroup, IgusGroup,
         [(([igus], 1.0, 10.0), {}), (((igus, igus), 0.5, 2.0), {})]),
        ("ContingencyReport", spacetime.ContingencyReport, ContingencyReport,
         [((0.0, 1.0, 0.5, 2.0, 0.01, 0.1, True, False, True), {})]),
        ("Report", report.Report, Report,
         [(("check",), {}), ((), {"command": "dhq --format json check f.json"})]),
    ]


SAMPLES = _samples()


def test_every_value_class_has_its_oracle():
    assert len(SAMPLES) == 16
    assert [name for name, _, _, _ in SAMPLES] == [o.__name__ for _, _, o, _ in SAMPLES]
    assert not any(hasattr(plain, "__dataclass_fields__") for _, plain, _, _ in SAMPLES)


@pytest.mark.parametrize("name, plain, oracle, cases", SAMPLES, ids=[s[0] for s in SAMPLES])
def test_constructor_signature_matches_oracle(name, plain, oracle, cases):
    got = inspect.signature(plain).parameters
    want = inspect.signature(oracle).parameters
    assert list(got) == list(want)
    for p, q in zip(got.values(), want.values()):
        assert p.kind == q.kind
        if repr(q.default) == "<factory>":  # a fresh empty container: None in the plain class
            assert (p.default, p.annotation) == (None, f"{q.annotation} | None")
        else:
            assert (p.default, p.annotation) == (q.default, q.annotation)


@pytest.mark.parametrize("name, plain, oracle, cases", SAMPLES, ids=[s[0] for s in SAMPLES])
def test_repr_eq_hash_match_oracle(name, plain, oracle, cases):
    for args, kwargs in cases:
        a, b = plain(*args, **kwargs), plain(*args, **kwargs)
        c, d = oracle(*args, **kwargs), oracle(*args, **kwargs)
        assert repr(a) == repr(c)
        assert _outcome(lambda: a == b) == _outcome(lambda: c == d)
        assert _outcome(lambda: a == a) == _outcome(lambda: c == c)
        assert _outcome(lambda: a != b) == _outcome(lambda: c != d)
        assert _outcome(lambda: hash(a)) == _outcome(lambda: hash(c))
        assert (a == c) is False and (a == 0) is False


def test_array_fields_raise_as_before():
    # Arrays of more than one entry make == raise ValueError; an array field makes hash
    # raise TypeError; the mutable Report is unhashable.
    m = np.diag([1.0, 0.0])
    eq = _outcome(lambda: linalg.Projector(m) == linalg.Projector(m))
    assert eq[:2] == ("raises", "ValueError")
    assert eq == _outcome(lambda: Projector(m) == Projector(m))
    assert _outcome(lambda: hash(linalg.Projector(m)))[:2] == ("raises", "TypeError")
    assert _outcome(lambda: hash(report.Report("x")))[:2] == ("raises", "TypeError")


def test_filled_report_matches_oracle():
    # A report takes only its command; the fields the command fills compare as the oracle's.
    a, c = report.Report("check"), Report("check")
    for r in (a, c):
        r.tolerances["tol_dec"] = 1e-8
        r.verdicts["decoherent"] = True
        r.exit_status = 2
    assert repr(a) == repr(c)
    assert a != report.Report("check") and c != Report("check")


@pytest.mark.parametrize("name, plain, oracle, cases", SAMPLES, ids=[s[0] for s in SAMPLES])
def test_assignment_and_deletion_match_oracle(name, plain, oracle, cases):
    args, kwargs = cases[0]
    a, c = plain(*args, **kwargs), oracle(*args, **kwargs)
    field_name = a._fields[0]
    for attr in (field_name, "not_a_field"):
        assert _failure(lambda: setattr(a, attr, 1)) == _failure(lambda: setattr(c, attr, 1))
    for attr in (field_name, "not_a_field"):
        assert _failure(lambda: delattr(a, attr)) == _failure(lambda: delattr(c, attr))
    frozen = name != "Report"
    assert _failure(lambda: setattr(a, "tag", 1)) == (
        (True, "cannot assign to field 'tag'") if frozen else None)
