"""Scenario files: JSON ingestion and dumping, schema "dhq-scenario/1".

Complex scalars serialize as two-element arrays [re, im]; matrices as
row-major nested arrays.  Dumps are compact single-line JSON; any
whitespace loads.  Projectors may be given as explicit matrices, as
lists of spanning vectors, or as `basis` lists of 0-based canonical
basis indices.  Dumps write `basis` for `basis_projector` members, the
orthonormal columns as `span` for other members defined by them (a reload
keeps those columns as they are, so they and the matrix come back bit for
bit), and `matrix` for all others.  Validation failures carry JSON-path-like
locations (e.g. "/alternative_sets/1/projectors/0/matrix").
"""

from __future__ import annotations

import json
import math
import re
from contextlib import contextmanager
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import DhqError, ParseError, ValidationError
from .histories import AlternativeSet, HistoryGrid, history_array
from .linalg import (
    Hamiltonian, Projector, StateVector, basis_projector, check_grid_size, projector_from_span,
)
from .realms import Partition
from .values import FrozenValue

SCHEMA = "dhq-scenario/1"

# Largest `dimension` a file may give.  The dense-entry budget alone admits d = 2,896,
# where one O(d^3) validation product takes about 4 s (0.2 s at d = 1024).
DENSE_DIM_CAP = 1024


class Scenario(FrozenValue):
    """A parsed scenario: the grid plus named extras from the file."""

    _fields = ("grid", "partitions", "data_name", "data_time")

    def __init__(self, grid: HistoryGrid, partitions: dict[str, Partition] | None = None,
                 data_name: str | None = None, data_time: float | None = None):
        self._set(grid=grid, partitions={} if partitions is None else partitions,
                  data_name=data_name, data_time=data_time)

    @property
    def has_data(self) -> bool:
        return self.data_name is not None


def _is_int(v) -> bool:
    """A JSON integer: a Python int that is not a bool."""
    return isinstance(v, int) and not isinstance(v, bool)


def is_number(v) -> bool:
    """A JSON number: a Python int or float that is not a bool."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _string(doc: dict, key: str, loc, default=None) -> str:
    """doc[key], or default when absent, refused at loc/key unless it is a JSON string."""
    v = doc.get(key, default)
    if not isinstance(v, str):
        raise ParseError(f"'{key}' must be a string", f"{loc}/{key}")
    return v


# A JSON number token (RFC 8259): no sign but '-', no blanks, '_', 'inf' or 'nan', ASCII digits.
_JSON_NUMBER = re.compile(r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?")


@contextmanager
def _located(loc):
    """An engine or value error of the block as a ValidationError at loc; located ones pass."""
    try:
        yield
    except (ParseError, ValidationError):
        raise
    except (DhqError, ValueError) as err:
        raise ValidationError(str(err), loc) from None


def _complex_scalar(v, loc) -> complex:
    if not isinstance(v, (list, tuple)) or len(v) != 2 or not all(map(is_number, v)):
        raise ParseError("complex scalars must be [re, im] pairs", loc)
    try:
        return complex(float(v[0]), float(v[1]))
    except OverflowError:
        raise ParseError("complex scalar component out of floating-point range", loc) from None


def _vector(v, loc) -> np.ndarray:
    if not isinstance(v, list) or not v:
        raise ParseError("expected a nonempty list of [re, im] pairs", loc)
    return np.array([_complex_scalar(c, f"{loc}/{i}") for i, c in enumerate(v)])


def _matrix(m, loc) -> np.ndarray:
    if not isinstance(m, list) or not m:
        raise ParseError("expected a nonempty row-major nested array", loc)
    rows = [_vector(row, f"{loc}/{r}") for r, row in enumerate(m)]
    if len({row.size for row in rows}) != 1:
        raise ParseError("ragged matrix rows", loc)
    return np.vstack(rows)


def _complex_array(v, loc, ndim: int) -> np.ndarray:
    """A complex vector (ndim 1) or matrix (ndim 2) parsed in one numpy call.

    Only a nonempty array of [re, im] pairs of JSON numbers takes the fast
    path, bit for bit what the per-element walk gives; anything else goes
    through the walk, which raises the located error.
    """
    try:
        a = np.asarray(v)
    except ValueError:  # ragged, or nested deeper than numpy allows
        a = np.empty(0)
    if a.dtype.kind in "iuf" and a.ndim == ndim + 1 and a.shape[-1] == 2 and a.size:
        leaves = v
        for _ in range(ndim):
            leaves = chain.from_iterable(leaves)
        # Every leaf is a number or a bool, which numpy reads as 0 or 1 beside numbers.
        if bool not in set(map(type, leaves)):
            return np.ascontiguousarray(a, dtype=np.float64).view(np.complex128)[..., 0]
    return _vector(v, loc) if ndim == 1 else _matrix(v, loc)


def encode_array(a: np.ndarray) -> list:
    """A complex array as nested lists with [re, im] pairs innermost."""
    return np.stack([a.real, a.imag], -1).tolist()


def parse_data_ref(ref, loc) -> tuple[str, float]:
    if not isinstance(ref, str) or "@" not in ref:
        raise ParseError("data projector reference must look like 'name@time'", loc)
    name, _, t = ref.rpartition("@")
    time = float(t) if _JSON_NUMBER.fullmatch(t) else math.nan  # as the set's `time` rule
    if not math.isfinite(time):
        raise ParseError(f"bad time in data projector reference {ref!r}", loc)
    return name, time


def locate_alternative(grid: HistoryGrid, name: str, time: float, loc) -> tuple[int, int]:
    """(time index, alternative index) of name@time in grid; else a ValidationError at loc."""
    try:
        return grid.locate(name, time)
    except KeyError as err:
        raise ValidationError(err.args[0], loc) from None


def _refuse_repeats(classes, n: int, loc) -> None:
    """Refuse the first class listing a history of n times twice, naming the first repeat."""
    ids = [i for i, c in enumerate(classes) if c.dtype == np.int64 and c.shape[1:] == (n,)]
    owner = np.repeat(np.array(ids, dtype=np.int64), [len(classes[i]) for i in ids])
    keys = np.column_stack((owner, np.concatenate([np.empty((0, n), np.int64)]
                                                  + [classes[i] for i in ids])))
    order = np.lexsort(keys.T[::-1])  # stable: a repeat sorts right after the row it repeats
    later = order[1:][(np.diff(keys[order], axis=0) == 0).all(axis=1)]
    if later.size:
        c, *h = keys[later.min()].tolist()
        raise ValidationError(f"history {h} is listed twice", f"{loc}/classes/{c}/histories")


def scenario_from_dict(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ParseError("scenario document must be a JSON object", "/")
    schema = doc.get("schema")
    if schema != SCHEMA:
        raise ParseError(f"unsupported schema {schema!r}, expected {SCHEMA!r}", "/schema")
    if "initial_state" not in doc:
        raise ParseError("missing 'initial_state'", "/initial_state")
    with _located("/initial_state"):
        psi = StateVector(_complex_array(doc["initial_state"], "/initial_state", 1))

    # Checked against the state before any d x d allocation.
    dim = doc.get("dimension")
    if not _is_int(dim) or dim < 1:
        raise ParseError("'dimension' must be a positive integer", "/dimension")
    if dim > DENSE_DIM_CAP:
        raise ValidationError(f"dimension {dim} exceeds the limit of {DENSE_DIM_CAP}", "/dimension")
    if dim != psi.dim:
        raise ValidationError(f"dimension {dim} != initial state length {psi.dim}", "/dimension")

    ham_doc = doc.get("hamiltonian", "zero")
    if ham_doc == "zero":
        ham = Hamiltonian.zero(dim)
    else:
        m = _complex_array(ham_doc, "/hamiltonian", 2)
        if m.shape != (dim, dim):
            raise ValidationError(f"Hamiltonian shape {m.shape} != ({dim}, {dim})", "/hamiltonian")
        with _located("/hamiltonian"):
            ham = Hamiltonian(m)

    sets_doc = doc.get("alternative_sets")
    if not isinstance(sets_doc, list) or not sets_doc:
        raise ParseError("'alternative_sets' must be a nonempty list", "/alternative_sets")
    with _located("/alternative_sets"):  # counted from the lists, before any projector is built
        check_grid_size(sum(len(s["projectors"]) for s in sets_doc if isinstance(s, dict)
                            and isinstance(s.get("projectors"), list)), dim)
    sets = []
    for k, sdoc in enumerate(sets_doc):
        loc = f"/alternative_sets/{k}"
        if not isinstance(sdoc, dict):
            raise ParseError("alternative set must be an object", loc)
        time = sdoc.get("time")
        try:
            if not is_number(time):
                raise TypeError  # float() alone would also take a bool or a numeric string
            time = float(time)
        except (TypeError, OverflowError):
            raise ParseError("missing or invalid 'time'", f"{loc}/time") from None
        if not math.isfinite(time):
            raise ParseError(f"time must be finite, got {time!r}", f"{loc}/time")
        label = _string(sdoc, "label", loc, f"set{k}")
        pdocs = sdoc.get("projectors")
        if not isinstance(pdocs, list) or not pdocs:
            raise ParseError("'projectors' must be a nonempty list", f"{loc}/projectors")
        projs = {}
        for i, pdoc in enumerate(pdocs):
            ploc = f"{loc}/projectors/{i}"
            if not isinstance(pdoc, dict) or "name" not in pdoc:
                raise ParseError("projector needs a 'name'", ploc)
            name = _string(pdoc, "name", ploc)
            if name in projs:
                raise ValidationError(f"duplicate projector name {name!r} in set", ploc)
            with _located(ploc):
                if "matrix" in pdoc:
                    m = _complex_array(pdoc["matrix"], f"{ploc}/matrix", 2)
                    if m.shape != (dim, dim):
                        raise ValidationError(f"matrix shape {m.shape} != ({dim}, {dim})",
                                              f"{ploc}/matrix")
                    projs[name] = Projector(m, name=name)
                elif "span" in pdoc:
                    span = pdoc["span"]
                    if not isinstance(span, list) or not span:
                        raise ParseError("'span' must be a nonempty list of vectors", f"{ploc}/span")
                    vecs = [_complex_array(v, f"{ploc}/span/{j}", 1) for j, v in enumerate(span)]
                    for j, v in enumerate(vecs):
                        if v.size != dim:
                            raise ValidationError(f"span vector length {v.size} != dimension {dim}",
                                                  f"{ploc}/span/{j}")
                    projs[name] = projector_from_span(vecs, name=name)
                elif "basis" in pdoc:
                    if not isinstance(pdoc["basis"], list):
                        raise ParseError("'basis' must be a list of indices", f"{ploc}/basis")
                    with _located(f"{ploc}/basis"):
                        projs[name] = basis_projector(dim, pdoc["basis"], name=name)
                else:
                    raise ParseError("projector needs 'matrix', 'span' or 'basis'", ploc)
        with _located(loc):
            sets.append(AlternativeSet(time=time, projectors=projs.values(), label=label))

    with _located("/alternative_sets"):
        grid = HistoryGrid(sets, ham, psi)

    partitions: dict[str, Partition] = {}
    pdocs = doc.get("partitions")
    if pdocs is not None and not isinstance(pdocs, list):
        raise ParseError("'partitions' must be a list", "/partitions")
    for n, pdoc in enumerate(pdocs or []):
        loc = f"/partitions/{n}"
        if not isinstance(pdoc, dict) or "name" not in pdoc or "classes" not in pdoc:
            raise ParseError("partition needs 'name' and 'classes'", loc)
        name = _string(pdoc, "name", loc)
        if name in partitions:
            raise ValidationError(f"partition name {name!r} is already used", f"{loc}/name")
        if not isinstance(pdoc["classes"], list):
            raise ParseError("'classes' must be a list", f"{loc}/classes")
        classes, labels = [], []
        try:
            for c, cdoc in enumerate(pdoc["classes"]):
                cloc = f"{loc}/classes/{c}"
                if not isinstance(cdoc, dict) or "histories" not in cdoc:
                    raise ParseError("class needs 'histories'", cloc)
                hdocs = cdoc["histories"]  # numpy reads a bool beside integers as 0 or 1
                rows = history_array(hdocs) if isinstance(hdocs, list) else None
                if rows is None or not (rows.dtype == np.int64 and bool not in set(
                        map(type, chain.from_iterable(hdocs))) or all(
                        isinstance(h, list) and all(map(_is_int, h)) for h in hdocs)):
                    raise ParseError("histories must be lists of integers", f"{cloc}/histories")
                classes.append(rows)
                labels.append(_string(cdoc, "label", cloc, f"class{c}"))
        finally:  # a repeat in a class read before an error is refused first
            _refuse_repeats(classes, grid.n_times, loc)
        partitions[name] = Partition(classes, labels)

    data_name = data_time = None
    if doc.get("data_projector") is not None:
        data_name, data_time = parse_data_ref(doc["data_projector"], "/data_projector")
        locate_alternative(grid, data_name, data_time, "/data_projector")

    return Scenario(grid=grid, partitions=partitions, data_name=data_name, data_time=data_time)


def parse_scenario(path) -> Scenario:
    p = Path(path)
    try:
        text = p.read_text()
    except (OSError, UnicodeDecodeError) as err:
        raise ParseError(f"cannot read scenario file: {err}", str(p)) from None
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as err:  # bad JSON, or an integer of > 4,300 digits
        raise ParseError(f"malformed JSON: {err}", str(p)) from None
    return scenario_from_dict(doc)


def scenario_to_dict(
    grid: HistoryGrid,
    partitions: dict[str, Partition] | None = None,
    data: tuple[str, float] | None = None,
) -> dict:
    doc = {
        "schema": SCHEMA,
        "dimension": grid.dim,
        "hamiltonian": "zero" if grid.hamiltonian.is_zero else encode_array(grid.hamiltonian.matrix),
        "initial_state": encode_array(grid.initial_state.amplitudes),
        "alternative_sets": [
            {
                "time": s.time,
                "label": s.label,
                "projectors": [
                    {"name": p.name, "basis": list(p.basis)} if p.basis is not None
                    else {"name": p.name, "span": encode_array(p.isometry.T)}
                    if p.isometry is not None and p.rank  # a `span` list may not be empty
                    else {"name": p.name, "matrix": encode_array(p.matrix)}
                    for p in s.projectors
                ],
            }
            for s in grid.sets
        ],
    }
    if partitions:
        doc["partitions"] = [
            {"name": name, "classes": [{"label": label, "histories": sorted(map(list, c.tolist()))}
                                       for label, c in zip(part.labels, part.classes)]}
            for name, part in sorted(partitions.items())
        ]
    if data is not None:
        doc["data_projector"] = f"{data[0]}@{float(data[1])!r}"
    return doc


def dump_scenario(
    grid: HistoryGrid,
    path=None,
    partitions: dict[str, Partition] | None = None,
    data: tuple[str, float] | None = None,
) -> str:
    text = json.dumps(
        scenario_to_dict(grid, partitions, data), sort_keys=True, separators=(",", ":")
    )
    if path is not None:
        Path(path).write_text(text + "\n")
    return text
