import json
import math
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import dhq
from dhq.cli import main
from dhq.decoherence import decoherence_functional
from dhq.errors import ParseError, ValidationError
from dhq.histories import class_operator, enumerate_histories
from dhq import models
from dhq.linalg import basis_projector, projector_from_span
from dhq.models import THREE_BOX_KINDS, spin_environment, three_box, two_slit
from dhq.scenario import (
    DENSE_DIM_CAP,
    _complex_array,
    _located,
    _matrix,
    _vector,
    dump_scenario,
    encode_array,
    parse_scenario,
    scenario_from_dict,
    scenario_to_dict,
)

from random_grids import random_decoherent_grid


def grids_equal(a, b, tol=1e-12):
    if a.times != b.times or a.shape != b.shape:
        return False
    for h in enumerate_histories(a):
        if not np.allclose(class_operator(a, h), class_operator(b, h), atol=tol):
            return False
    return np.allclose(a.initial_state.amplitudes, b.initial_state.amplitudes, atol=tol)


def test_three_box_round_trip(tmp_path):
    sc = three_box("past_A")
    path = tmp_path / "tb.json"
    dump_scenario(sc.grid, path, data=(sc.data_name, sc.data_time))
    loaded = parse_scenario(path)
    assert grids_equal(sc.grid, loaded.grid)
    assert loaded.data_name == "Phi"
    assert loaded.data_time == 2.0
    r1 = decoherence_functional(sc.grid)
    r2 = decoherence_functional(loaded.grid)
    assert np.allclose(r1.gram, r2.gram, atol=1e-14)


def test_two_slit_round_trip_with_partition(tmp_path):
    sc = two_slit(4, False)
    path = tmp_path / "ts.json"
    dump_scenario(sc.grid, path, partitions={"merge-slits": sc.partitions["merge-slits"]})
    loaded = parse_scenario(path)
    assert grids_equal(sc.grid, loaded.grid)
    assert set(loaded.partitions) == {"merge-slits"}
    assert [c.tolist() for c in loaded.partitions["merge-slits"].classes] == [
        c.tolist() for c in sc.partitions["merge-slits"].classes]


def test_span_projectors_accepted():
    doc = {
        "schema": "dhq-scenario/1",
        "dimension": 2,
        "hamiltonian": "zero",
        "initial_state": [[1.0, 0.0], [0.0, 0.0]],
        "alternative_sets": [
            {
                "time": 1.0,
                "label": "s",
                "projectors": [
                    {"name": "up", "span": [[[1.0, 0.0], [0.0, 0.0]]]},
                    {"name": "down", "span": [[[0.0, 0.0], [1.0, 0.0]]]},
                ],
            }
        ],
    }
    sc = scenario_from_dict(doc)
    assert sc.grid.dim == 2


def base_doc():
    psi = 1 / math.sqrt(3)
    return {
        "schema": "dhq-scenario/1",
        "dimension": 3,
        "hamiltonian": "zero",
        "initial_state": [[psi, 0.0]] * 3,
        "alternative_sets": [
            {
                "time": 1.0,
                "label": "past",
                "projectors": [
                    {"name": "A", "matrix": [[[1, 0], [0, 0], [0, 0]],
                                             [[0, 0], [0, 0], [0, 0]],
                                             [[0, 0], [0, 0], [0, 0]]]},
                    {"name": "~A", "matrix": [[[0, 0], [0, 0], [0, 0]],
                                              [[0, 0], [1, 0], [0, 0]],
                                              [[0, 0], [0, 0], [1, 0]]]},
                ],
            }
        ],
    }


def test_incomplete_set_rejected_with_location():
    doc = base_doc()
    doc["alternative_sets"][0]["projectors"].pop()
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(doc)
    assert "/alternative_sets/0" in str(err.value)
    assert "completeness" in str(err.value)


def test_non_increasing_times_rejected():
    doc = base_doc()
    doc["alternative_sets"].append(json.loads(json.dumps(doc["alternative_sets"][0])))
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(doc)
    assert "strictly increasing" in str(err.value)


def test_bad_schema_rejected():
    doc = base_doc()
    doc["schema"] = "nope/9"
    with pytest.raises(ParseError) as err:
        scenario_from_dict(doc)
    assert "/schema" in str(err.value)


def test_bad_complex_scalar_rejected():
    doc = base_doc()
    doc["initial_state"][0] = [1.0]
    with pytest.raises(ParseError) as err:
        scenario_from_dict(doc)
    assert "/initial_state" in str(err.value)


def test_unnormalized_state_rejected():
    doc = base_doc()
    doc["initial_state"] = [[1.0, 0.0]] * 3
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(doc)
    assert "/initial_state" in str(err.value)


def test_non_projector_matrix_rejected():
    doc = base_doc()
    doc["alternative_sets"][0]["projectors"][0]["matrix"][0][0] = [0.5, 0.0]
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(doc)
    assert "/alternative_sets/0/projectors/0" in str(err.value)


def test_unresolved_data_projector_rejected():
    doc = base_doc()
    doc["data_projector"] = "Zeta@1.0"
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(doc)
    assert "/data_projector" in str(err.value)


def test_missing_file_is_parse_error(tmp_path):
    with pytest.raises(ParseError):
        parse_scenario(tmp_path / "absent.json")


def test_malformed_json_is_parse_error(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ParseError):
        parse_scenario(p)


def test_nonzero_hamiltonian_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    doc = {
        "schema": "dhq-scenario/1",
        "dimension": 2,
        "hamiltonian": [[[float((a + a.conj().T)[i, j].real), float((a + a.conj().T)[i, j].imag)]
                         for j in range(2)] for i in range(2)],
        "initial_state": [[1.0, 0.0], [0.0, 0.0]],
        "alternative_sets": [
            {
                "time": 0.7,
                "label": "s",
                "projectors": [
                    {"name": "up", "matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]},
                    {"name": "down", "matrix": [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]},
                ],
            }
        ],
    }
    sc = scenario_from_dict(doc)
    assert not sc.grid.hamiltonian.is_zero
    redoc = scenario_to_dict(sc.grid)
    sc2 = scenario_from_dict(redoc)
    assert grids_equal(sc.grid, sc2.grid)


def test_nonfinite_time_rejected_with_location():
    for bad in (math.nan, math.inf):
        doc = base_doc()
        second = json.loads(json.dumps(doc["alternative_sets"][0]))
        doc["alternative_sets"][0]["time"] = bad
        second["time"] = bad
        doc["alternative_sets"].append(second)
        with pytest.raises(ParseError) as err:
            scenario_from_dict(doc)
        assert "/alternative_sets/0/time" in str(err.value)


def test_duplicate_projector_names_rejected_with_location():
    doc = base_doc()
    doc["alternative_sets"][0]["projectors"][1]["name"] = "A"
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(doc)
    assert "/alternative_sets/0/projectors/1" in str(err.value)
    assert "duplicate" in str(err.value)


def test_bad_dimension_rejected_with_location():
    # 10**10 is refused before numpy would be asked for a d x d matrix.
    for dim, error in ((-3, ParseError), (0, ParseError), ("3", ParseError),
                       (10**10, ValidationError), (2, ValidationError)):
        doc = base_doc()
        doc["dimension"] = dim
        with pytest.raises(error) as err:
            scenario_from_dict(doc)
        assert "/dimension" in str(err.value)


def test_dimension_above_dense_cap_rejected_before_allocation(tmp_path):
    # Two small files that ask for far more memory than they hold: a 700 KB file
    # whose 30,000-entry state would make the zero Hamiltonian a 13 GiB matrix,
    # and a 0.9 MB file of 70 rank-1 spans at dimension 1024, which would become
    # 70 dense projectors of 16 MiB each.  The CLI runs in a child capped at
    # 1 GiB of address space, so a loader that allocated first would fail
    # there, not exhaust the host.
    def unit(k, n):
        return [[0.0, 0.0]] * k + [[1.0, 0.0]] + [[0.0, 0.0]] * (n - k - 1)

    n = 30_000
    wide = {
        "schema": "dhq-scenario/1",
        "dimension": n,
        "hamiltonian": "zero",
        "initial_state": unit(0, n),
        "alternative_sets": [{"time": 1.0, "projectors": [{"name": "all", "span": [unit(0, n)]}]}],
    }
    spans = dict(wide, dimension=DENSE_DIM_CAP, initial_state=unit(0, DENSE_DIM_CAP),
                 alternative_sets=[{"time": 1.0, "projectors": [
                     {"name": f"e{k}", "span": [unit(k, DENSE_DIM_CAP)]} for k in range(70)]}])
    limit = 2**30

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = dict(os.environ, PYTHONPATH=str(Path(dhq.__file__).parent.parent),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    for doc, location, message in (
        (wide, "/dimension", f"exceeds the limit of {DENSE_DIM_CAP}"),
        (spans, "/alternative_sets", "70 projectors of dimension 1024 exceed the limit of 16777216"),
    ):
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        out = subprocess.run([sys.executable, "-m", "dhq", "check", str(path)], env=env,
                             capture_output=True, text=True, timeout=120, preexec_fn=cap_memory)
        assert out.returncode == 1
        assert f"{location}: " in out.stderr and "Traceback" not in out.stderr
        with pytest.raises(ValidationError) as err:
            parse_scenario(path)
        assert err.value.location == location and message in str(err.value)
    # The cap is inclusive: dimension DENSE_DIM_CAP passes it and meets the next check.
    doc = base_doc()
    doc["dimension"] = DENSE_DIM_CAP
    with pytest.raises(ValidationError, match="initial state length"):
        scenario_from_dict(doc)


def box_dump():
    sc = three_box("past_A")
    return scenario_to_dict(sc.grid, None, (sc.data_name, sc.data_time))


def box_grid_dump():
    """box_dump without its data projector, so that the grid alone decides whether it loads."""
    return scenario_to_dict(three_box("past_A").grid)


def slit_dump():
    sc = two_slit(4, False)
    return scenario_to_dict(sc.grid, {"merge-slits": sc.partitions["merge-slits"]})


def two_partition_slit_dump():
    sc = two_slit(4, False)
    parts = {"merge-slits": sc.partitions["merge-slits"], "other": sc.partitions["merge-slits"]}
    return scenario_to_dict(sc.grid, parts)


def replaced(doc, path, value):
    """A copy of doc with the node at path (a tuple of keys) set to value."""
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


FIRST_HISTORIES = ("partitions", 0, "classes", 0, "histories")
FIRST_INDEX = FIRST_HISTORIES + (0, 0)
SECOND_INDEX = FIRST_HISTORIES + (1, 0)
BIN0 = ("alternative_sets", 1, "projectors", 0, "basis")  # slit_dump's screen bin 0, [0]
BIN0_LOC = "/alternative_sets/1/projectors/0/basis"
SPAN0 = ("alternative_sets", 0, "projectors", 0, "span", 0)
MATRIX1 = ("alternative_sets", 0, "projectors", 1, "matrix")
MATRIX1_LOC = "/alternative_sets/0/projectors/1/matrix"


def _three_member_sets(n, names):
    """n sets of `basis` members named `names` at the three-box d = 3."""
    members = [{"name": name, "basis": [i]} for i, name in enumerate(names)]
    return [{"time": float(t), "projectors": members} for t in range(1, n + 1)]
HOSTILE_CASES = {
    "huge-int-scalar": (box_dump, ("initial_state", 0, 0), 10**400, "/initial_state/0"),
    "huge-int-time": (box_dump, ("alternative_sets", 0, "time"), 10**400,
                      "/alternative_sets/0/time"),
    # 5,001 digits: json.loads itself refuses the literal, so the file is named.
    "int-over-digit-limit": (box_dump, ("alternative_sets", 0, "time"), 10**5000,
                             "/alternative_sets/0/time"),
    "index-1e400": (slit_dump, FIRST_INDEX, json.loads("1e400"),
                    "/partitions/0/classes/0/histories"),
    "index-0.9": (slit_dump, FIRST_INDEX, 0.9, "/partitions/0/classes/0/histories"),
    "index-true": (slit_dump, FIRST_INDEX, True, "/partitions/0/classes/0/histories"),
    # numpy reads [[0, 0], [True, 0]] as integers: only the type scan sees the bool.
    "index-true-later": (slit_dump, SECOND_INDEX, True, "/partitions/0/classes/0/histories"),
    "index-1.0-later": (slit_dump, SECOND_INDEX, 1.0, "/partitions/0/classes/0/histories"),
    "histories-nested": (slit_dump, FIRST_HISTORIES, [[[0, 0], [1, 0], [2, 0]]],
                         "/partitions/0/classes/0/histories"),
    "histories-int": (slit_dump, FIRST_HISTORIES, 5, "/partitions/0/classes/0/histories"),
    # The class's frozenset merged the repeat silently, and the file loaded.
    "history-repeated": (slit_dump, FIRST_HISTORIES,
                         [[0, 0], [1, 0], [2, 0], [0, 0]], "/partitions/0/classes/0/histories"),
    "partitions-int": (slit_dump, ("partitions",), 5, "/partitions"),
    "classes-int": (slit_dump, ("partitions", 0, "classes"), 5, "/partitions/0/classes"),
    # A repeated name used to load, the later partition silently winning.
    "partition-name-repeated": (two_partition_slit_dump, ("partitions", 1, "name"),
                                "merge-slits", "/partitions/1/name"),
    "hamiltonian-nan": (box_dump, ("hamiltonian",), [[[math.nan, 0.0]] * 3] * 3, "/hamiltonian"),
    "hamiltonian-shape": (box_dump, ("hamiltonian",), [[[0.0, 0.0]] * 2] * 2, "/hamiltonian"),
    "basis-int": (slit_dump, BIN0, 0, BIN0_LOC),
    "basis-dict": (slit_dump, BIN0, {"0": 0}, BIN0_LOC),
    "basis-true": (slit_dump, BIN0 + (0,), True, BIN0_LOC),
    "basis-float": (slit_dump, BIN0 + (0,), 0.0, BIN0_LOC),
    "basis-string": (slit_dump, BIN0 + (0,), "0", BIN0_LOC),
    "basis-nested": (slit_dump, BIN0 + (0,), [0], BIN0_LOC),
    "basis-huge": (slit_dump, BIN0 + (0,), 10**400, BIN0_LOC),
    "basis-negative": (slit_dump, BIN0 + (0,), -1, BIN0_LOC),
    "basis-dimension": (slit_dump, BIN0 + (0,), 4, BIN0_LOC),
    "basis-duplicate": (slit_dump, BIN0, [0, 0], BIN0_LOC),
    # box_dump's first set: A as its span, ~A as its matrix, in dimension 3.
    "span-length": (box_dump, SPAN0, [[0.0, 0.0]] * 4, "/alternative_sets/0/projectors/0/span/0"),
    "span-short": (box_dump, SPAN0, [[1.0, 0.0]], "/alternative_sets/0/projectors/0/span/0"),
    "matrix-shape": (box_dump, MATRIX1, [[[0.0, 0.0]] * 4] * 4, MATRIX1_LOC),
    "matrix-wide": (box_dump, MATRIX1, [[[0.0, 0.0]] * 4] * 3, MATRIX1_LOC),
    # float() alone took these as 1.0 and 10.0.
    "time-true": (box_dump, ("alternative_sets", 0, "time"), True, "/alternative_sets/0/time"),
    "time-string": (box_dump, ("alternative_sets", 1, "time"), "1_0", "/alternative_sets/1/time"),
    # Finite entries whose eigenvalue 2e308 is not.
    "hamiltonian-eigenvalue-inf": (box_dump, ("hamiltonian",),
                                   [[[1e308, 0.0], [1e308, 0.0], [0.0, 0.0]]] * 2
                                   + [[[0.0, 0.0]] * 3], "/hamiltonian"),
    # numpy read these as 1.0 and 0.0 beside numbers, so each of them loaded.
    "initial-state-false": (box_dump, ("initial_state", 0, 1), False, "/initial_state/0"),
    "hamiltonian-false": (box_dump, ("hamiltonian",),
                          [[[False, 0.0]] + [[0.0, 0.0]] * 2] + [[[0.0, 0.0]] * 3] * 2,
                          "/hamiltonian/0/0"),
    "matrix-true": (box_dump, MATRIX1 + (1, 1, 0), True, MATRIX1_LOC + "/1/1"),
    "span-false": (box_dump, SPAN0 + (0, 1), False, "/alternative_sets/0/projectors/0/span/0/0"),
    # str() made these the labels "None" and "{'a': 1}".
    "projector-name-null": (box_dump, ("alternative_sets", 0, "projectors", 0, "name"), None,
                            "/alternative_sets/0/projectors/0/name"),
    "set-label-dict": (box_dump, ("alternative_sets", 0, "label"), {"a": 1},
                       "/alternative_sets/0/label"),
    "partition-name-int": (slit_dump, ("partitions", 0, "name"), 5, "/partitions/0/name"),
    "class-label-null": (slit_dump, ("partitions", 0, "classes", 0, "label"), None,
                         "/partitions/0/classes/0/label"),
    "matrix-ragged": (box_dump, MATRIX1, [[[0.0, 0.0]] * 3, [[0.0, 0.0]] * 2, [[0.0, 0.0]] * 3],
                      MATRIX1_LOC),
    "span-int": (box_dump, SPAN0[:-1], 5, "/alternative_sets/0/projectors/0/span"),
    "projector-no-form": (box_dump, ("alternative_sets", 0, "projectors", 0), {"name": "A"},
                          "/alternative_sets/0/projectors/0"),
    "projector-name-repeated": (box_dump, ("alternative_sets", 0, "projectors", 1, "name"), "A",
                                "/alternative_sets/0/projectors/1"),
    # Labels join member names with commas: with {d,e, e} then {c, c,d}, two rows read c,d,e.
    "projector-name-comma": (box_dump, ("alternative_sets", 0, "projectors", 0, "name"), "A,B",
                             "/alternative_sets/0/projectors/0/name"),
    # A class label names one row of the coarse table: two bin0 rows used to print.
    "class-label-repeated": (slit_dump, ("partitions", 0, "classes", 1, "label"), "bin0",
                             "/partitions/0/classes/1/label"),
    # 3^12 = 531,441 histories fit the rows-only rule (3 N entries) and loaded; with their
    # indices and labels they cost 38 N.
    "grid-deep": (box_grid_dump, ("alternative_sets",), _three_member_sets(12, "abc"),
                  "/alternative_sets"),
    # 3^9 = 19,683 histories whose labels are 9 names of 200 characters: 1,820 N entries.
    "grid-long-names": (box_grid_dump, ("alternative_sets",),
                        _three_member_sets(9, [c * 200 for c in "abc"]), "/alternative_sets"),
}


@pytest.mark.parametrize("case", sorted(HOSTILE_CASES))
def test_hostile_value_rejected_with_location(case, tmp_path, capsys):
    make, path, value, location = HOSTILE_CASES[case]
    doc = replaced(make(), path, value)
    with pytest.raises((ParseError, ValidationError)) as err:
        scenario_from_dict(doc)
    assert err.value.location == location
    p = tmp_path / "hostile.json"
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # so that json.dumps writes every integer literal
    try:
        p.write_text(json.dumps(doc))
    finally:
        sys.set_int_max_str_digits(limit)
    assert main(["check", str(p)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert location in err or str(p) in err


def test_pair_screen_refused_before_its_arrays(tmp_path, capsys):
    # A set of m members is screened for exclusivity with m x m arrays.  4,097 members, rank-0
    # zero matrices beside two `basis` ones in d = 2, pass completeness and the grid budget;
    # each such array would hold 128 MiB.
    zero = [[[0.0, 0.0]] * 2] * 2
    members = [{"name": "a", "basis": [0]}, {"name": "b", "basis": [1]}]
    members += [{"name": f"z{i}", "matrix": zero} for i in range(4095)]
    doc = {"schema": "dhq-scenario/1", "dimension": 2, "initial_state": [[1.0, 0.0], [0.0, 0.0]],
           "alternative_sets": [{"time": 1.0, "projectors": members}]}
    message = ("/alternative_sets/0: 4097^2 pairs of projectors exceed the limit of 16777216 "
               "dense entries")
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError) as err:
            scenario_from_dict(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (err.value.location, str(err.value)) == ("/alternative_sets/0", message)
    assert peak < 64 * 2**20
    path = tmp_path / "members.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().err == f"dhq: error: {message}\n"


@pytest.mark.parametrize("time", ["2_0", "inf", "nan", "+2", " 2"])
def test_data_projector_time_must_be_a_json_number(time, tmp_path, capsys):
    # As a set's `time` is; float() took "2_0" as 20.0 and then found no set at that time.
    doc = replaced(box_dump(), ("data_projector",), f"Phi@{time}")
    message = f"/data_projector: bad time in data projector reference 'Phi@{time}'"
    with pytest.raises(ParseError) as err:
        scenario_from_dict(doc)
    assert str(err.value) == message
    p = tmp_path / "ref.json"
    p.write_text(json.dumps(doc))
    assert main(["check", str(p)]) == 1
    assert capsys.readouterr().err == f"dhq: error: {message}\n"


def _diagonal(*entries):
    return [[[e if i == j else 0.0, 0.0] for j in range(len(entries))]
            for i, e in enumerate(entries)]


PHASE_OVERFLOW = {
    "eigenvalues": (_diagonal(1e308, -1e308, 0.0), (1.0, 2.0)),  # w t_n = -2e308
    "step": (_diagonal(1.0, 0.0, 0.0), (-1e308, 1e308)),  # t_2 - t_1 = inf
}


@pytest.mark.parametrize("case", sorted(PHASE_OVERFLOW))
def test_overflowing_evolution_phases_refused(case, tmp_path, capsys):
    # Both used to load, and end check, prob and retrodict in "gram entries sum to nan".
    hamiltonian, times = PHASE_OVERFLOW[case]
    doc = replaced(box_dump(), ("hamiltonian",), hamiltonian)
    for s, t in zip(doc["alternative_sets"], times):
        s["time"] = t
    doc["data_projector"] = f"Phi@{times[-1]!r}"
    with pytest.raises(ValidationError, match="evolution phases") as err:
        scenario_from_dict(doc)
    assert err.value.location == "/alternative_sets"
    p = tmp_path / "phases.json"
    p.write_text(json.dumps(doc))
    for cmd in ("check", "prob", "retrodict"):
        assert main([cmd, str(p)]) == 1
        assert capsys.readouterr().err == f"dhq: error: {err.value}\n"


# A 1e308 entry: its validation product (the norm, P^2, Q^dag Q) overflows.
HUGE_ENTRY = {
    "initial-state": (("initial_state", 0), "/initial_state"),
    "matrix": (MATRIX1 + (0, 0), "/alternative_sets/0/projectors/1"),
    "span": (SPAN0 + (0,), None),  # a valid span: it loads, normalized by the SVD
}


@pytest.mark.parametrize("case", sorted(HUGE_ENTRY))
def test_huge_entry_overflows_without_warnings(case, tmp_path):
    # numpy's overflow warnings escaped the loader here (filterwarnings = error) with no
    # location, and printed on the CLI's stderr with their source paths.
    path, location = HUGE_ENTRY[case]
    doc = replaced(box_dump(), path, [1e308, 0.0])
    expected = []
    if location is None:
        box_a = scenario_from_dict(doc).grid.sets[0].projectors[0]
        np.testing.assert_allclose(box_a.matrix, np.diag([1.0, 0.0, 0.0]), rtol=0, atol=1e-15)
    else:
        with pytest.raises(ValidationError) as err:
            scenario_from_dict(doc)
        assert err.value.location == location
        expected = [f"dhq: error: {err.value}"]
    p = tmp_path / "huge.json"
    p.write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=str(Path(dhq.__file__).parent.parent),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-m", "dhq", "check", str(p)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == (0 if location is None else 1)
    assert out.stderr.splitlines() == expected


def test_long_span_vectors_refused_before_any_projector_is_built():
    # A 96 KB file: dimension 2, and two rank-1 spans of length 4,000.  Their projectors
    # used to be formed at the vectors' length (256 MB each) before the set was refused.
    n = 4000
    doc = base_doc()
    doc.update(dimension=2, initial_state=[[1.0, 0.0], [0.0, 0.0]])
    doc["alternative_sets"][0]["projectors"] = [
        {"name": name, "span": [[[0.0, 0.0]] * k + [[1.0, 0.0]] + [[0.0, 0.0]] * (n - k - 1)]}
        for k, name in enumerate("ab")
    ]
    assert len(json.dumps(doc)) < 100_000
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError) as err:
            scenario_from_dict(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.location == "/alternative_sets/0/projectors/0/span/0"
    assert "span vector length 4000 != dimension 2" in str(err.value)
    assert peak < 16 * 2**20


def test_undecodable_file_is_parse_error(tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"schema": "\xff"}')
    for p in (deep, latin):
        with pytest.raises(ParseError) as err:
            parse_scenario(p)
        assert err.value.location == str(p)


def test_empty_basis_loads_as_rank_zero():
    doc = slit_dump()
    doc["alternative_sets"][1]["projectors"].append({"name": "none", "basis": []})
    p = scenario_from_dict(doc).grid.sets[1].projectors[-1]
    assert p.rank == 0 and p.basis == () and p.isometry.shape == (4, 0)


FUZZ_DUMPS = {"three-box": box_dump(), "two-slit": slit_dump()}
FUZZ_VALUES = [10**400, math.inf, math.nan, "x", True, None, [], {}, [[[0.0, [1.0]]]]]


def test_fuzzed_dumps_hold_every_dumped_projector_form():
    forms = {key for doc in FUZZ_DUMPS.values() for s in doc["alternative_sets"]
             for p in s["projectors"] for key in p if key != "name"}
    assert forms == {"matrix", "basis", "span"}


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.data())
def test_loader_fuzz_loads_or_locates(data):
    # Walk down to a uniformly drawn depth, so structure nodes near the root
    # are hit as often as the many matrix entries deep inside.
    doc = FUZZ_DUMPS[data.draw(st.sampled_from(sorted(FUZZ_DUMPS)))]
    path, node = (), doc
    for _ in range(data.draw(st.integers(0, 8))):
        if not isinstance(node, (dict, list)) or not node:
            break
        key = data.draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        path, node = path + (key,), node[key]
    try:
        scenario_from_dict(replaced(doc, path, data.draw(st.sampled_from(FUZZ_VALUES))))
    except (ParseError, ValidationError) as err:
        assert err.location.startswith("/")


# Leaves a JSON decoder can produce.
NUMBERS = st.one_of(
    st.floats(),
    st.integers(-(2**65), 2**65),
    st.sampled_from([-0.0, math.inf, -math.inf, math.nan, 2**63, 2**64 - 1, 2**64,
                     -(2**63) - 1, 10**400, -(10**400)]),
    st.booleans(),
)
LEAVES = st.one_of(NUMBERS, st.text(max_size=2), st.none(), st.just([]))


@st.composite
def complex_arrays(draw, depth):
    """Nested lists of pairs, depth 1 or 2: half rectangular and numeric (mostly
    [re, im] pairs), half ragged or hostile."""
    if draw(st.booleans()):
        width = draw(st.sampled_from([2, 2, 2, 1, 3, 4]))
        n = draw(st.integers(1, 3))
        vector = st.lists(st.lists(NUMBERS, min_size=width, max_size=width), min_size=n, max_size=n)
        return draw(vector if depth == 1 else st.lists(vector, min_size=1, max_size=3))
    pair = st.one_of(st.lists(NUMBERS, min_size=2, max_size=2), st.lists(LEAVES, max_size=3), LEAVES)
    vector = st.one_of(st.lists(pair, max_size=3), LEAVES)
    return draw(vector if depth == 1 else st.one_of(st.lists(vector, max_size=3), LEAVES))


def _parse_outcome(fn, v):
    try:
        return fn(v)
    except Exception as err:  # the exception type is part of what is compared
        return type(err), str(err), getattr(err, "location", None)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.data())
def test_complex_array_matches_walk(data):
    # A quarter of the values have the other depth: a matrix offered as a
    # vector, or the reverse.
    ndim = data.draw(st.sampled_from([1, 2]))
    v = data.draw(complex_arrays(data.draw(st.sampled_from([ndim, ndim, ndim, 3 - ndim]))))
    walk = _vector if ndim == 1 else _matrix
    fast = _parse_outcome(lambda x: _complex_array(x, "/x", ndim), v)
    slow = _parse_outcome(lambda x: walk(x, "/x"), v)
    if isinstance(slow, tuple):
        assert fast == slow
    else:
        assert isinstance(fast, np.ndarray)
        assert fast.dtype == slow.dtype == np.complex128 and fast.shape == slow.shape
        assert np.array_equal(fast.view(np.float64), slow.view(np.float64), equal_nan=True)
        assert fast.tobytes() == slow.tobytes()  # also -0.0 and NaN payloads
        event("loaded")


SPAN_LOC = "/alternative_sets/0/projectors/0"


def _span_per_vector(span, dim):
    """The loader's `span` branch as it parsed one vector at a time: the reference."""
    with _located(SPAN_LOC):
        if not isinstance(span, list) or not span:
            raise ParseError("'span' must be a nonempty list of vectors", f"{SPAN_LOC}/span")
        vecs = [_complex_array(v, f"{SPAN_LOC}/span/{j}", 1) for j, v in enumerate(span)]
        for j, v in enumerate(vecs):
            if v.size != dim:
                raise ValidationError(f"span vector length {v.size} != dimension {dim}",
                                      f"{SPAN_LOC}/span/{j}")
        return projector_from_span(vecs, name="P")


@st.composite
def spans(draw, dim):
    """Lists of r vectors of length dim: orthonormal, generic (the SVD path) or
    dependent, some with one vector made an integer, short, long or hostile one;
    else a hostile value of depth 2."""
    kind = draw(st.sampled_from(["orthonormal", "generic", "generic", "dependent", "hostile"]))
    if kind == "hostile":
        return draw(complex_arrays(2))
    r = draw(st.integers(1, dim + 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.normal(size=(dim, r)) + 1j * rng.normal(size=(dim, r))
    if kind == "orthonormal":
        a = np.linalg.qr(a)[0]
    elif kind == "dependent":
        a[:, -1] = a[:, 0]
    vecs = encode_array(a.T)
    j = draw(st.integers(0, len(vecs) - 1))
    change = draw(st.sampled_from([None, None, "int", "short", "long", "hostile"]))
    if change == "int":
        vecs[j] = [[draw(st.integers(-3, 3)), 0] for _ in vecs[j]]
    elif change == "short":
        vecs[j] = vecs[j][:-1]
    elif change == "long":
        vecs[j] = vecs[j] + [[0.0, 0.0]]
    elif change == "hostile":
        vecs[j] = draw(complex_arrays(1))
    return vecs


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.data())
def test_span_parsed_whole_matches_the_per_vector_walk(data):
    # The loader's one path, which parses each `span` vector on its own, against the
    # per-vector walk kept above: the same projector bit for bit, or the same refusal.
    dim = data.draw(st.integers(1, 4))
    span = data.draw(spans(dim))
    slow = _parse_outcome(lambda s: _span_per_vector(s, dim), span)
    rest = np.eye(dim) - (np.zeros((dim, dim)) if isinstance(slow, tuple) else slow.matrix)
    doc = {"schema": "dhq-scenario/1", "dimension": dim,
           "initial_state": encode_array(np.eye(dim)[0].astype(complex)),
           "alternative_sets": [{"time": 0.0, "projectors": [
               {"name": "P", "span": span}, {"name": "rest", "matrix": encode_array(rest)}]}]}
    fast = _parse_outcome(scenario_from_dict, doc)
    if isinstance(slow, tuple):
        assert fast == slow
        event(f"refused at {slow[2].removeprefix(SPAN_LOC)}")
    else:
        p = fast.grid.sets[0].projectors[0]
        assert p.matrix.tobytes() == slow.matrix.tobytes()
        assert p.isometry.tobytes() == slow.isometry.tobytes()
        event("loaded")


def _arrays(grid):
    yield grid.initial_state.amplitudes
    yield grid.hamiltonian.matrix
    for s in grid.sets:
        for p in s.projectors:
            yield p.matrix


def _dump_grids():
    rng = np.random.default_rng(3)
    yield three_box("past_A").grid
    yield two_slit(4, True).grid
    for dim in (2, 5):
        yield random_decoherent_grid(rng, dim=dim, n_times=2)


def test_indented_dump_loads_bit_identical(tmp_path):
    for grid in _dump_grids():
        old = tmp_path / "old.json"
        old.write_text(json.dumps(scenario_to_dict(grid), indent=2, sort_keys=True) + "\n")
        new = tmp_path / "new.json"
        dump_scenario(grid, new)
        assert old.stat().st_size > new.stat().st_size
        for a, b, c in zip(_arrays(parse_scenario(old).grid), _arrays(parse_scenario(new).grid),
                           _arrays(grid)):
            assert a.tobytes() == b.tobytes() == np.ascontiguousarray(c).tobytes()


def test_dump_is_compact_and_deterministic():
    for grid in _dump_grids():
        text = dump_scenario(grid)
        assert "\n" not in text and ", " not in text
        assert json.loads(text) == scenario_to_dict(grid)
        assert dump_scenario(grid) == text


def _model_grids(monkeypatch):
    """(label, grid, ids of every projector basis_projector made) for every built-in model."""
    made = set()

    def spy(*args, **kwargs):
        p = basis_projector(*args, **kwargs)
        made.add(id(p))
        return p

    monkeypatch.setattr(models, "basis_projector", spy)
    grids = [(f"three-box {kind}", three_box(kind).grid) for kind in THREE_BOX_KINDS]
    grids += [(f"two-slit env={env}", two_slit(4, env).grid) for env in (False, True)]
    grids.append(("spin-env", spin_environment(3, 0.9).grid))
    return [(label, grid, made) for label, grid in grids]


def matrix_form_dump(grid) -> str:
    """The dump an encoder that writes every projector as a matrix gives (earlier versions)."""
    doc = scenario_to_dict(grid)
    for s, sdoc in zip(grid.sets, doc["alternative_sets"]):
        sdoc["projectors"] = [{"name": p.name, "matrix": encode_array(p.matrix)}
                              for p in s.projectors]
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def test_model_dumps_write_basis_and_reload_bit_identical(monkeypatch, tmp_path, capsys):
    forms = []
    for label, grid, made in _model_grids(monkeypatch):
        doc = json.loads(dump_scenario(grid))
        loaded = scenario_from_dict(doc).grid
        for s, sdoc, t in zip(grid.sets, doc["alternative_sets"], loaded.sets):
            for p, pdoc, q in zip(s.projectors, sdoc["projectors"], t.projectors, strict=True):
                form = "basis" if id(p) in made else "matrix" if p.isometry is None else "span"
                assert set(pdoc) == {"name", form}, (label, p.name)
                forms.append(form)
                assert q.name == p.name and q.rank == p.rank
                assert q.matrix.tobytes() == np.ascontiguousarray(p.matrix).tobytes()
                if form != "matrix":  # kept, so the exclusivity screen needs no eigh
                    assert q.isometry.tobytes() == p.isometry.tobytes()
                    assert q.basis == p.basis
        # A matrix-form dump of the same grid still loads, to the same report byte for byte.
        path = tmp_path / "model.json"
        reports = []
        for text in (matrix_form_dump(grid), dump_scenario(grid)):
            path.write_text(text + "\n")
            main(["--format", "json", "check", str(path)])
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1], label
    # Spans: three-box 2 + 2 + 2 + 3, two-slit 2 + 2 slits, spin-env plus and minus.
    assert forms.count("basis") == 4 + 4 + 2 and forms.count("span") == 9 + 4 + 2
    assert "matrix" in forms


def test_two_slit_environment_dump_sizes():
    # Screen bins are written as index lists and slits as their two orthonormal columns:
    # 1.6 MB and 89 MB with every projector a dense matrix, 0.33 and 5.4 MB with the slits so.
    assert len(dump_scenario(two_slit(32, True).grid)) < 400_000
    assert len(dump_scenario(two_slit(64, True).grid)) < 1_000_000
    assert len(dump_scenario(two_slit(128, True).grid)) < 2_000_000


def test_spin_environment_dump_size():
    # The recombined projectors are written as their d/2 orthonormal columns (759 KB as matrices).
    assert len(dump_scenario(spin_environment(6, math.pi / 2).grid)) < 400_000


def _fixed_point_scenarios():
    """(label, grid, partitions, data) as `dhq model ... --dump` writes them, and a span grid."""
    for kind in THREE_BOX_KINDS:
        sc = three_box(kind)
        yield kind, sc.grid, None, (sc.data_name, sc.data_time)
    for bins in (8, 32):
        for env in (False, True):
            sc = two_slit(bins, env)
            yield f"two-slit {bins} {env}", sc.grid, {"merge-slits": sc.partitions["merge-slits"]}, None
    yield "spin-env 6", spin_environment(6, math.pi / 2).grid, None, None
    yield "span grid", random_decoherent_grid(np.random.default_rng(8), 6, 3, span=True), None, None


def test_dumps_are_a_fixed_point(tmp_path):
    path = tmp_path / "dump.json"
    for label, grid, partitions, data in _fixed_point_scenarios():
        text = dump_scenario(grid, path, partitions, data)
        sc = parse_scenario(path)
        data = (sc.data_name, sc.data_time) if sc.has_data else None
        assert dump_scenario(sc.grid, None, sc.partitions or None, data) == text, label
