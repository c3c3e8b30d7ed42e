import json
import math

import numpy as np
import pytest

from dhq.decoherence import decoherence_functional
from dhq.errors import ParseError, ValidationError
from dhq.histories import class_operator, enumerate_histories
from dhq.models import three_box, two_slit
from dhq.scenario import (
    dump_scenario,
    parse_scenario,
    scenario_from_dict,
    scenario_to_dict,
)


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
    dump_scenario(sc.grid, path, partitions={"merge-slits": sc.slit_merge_partition})
    loaded = parse_scenario(path)
    assert grids_equal(sc.grid, loaded.grid)
    assert set(loaded.partitions) == {"merge-slits"}
    assert loaded.partitions["merge-slits"].classes == sc.slit_merge_partition.classes


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
