import contextlib
import copy
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import dhq
from dhq import cli
from dhq.cli import _load_named_events, main
from dhq.errors import DimensionMismatch, ParseError
from dhq.models import THREE_BOX_KINDS, three_box, two_slit
from dhq.realms import refine_join
from dhq.scenario import dump_scenario, encode_array, parse_scenario, scenario_to_dict


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def dump_model(capsys, tmp_path, name, *params):
    path = tmp_path / f"{name.replace(' ', '_')}.json"
    code, _ = run_cli(capsys, "model", name, *params, "--dump", str(path))
    assert code == 0
    return path


def test_check_three_box(capsys, tmp_path):
    p = dump_model(capsys, tmp_path, "three-box", "--realm", "past_A")
    code, out = run_cli(capsys, "check", str(p))
    assert code == 0
    assert "verdict decoherent: True" in out


def test_retrodict_table_shows_certainty(capsys, tmp_path):
    p = dump_model(capsys, tmp_path, "three-box", "--realm", "past_A")
    code, out = run_cli(capsys, "retrodict", str(p))
    assert code == 0
    assert "retrodicted probabilities given Phi@2:\n" in out
    assert "A   1.000000000000" in out
    assert "~A  0.000000000000" in out


def test_prob_exit_two_on_joint_set(capsys, tmp_path):
    p = dump_model(capsys, tmp_path, "three-box", "--realm", "joint_AB")
    code, out = run_cli(capsys, "prob", str(p))
    assert code == 2
    assert "verdict decoherent: False" in out
    assert "exit: 2" in out


def test_prob_reports_a_non_decoherent_set_in_full(capsys, tmp_path):
    # prob gives check's report, with exit status 2 and its error.
    p = dump_model(capsys, tmp_path, "three-box", "--realm", "joint_AB")
    docs = {}
    for cmd, code in (("check", 0), ("prob", 2)):
        got, out = run_cli(capsys, "--format", "json", cmd, str(p))
        docs[cmd] = doc = json.loads(out)
        assert got == doc.pop("exit_status") == code
        assert doc.pop("command") == f"dhq --format json {cmd} {p}"
    assert docs["prob"].pop("error") == "probabilities requested for a non-decoherent set"
    assert docs["check"].pop("error") is None
    assert docs["prob"] == docs["check"]
    assert docs["prob"]["verdicts"] == {"decoherent": False}
    assert len(docs["prob"]["gram"]["labels"]) == 8


def test_condition_command(capsys, tmp_path):
    p = dump_model(capsys, tmp_path, "three-box", "--realm", "past_A")
    code, out = run_cli(capsys, "condition", str(p), "--given", "Phi@2.0", "--target", "A@1.0")
    assert code == 0
    assert "1.000000000000" in out


def test_compat_three_box_realms(capsys, tmp_path):
    pa = dump_model(capsys, tmp_path, "three-box", "--realm", "past_A")
    pb = tmp_path / "b.json"
    run_cli(capsys, "model", "three-box", "--realm", "past_B", "--dump", str(pb))
    code, out = run_cli(capsys, "compat", str(pa), str(pb))
    assert code == 0
    assert "verdict compatibility: incompatible" in out


def test_coarse_two_slit(capsys, tmp_path):
    p = dump_model(capsys, tmp_path, "two-slit", "--bins", "8")
    code, out = run_cli(capsys, "coarse", str(p), "--partition", "merge-slits")
    assert code == 0
    assert "verdict coarse.decoherent: True" in out
    assert "max_sum_rule_violation" in out


def test_dump_to_stdout_is_loadable(capsys):
    code, out = run_cli(capsys, "model", "three-box", "--realm", "past_A", "--dump", "-")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "dhq-scenario/1"


def test_model_reports_without_dump(capsys):
    code, out = run_cli(capsys, "model", "spin-env", "--n-env", "10", "--theta", "1.5707963267948966")
    assert code == 0
    assert "predicted_offdiag_normalized = 0.0009765625" in out
    assert "numeric_offdiag_normalized = 0.0009765625" in out


def test_spacetime_order_flips_with_boost_sign(capsys):
    code1, out1 = run_cli(capsys, "spacetime", "order", "--a", "0,0,0,0", "--b", "0,1,0,0", "--v", "0.5")
    code2, out2 = run_cli(capsys, "spacetime", "order", "--a", "0,0,0,0", "--b", "0,1,0,0", "--v", "-0.5")
    assert code1 == code2 == 0
    assert "past_of_S" in out1
    assert "future_of_S" in out2


def test_spacetime_classify(capsys):
    code, out = run_cli(capsys, "spacetime", "classify", "--a", "0,0,0,0", "--b", "2,1,0,0")
    assert code == 0
    assert "timelike_future" in out


def test_spacetime_named_events(capsys, tmp_path):
    f = tmp_path / "events.json"
    f.write_text(json.dumps({"events": {"here": [0, 0, 0, 0], "there": [0, 1, 0, 0]}}))
    code, out = run_cli(capsys, "spacetime", "classify", "--a", "here", "--b", "there",
                        "--events", str(f))
    assert code == 0
    assert "spacelike" in out


BAD_EVENT_FILES = {
    "list": "[1, 2]",
    "scalar-event": '{"a": 5}',
    "string-coordinate": '{"a": [0, "x", 0, 0]}',
    "three-coordinates": '{"events": {"a": [0, 1, 0]}}',
    "huge-coordinate": '{"a": [0, 1e400, 0, 0]}',
    "deep-nesting": "[" * 100_000 + "]" * 100_000,
    "over-digit-limit": '{"a": [0, ' + "1" * 5000 + ", 0, 0]}",  # json.loads refuses it
}


@pytest.mark.parametrize("case", sorted(BAD_EVENT_FILES))
def test_spacetime_bad_events_file_exit_one(case, capsys, tmp_path):
    f = tmp_path / "events.json"
    f.write_text(BAD_EVENT_FILES[case])
    code = main(["spacetime", "classify", "--a", "a", "--b", "0,0,0,0", "--events", str(f)])
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err
    assert str(f) in err
    if case not in ("deep-nesting", "list", "over-digit-limit"):
        assert "'a'" in err


EVENT_DOCS = {
    "wrapped": {"events": {"here": [0, 0, 0, 0], "there": [0.5, 1, -2, 3e8]}},
    "flat": {"a": [1, 2, 3, 4], "b": [0.0, -0.0, 1e-300, 7]},
}
EVENT_VALUES = [10**400, 1e308, math.inf, -math.inf, math.nan, -0.0, 7, 2.5, "x", "", True, False,
                None, [], {}, [0, 0, 0, 0], [0, 1, 0], [0, 1, 0, 0, 0], ["0", 0, 0, 0],
                {"c": [0, 0, 0, 0]}, {"events": 5}]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.data())
def test_events_reader_fuzz_loads_or_names_file(tmp_path_factory, data):
    # Replace one node, at a uniformly drawn depth, of a valid events file.
    doc = EVENT_DOCS[data.draw(st.sampled_from(sorted(EVENT_DOCS)))]
    path, node = [], doc
    for _ in range(data.draw(st.integers(0, 3))):
        if not isinstance(node, (dict, list)) or not node:
            break
        key = data.draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        path, node = path + [key], node[key]
    doc = copy.deepcopy(doc)
    value = data.draw(st.sampled_from(EVENT_VALUES))
    if path:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    else:
        doc = value
    f = tmp_path_factory.getbasetemp() / "fuzzed-events.json"
    f.write_text(json.dumps(doc))
    try:
        named = _load_named_events(f)
    except ParseError as err:
        assert err.location == str(f)
        named = None
        event("refused")
    else:
        events = doc.get("events", doc)
        assert all(type(c) in (int, float) for coords in events.values() for c in coords)
        assert {n: (e.t, e.x, e.y, e.z) for n, e in named.items()} == {
            n: tuple(map(float, coords)) for n, coords in events.items()
        }
        event("loaded")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["spacetime", "classify", "--a", "0,0,0,0", "--b", "1,0,0,0", "--events", str(f)])
    assert code == (1 if named is None else 0)
    assert "Traceback" not in err.getvalue()
    assert (str(f) in err.getvalue()) is (named is None)


def test_spacetime_undecodable_events_file_exit_one(capsys, tmp_path):
    f = tmp_path / "events.json"
    f.write_bytes(b'{"a": "\xff"}')
    assert main(["spacetime", "classify", "--a", "a", "--b", "0,0,0,0", "--events", str(f)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err and str(f) in err


def test_spacetime_present_titan(capsys):
    code, out = run_cli(
        capsys, "spacetime", "present",
        "--igus", "0,0,0", "--igus", "4200,0,0",
        "--tau-star", "0.1", "--env-timescale", "10",
    )
    assert code == 0
    assert "contingency2_light_time_small: False" in out
    assert "common_present: False" in out


def _assert_exit_one(capsys, argv, message):
    assert main(["--format", "json", *argv]) == 1
    captured = capsys.readouterr()
    assert message in captured.err and "Traceback" not in captured.err
    return json.loads(captured.out, parse_constant=pytest.fail)  # no NaN or Infinity tokens


@pytest.mark.parametrize("cmd", [["classify"], ["order", "--v", "0.5"]])
@pytest.mark.parametrize("b", ["1e308,1e308,0,0", "1,1e308,0,0", "1e200,0,0,0"])
def test_spacetime_interval_overflow_exit_one(cmd, b, capsys):
    # dt**2 raised OverflowError, and |dx|^2 overflowed to inf.
    argv = ["spacetime", *cmd, "--a", "0,0,0,0", "--b", b]
    doc = _assert_exit_one(capsys, argv, "overflows the float range")
    # order parses its boost, then classifies: neither command gets to a verdict.
    assert doc == {
        "command": "dhq --format json " + " ".join(argv),
        "error": "the interval between the events overflows the float range",
        "exit_status": 1, "gram": None, "notes": [], "scalars": {}, "tables": [],
        "tolerances": {"tol_alg": 1e-10, "tol_dec": 1e-08}, "verdicts": {},
    }


@pytest.mark.parametrize("v, message", [("2", "|v| = 2.0 >= 1"),
                                        ("nan", "boost velocity must be finite")])
def test_spacetime_order_bad_velocity_reports_no_verdict(v, message, capsys):
    # The boost is refused before the events are classified.
    argv = ["spacetime", "order", "--a", "0,0,0,0", "--b", "1,0,0,0", "--v", v]
    doc = _assert_exit_one(capsys, argv, message)
    assert (doc["verdicts"], doc["scalars"]) == ({}, {})


PRESENT_BAD_INPUT = {
    "tau-star-nan": (["--igus", "0,0,0", "--tau-star", "nan", "--env-timescale", "1"],
                     "timescales must be positive and finite"),
    "v-max-nan": (["--igus", "0,0,0", "--tau-star", "1", "--env-timescale", "10", "--v-max", "nan"],
                  "v_max and ratio_factor must be finite"),
    # Each of these used to exit 0, failing a contingency that a single IGUS passes vacuously.
    "v-max-negative": (["--igus", "0,0,0", "--tau-star", "0.1", "--env-timescale", "10",
                        "--v-max", "-1"], "v_max and ratio_factor must not be negative"),
    "ratio-factor-negative": (["--igus", "0,0,0", "--tau-star", "0.1", "--env-timescale", "10",
                               "--ratio-factor", "-1"], "v_max and ratio_factor must not be negative"),
    "timescales-inf": (["--igus", "0,0,0", "--tau-star", "inf", "--env-timescale", "inf"],
                       "timescales must be positive and finite"),
    "velocity-nan": (["--igus", "0,0,0:nan,0,0", "--igus", "0,0,0", "--tau-star", "1",
                      "--env-timescale", "100"], "IGUS position and velocity must be finite"),
    "distance-overflow": (["--igus=1e308,0,0", "--igus=-1e308,0,0", "--tau-star", "1",
                           "--env-timescale", "100"], "distance between IGUS 0 and 1 overflows"),
}


@pytest.mark.parametrize("case", sorted(PRESENT_BAD_INPUT))
def test_spacetime_present_nonfinite_exit_one(case, capsys):
    # Each of these used to exit 0 with NaN or Infinity in the JSON, or pass contingency 1.
    args, message = PRESENT_BAD_INPUT[case]
    _assert_exit_one(capsys, ["spacetime", "present", *args], message)


@pytest.mark.parametrize("flag", ["--v-max", "--ratio-factor"])
def test_spacetime_present_negative_threshold_one_line(flag, capsys):
    argv = ["spacetime", "present", "--igus", "0,0,0", "--tau-star", "0.1", "--env-timescale", "10"]
    assert main([*argv, flag, "-1"]) == 1
    err = capsys.readouterr().err
    assert err == "dhq: error: v_max and ratio_factor must not be negative\n"
    assert main([*argv, flag, "0"]) == 0  # zero stays allowed


SPACETIME_BAD_NUMBERS = {
    # A NaN velocity component passed the |v| < 1 check and was blamed on the events.
    "v-nan": (["order", "--a", "0,0,0,0", "--b", "0,1,0,0", "--v", "nan"],
              "boost velocity must be finite"),
    "v-component-nan": (["order", "--a", "0,0,0,0", "--b", "0,1,0,0", "--v", "0.5,nan,0"],
                        "boost velocity must be finite"),
    # Unparseable numbers printed only "could not convert string to float".
    "a-text": (["classify", "--a", "x,0,0,0", "--b", "0,0,0,0"], "argument --a: "),
    "b-text": (["order", "--a", "0,0,0,0", "--b", "0,y,0,0", "--v", "0.5"], "argument --b: "),
    "v-text": (["order", "--a", "0,0,0,0", "--b", "0,1,0,0", "--v", "fast"], "argument --v: "),
    "igus-text": (["present", "--igus", "a,b,c", "--tau-star", "1", "--env-timescale", "10"],
                  "argument --igus: "),
    "igus-velocity-text": (["present", "--igus", "0,0,0:slow", "--tau-star", "1",
                            "--env-timescale", "10"], "argument --igus: "),
}


@pytest.mark.parametrize("case", sorted(SPACETIME_BAD_NUMBERS))
def test_spacetime_bad_number_names_its_flag(case, capsys):
    args, message = SPACETIME_BAD_NUMBERS[case]
    _assert_exit_one(capsys, ["spacetime", *args], message)


def test_input_error_exit_one(capsys, tmp_path):
    code, _ = run_cli(capsys, "check", str(tmp_path / "missing.json"))
    assert code == 1


def test_validation_error_exit_one(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "dhq-scenario/1", "dimension": 2}))
    code, _ = run_cli(capsys, "check", str(bad))
    assert code == 1


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1e-9"])
def test_tol_dec_not_finite_or_negative_exit_one(value, capsys):
    # NaN and inf would be written as the non-JSON tokens NaN and Infinity.
    assert main(["--format", "json", f"--tol-dec={value}", "model", "three-box"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--tol-dec" in captured.err and "Traceback" not in captured.err
    code, out = run_cli(capsys, "--format", "json", "--tol-dec", "0", "model", "three-box")
    assert code == 0
    assert json.loads(out, parse_constant=pytest.fail)["tolerances"]["tol_dec"] == 0.0


def test_json_and_text_carry_same_numbers(capsys, tmp_path):
    p = dump_model(capsys, tmp_path, "three-box", "--realm", "past_A")
    _, text_out = run_cli(capsys, "prob", str(p))
    _, json_out = run_cli(capsys, "--format", "json", "prob", str(p))
    doc = json.loads(json_out)
    rows = dict(next(t["rows"] for t in doc["tables"]))
    for label, value in rows.items():
        assert f"{label}" in text_out
        assert f"{value:.12f}" in text_out


ROUND_TRIP_MODELS = [("three-box", ("--realm", kind)) for kind in THREE_BOX_KINDS] + [
    ("two-slit", ("--bins", "4")),
    ("two-slit", ("--bins", "4", "--environment")),
    ("spin-env", ("--n-env", "3", "--theta", "0.9")),
]


def test_round_trip_reports_identical(capsys, tmp_path):
    # dump -> ingest -> report must equal the model's own report and the
    # report of a re-dump through the scenario module
    for model, params in ROUND_TRIP_MODELS:
        p1 = tmp_path / "m1.json"
        p2 = tmp_path / "m2.json"
        code, _ = run_cli(capsys, "model", model, *params, "--dump", str(p1))
        assert code == 0
        _, own = run_cli(capsys, "--format", "json", "model", model, *params)
        _, rep1 = run_cli(capsys, "--format", "json", "check", str(p1))
        sc = parse_scenario(p1)
        dump_scenario(sc.grid, p2)
        _, rep2 = run_cli(capsys, "--format", "json", "check", str(p2))
        d0, d1, d2 = json.loads(own), json.loads(rep1), json.loads(rep2)
        assert d1["tables"] == d2["tables"]
        assert d1["scalars"] == d2["scalars"]
        assert d1["gram"] == d2["gram"]
        if model == "spin-env":
            # the model reports its state-vector closed form, not a Gram matrix
            (own_rows,), (rows,) = d0["tables"], d1["tables"]
            assert [r[0] for r in own_rows["rows"]] == [r[0] for r in rows["rows"]]
            for (_, p_own), (_, p) in zip(own_rows["rows"], rows["rows"]):
                assert abs(p_own - p) <= 1e-12
            assert abs(d0["scalars"]["numeric_offdiag_normalized"]
                       - d1["scalars"]["max_offdiag_normalized"]) <= 1e-12
        else:
            assert d1["tables"] == d0["tables"]
            assert d1["gram"] == d0["gram"]
            assert d1["verdicts"]["decoherent"] == d0["verdicts"]["decoherent"]
            key = "max_offdiag_normalized"
            assert d1["scalars"][key] == d0["scalars"][key]


def test_reports_deterministic_across_runs(capsys, tmp_path):
    p = dump_model(capsys, tmp_path, "three-box", "--realm", "past_A")
    _, a = run_cli(capsys, "--format", "json", "prob", str(p))
    _, b = run_cli(capsys, "--format", "json", "prob", str(p))
    assert a == b


def test_gram_summarized_above_cap(capsys, tmp_path):
    # 3 slit alternatives x 32 bins = 96 histories > 64: gram omitted
    p = tmp_path / "wide.json"
    code, _ = run_cli(capsys, "model", "two-slit", "--bins", "32", "--dump", str(p))
    assert code == 0
    code, out = run_cli(capsys, "--format", "json", "check", str(p))
    assert code == 0
    doc = json.loads(out)
    assert doc["gram"] is None
    assert any("gram matrix omitted" in n for n in doc["notes"])


def test_predict_command(capsys, tmp_path):
    # data at the early time, one future alternative set: p(A@1 | A@0.5) = 1
    import numpy as np

    from dhq.histories import AlternativeSet, HistoryGrid
    from dhq.linalg import Hamiltonian, StateVector, basis_projector, complement
    from dhq.scenario import dump_scenario

    p_a = basis_projector(3, [0], name="A")
    sets = [
        AlternativeSet(time=0.5, projectors=(p_a, complement(p_a)), label="now"),
        AlternativeSet(time=1.0, projectors=(p_a, complement(p_a)), label="later"),
    ]
    grid = HistoryGrid(
        sets,
        Hamiltonian.zero(3),
        StateVector(np.ones(3, complex) / np.sqrt(3)),
    )
    path = tmp_path / "fut.json"
    dump_scenario(grid, path, data=("A", 0.5))
    code, out = run_cli(capsys, "predict", str(path))
    assert code == 0
    assert "predicted probabilities given A@0.5:\n" in out
    assert "A   1.000000000000" in out
    assert "~A  0.000000000000" in out


def test_compat_undetermined(capsys, tmp_path):
    pa = dump_model(capsys, tmp_path, "three-box", "--realm", "past_A")
    pp = tmp_path / "psi.json"
    run_cli(capsys, "model", "three-box", "--realm", "past_Psi", "--dump", str(pp))
    code, out = run_cli(capsys, "compat", str(pa), str(pp))
    assert code == 0
    assert "verdict compatibility: undetermined" in out
    assert "do not commute" in out


def test_compat_over_budget_refused_before_any_decoherence_pass(monkeypatch, capsys, tmp_path):
    # 17 x 16 basis projectors at d = 256 join into 272 products, (272 + 1) 256^2
    # dense entries, just above linalg.MAX_DENSE_ENTRIES; each file alone is small.
    import numpy as np

    from dhq import cli, realms
    from dhq.histories import AlternativeSet, HistoryGrid
    from dhq.linalg import Hamiltonian, StateVector, basis_projector

    d = 256
    paths = []
    for m in (17, 16):
        alts = tuple(basis_projector(d, b, f"p{k}")
                     for k, b in enumerate(np.array_split(np.arange(d), m)))
        grid = HistoryGrid([AlternativeSet(1.0, alts)], Hamiltonian.zero(d),
                           StateVector(np.full(d, d**-0.5)))
        paths.append(tmp_path / f"g{m}.json")
        dump_scenario(grid, paths[-1])
    calls = []
    for module in (cli, realms):
        monkeypatch.setattr(module, "decoherence_functional", lambda *a, **k: calls.append(a))
    assert main(["compat", *map(str, paths)]) == 1
    err = capsys.readouterr().err
    assert "272 projectors of dimension 256 exceed the limit of 16777216 dense entries" in err
    assert "Traceback" not in err
    assert calls == []


def test_retrodict_without_data_reference(capsys, tmp_path):
    from dhq.models import two_slit
    from dhq.scenario import dump_scenario

    p = tmp_path / "nodata.json"
    dump_scenario(two_slit(2, True).grid, p)
    code, _ = run_cli(capsys, "retrodict", str(p))
    assert code == 1


@pytest.mark.parametrize("flags, message", [
    (["retrodict", "--data", "Nope@2"], "--data: no projector named 'Nope' in set 'present'"),
    (["predict", "--data", "Phi@7"], "--data: no alternative set at time 7.0"),
    (["condition", "--given", "Nope@2", "--target", "A@1"],
     "--given: no projector named 'Nope' in set 'present'"),
    (["condition", "--given", "Phi@2", "--target", "Nope@1"],
     "--target: no projector named 'Nope' in set 'box-A'"),
    (["condition", "--given", "Phi@7", "--target", "A@1"], "--given: no alternative set at time 7.0"),
], ids=["data-name", "data-time", "given-name", "target-name", "given-time"])
def test_unknown_name_or_time_located_at_flag(flags, message, capsys, tmp_path):
    p = dump_model(capsys, tmp_path, "three-box", "--realm", "past_A")
    assert main([flags[0], str(p), *flags[1:]]) == 1
    err = capsys.readouterr().err
    assert err == f"dhq: error: {message}\n"  # no KeyError quotes around the message


@pytest.mark.parametrize("time", ["2_0", "inf", "nan", "+2", " 2"])
@pytest.mark.parametrize("flag", ["--given", "--target", "--data"])
def test_reference_time_must_be_a_json_number(flag, time, capsys, tmp_path):
    # float() took "2_0" as 20.0, and then found no set at that time.
    p = dump_model(capsys, tmp_path, "three-box", "--realm", "past_A")
    both = {"--given": "Phi@2.0", "--target": "A@1.0"}
    refs = {"--data": "Phi@2.0"} if flag == "--data" else both
    refs[flag] = ref = refs[flag].replace("2.0", time).replace("1.0", time)
    command = "retrodict" if flag == "--data" else "condition"
    assert main([command, str(p), *(x for item in refs.items() for x in item)]) == 1
    message = f"dhq: error: {flag}: bad time in data projector reference {ref!r}\n"
    assert capsys.readouterr().err == message


def test_reference_times_that_are_json_numbers_load(capsys, tmp_path):
    from dhq.scenario import parse_data_ref

    p = dump_model(capsys, tmp_path, "three-box", "--realm", "past_A")
    code, out = run_cli(capsys, "condition", str(p), "--given", "Phi@2.0", "--target", "A@1")
    assert code == 0 and "  p(A@1 | Phi@2)  1.000000000000\n" in out
    for ref, time in [("t1b3@7.309699730604683", 7.309699730604683), ("a@b@-0.5e-3", -5e-4),
                      ("A@0", 0.0), ("A@1E+2", 100.0)]:
        assert parse_data_ref(ref, "--data") == (ref.rpartition("@")[0], time)


def test_command_echo_includes_argv(capsys, tmp_path):
    p = dump_model(capsys, tmp_path, "three-box", "--realm", "past_A")
    code, out = run_cli(capsys, "--format", "json", "check", str(p))
    assert code == 0
    assert json.loads(out)["command"] == f"dhq --format json check {p}"


def test_nonfinite_times_exit_one(capsys, tmp_path):
    p = dump_model(capsys, tmp_path, "three-box", "--realm", "past_A")
    doc = json.loads(p.read_text())
    for s in doc["alternative_sets"]:
        s["time"] = float("nan")
    p.write_text(json.dumps(doc))  # writes the non-standard NaN literal
    code, _ = run_cli(capsys, "prob", str(p))
    assert code == 1


def test_duplicate_names_condition_exit_one(capsys, tmp_path):
    p = dump_model(capsys, tmp_path, "three-box", "--realm", "past_A")
    doc = json.loads(p.read_text())
    for proj in doc["alternative_sets"][0]["projectors"]:
        proj["name"] = "A"
    p.write_text(json.dumps(doc))
    code, _ = run_cli(capsys, "condition", str(p), "--given", "A@1.0", "--target", "A@1.0")
    assert code == 1


def test_one_branch_pass_per_command(capsys, tmp_path, monkeypatch):
    from dhq import decoherence, realms

    calls = []
    for mod in (decoherence, realms):
        real = mod.branch_matrix
        monkeypatch.setattr(mod, "branch_matrix", lambda g, real=real: calls.append(g) or real(g))
    box_b = tmp_path / "b.json"
    dump_model(capsys, tmp_path, "three-box", "--realm", "past_B").rename(box_b)
    box = dump_model(capsys, tmp_path, "three-box", "--realm", "past_A")
    slits = dump_model(capsys, tmp_path, "two-slit", "--bins", "4")
    for argv, passes in (
        (["check", box], 1),
        (["prob", box], 1),
        (["condition", box, "--given", "Phi@2.0", "--target", "A@1.0"], 1),
        (["coarse", slits, "--partition", "merge-slits"], 1),
        (["retrodict", box], 1),
        (["predict", box, "--data", "A@1.0"], 1),
        (["model", "two-slit", "--bins", "4"], 1),
        (["compat", box, box_b], 3),
    ):
        calls.clear()
        code, _ = run_cli(capsys, *map(str, argv))
        assert code == 0
        assert len(calls) == passes, argv


@pytest.mark.parametrize("model", ["three-box", "two-slit", "spin-env"])
def test_empty_dump_path_refused(capsys, tmp_path, model):
    # spin-env used to reach the dump with no grid (an AttributeError traceback); the
    # others tried to write the directory '.'.
    expected = ["dhq: error: argument --dump: PATH must not be empty"]
    assert main(["model", model, "--dump", ""]) == 1
    assert capsys.readouterr().err.splitlines() == expected
    env = dict(os.environ, PYTHONPATH=str(Path(dhq.__file__).parent.parent))
    out = subprocess.run([sys.executable, "-m", "dhq", "model", model, "--dump", ""], cwd=tmp_path,
                         env=env, capture_output=True, text=True, timeout=120)
    assert (out.returncode, out.stderr.splitlines()) == (1, expected)
    assert list(tmp_path.iterdir()) == []


def test_startup_generates_no_code():
    # Each dhq command is a new process, so the import and the parser run on every
    # start: they must compile nothing from strings (dataclasses compiled 105 methods
    # for dhq's value classes on every start) and must not load dataclasses.
    code = "\n".join([
        "import sys, numpy",
        "compiled = []",
        "sys.addaudithook(lambda event, args: compiled.append(args[1]) if event == 'compile' else None)",
        "import dhq, dhq.cli",
        "dhq.cli._read_argv(['model', 'two-slit', '--dump'])",
        "dhq.cli.build_parser()",
        "print(compiled.count('<string>'), 'dataclasses' in sys.modules)",
    ])
    env = dict(os.environ, PYTHONPATH=str(Path(dhq.__file__).parent.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.split() == ["0", "False"]


def _broken_partition_doc(kind):
    """A two-slit dump whose second partition, 'other', is broken in one way."""
    sc = two_slit(4, False)
    doc = scenario_to_dict(sc.grid, {"merge-slits": sc.partitions["merge-slits"],
                                     "other": sc.partitions["merge-slits"]})
    classes = doc["partitions"][1]["classes"]
    first = classes[0]["histories"]
    if kind == "unknown":
        first[0] = [9, 9]
    elif kind == "short":
        first[0] = [0]
    elif kind == "huge":  # beyond int64: numpy reads the row as objects
        first[0] = [10**20, 0]
    elif kind == "negative":
        first[0] = [-1, 0]
    elif kind == "missing":
        del first[0]
    elif kind == "repeated":
        classes[1]["histories"].append(first[0])
    else:
        first.clear()
    return doc


BROKEN_PARTITIONS = {
    "unknown": "class 0 contains unknown history (9, 9)",
    "short": "class 0 contains unknown history (0,)",
    "huge": "class 0 contains unknown history (100000000000000000000, 0)",
    "negative": "class 0 contains unknown history (-1, 0)",
    "missing": "partition misses histories, e.g. [(0, 0)]",
    "repeated": "history (0, 0) appears in more than one class",
    "empty": "class 0 is empty",
}


@pytest.mark.parametrize("kind", sorted(BROKEN_PARTITIONS))
def test_broken_partition_refused_at_its_index(kind, capsys, tmp_path):
    # These exited 1 without a location; the index is the partition's place in the file.
    path = tmp_path / "parts.json"
    path.write_text(json.dumps(_broken_partition_doc(kind)))
    assert main(["coarse", str(path), "--partition", "other"]) == 1
    assert capsys.readouterr().err == f"dhq: error: /partitions/1: {BROKEN_PARTITIONS[kind]}\n"
    # Commands that do not use the broken partition behave as before.
    assert main(["check", str(path)]) == 0
    assert main(["coarse", str(path), "--partition", "merge-slits"]) == 0
    assert capsys.readouterr().err == ""


def test_broken_partition_refused_at_its_index_in_a_child(tmp_path):
    path = tmp_path / "parts.json"
    path.write_text(json.dumps(_broken_partition_doc("empty")))
    env = dict(os.environ, PYTHONPATH=str(Path(dhq.__file__).parent.parent))
    out = subprocess.run([sys.executable, "-m", "dhq", "coarse", str(path), "--partition", "other"],
                         env=env, capture_output=True, text=True, timeout=120)
    assert (out.returncode, out.stderr) == (1, "dhq: error: /partitions/1: class 0 is empty\n")
    assert out.stdout.endswith("error: /partitions/1: class 0 is empty\nexit: 1\n")


REFUSED_ARGUMENTS = {
    "event-3-coordinates": (["spacetime", "classify", "--a", "0,0,0", "--b", "1,0,0,0"],
                            "event '0,0,0' needs 4 coordinates t,x,y,z"),
    "velocity-2-components": (["spacetime", "order", "--a", "0,0,0,0", "--b", "0,1,0,0",
                               "--v", "0.5,0"], "velocity '0.5,0' needs 1 or 3 components"),
    "igus-2-components": (["spacetime", "present", "--igus", "0,0", "--tau-star", "0.1",
                           "--env-timescale", "10"], "IGUS position '0,0' needs 3 components"),
}


@pytest.mark.parametrize("case", sorted(REFUSED_ARGUMENTS))
def test_wrong_component_counts_refused(case, capsys):
    argv, message = REFUSED_ARGUMENTS[case]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"dhq: error: {message}\n"


def test_coarse_names_a_partition_the_file_lacks(capsys, tmp_path):
    path = dump_model(capsys, tmp_path, "two-slit", "--bins", "4")
    assert main(["coarse", str(path), "--partition", "nope"]) == 1
    assert capsys.readouterr().err == ("dhq: error: /partitions: no partition named 'nope' in "
                                       "scenario (available: ['merge-slits'])\n")


@pytest.fixture
def branch_passes(monkeypatch):
    """The grids of every branch pass made while the test runs."""
    from dhq import decoherence, realms

    calls = []
    for mod in (decoherence, realms):
        real = mod.branch_matrix
        monkeypatch.setattr(mod, "branch_matrix", lambda g, real=real: calls.append(g) or real(g))
    return calls


@pytest.mark.parametrize("kind", sorted(BROKEN_PARTITIONS))
def test_broken_partition_refused_before_the_fine_pass(kind, capsys, tmp_path, branch_passes):
    # The partition used to be checked only after a full branch pass of the grid.
    path = tmp_path / "parts.json"
    path.write_text(json.dumps(_broken_partition_doc(kind)))
    assert main(["coarse", str(path), "--partition", "other"]) == 1
    assert capsys.readouterr().err == f"dhq: error: /partitions/1: {BROKEN_PARTITIONS[kind]}\n"
    assert branch_passes == []
    assert main(["coarse", str(path), "--partition", "merge-slits"]) == 0
    assert len(branch_passes) == 1


@pytest.fixture
def listed_histories(monkeypatch):
    """The grids of every `enumerate_histories` call, by the names commands look it up by."""
    from dhq import decoherence, histories, realms

    listed = []
    real = histories.enumerate_histories
    for mod in (cli, decoherence, realms):
        monkeypatch.setattr(mod, "enumerate_histories", lambda g: listed.append(g) or real(g))
    return listed


def test_coarse_never_lists_the_histories(capsys, tmp_path, listed_histories):
    # The partition is checked against the grid's shape, and each report row is its history.
    path = tmp_path / "parts.json"
    path.write_text(json.dumps(_broken_partition_doc("missing")))
    assert main(["coarse", str(path), "--partition", "merge-slits"]) == 0
    assert listed_histories == []
    assert main(["coarse", str(path), "--partition", "other"]) == 1
    assert capsys.readouterr().err.endswith(f"{BROKEN_PARTITIONS['missing']}\n")
    assert listed_histories == []


def test_no_command_lists_the_histories(capsys, tmp_path, listed_histories):
    # A pass names each history by its branch row; only `decoherence.probabilities` lists them.
    box_b = tmp_path / "b.json"
    dump_model(capsys, tmp_path, "three-box", "--realm", "past_B").rename(box_b)
    box = dump_model(capsys, tmp_path, "three-box", "--realm", "past_A")
    slits = dump_model(capsys, tmp_path, "two-slit", "--bins", "4")
    for argv in (
        ["check", box],
        ["prob", box],
        ["coarse", slits, "--partition", "merge-slits"],
        ["condition", box, "--given", "Phi@2.0", "--target", "A@1.0"],
        ["compat", box, box_b],
        ["retrodict", box],
        ["predict", box, "--data", "A@1.0"],
        ["model", "three-box", "--realm", "past_A"],
        ["model", "two-slit", "--bins", "4"],
    ):
        code, _ = run_cli(capsys, *map(str, argv))
        assert code == 0, argv
    assert listed_histories == []


@pytest.fixture
def formed_labels(monkeypatch):
    """Every label `history_labels` forms while the test runs, wherever dhq looks it up."""
    from dhq import histories

    real, formed = histories.history_labels, []

    def spy(axes):
        for label in real(axes):
            formed.append(label)
            yield label

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "dhq" and getattr(mod, "history_labels", None) is real:
            monkeypatch.setattr(mod, "history_labels", spy)
    return formed


def test_commands_name_only_the_rows_they_print(capsys, tmp_path, formed_labels):
    # A report holds its rows' name axes: a label is formed once for each table row written,
    # and once for each Gram row (N <= 64), never for the rows of a fine grid it sums or
    # conditions (two-slit 40 bins: 80 histories; the compat realms: 4 each).  `prob` of a
    # set that fails decoherence (exit 2) prints its rows too.
    box_b = tmp_path / "b.json"
    dump_model(capsys, tmp_path, "three-box", "--realm", "past_B").rename(box_b)
    box = dump_model(capsys, tmp_path, "three-box", "--realm", "past_A")
    recorded = tmp_path / "recorded.json"
    dump_model(capsys, tmp_path, "two-slit", "--bins", "40", "--environment").rename(recorded)
    slits = dump_model(capsys, tmp_path, "two-slit", "--bins", "40")
    del formed_labels[:]
    for argv, exit_code in (
        (["check", box], 0),
        (["check", slits], 0),
        (["prob", slits], 2),
        (["coarse", slits, "--partition", "merge-slits"], 0),
        (["condition", box, "--given", "Phi@2.0", "--target", "A@1.0"], 0),
        (["compat", box, box_b], 0),
        (["retrodict", box], 0),
        (["predict", recorded, "--data", "upper@1.0"], 0),
        (["model", "spin-env", "--n-env", "2"], 0),
    ):
        for fmt in ("json", "text"):  # the text report prints the rows the JSON one lists
            code, out = run_cli(capsys, "--format", fmt, *map(str, argv))
            assert code == exit_code, argv
            doc = json.loads(out) if fmt == "json" else doc
            printed = [k for table in doc["tables"] for k, _ in table["rows"]]
            printed += doc["gram"]["labels"] if doc["gram"] else []
            assert sorted(formed_labels) == sorted(printed) and printed, (argv, fmt)
            if fmt == "text":
                assert all(f"  {k}" in out for k in printed)
            del formed_labels[:]


def _deep_doc(n):
    """n sets of two one-character `basis` members at d = 2: a 2.4 KB file at n = 22."""
    members = [{"name": "a", "basis": [0]}, {"name": "b", "basis": [1]}]
    return {"schema": "dhq-scenario/1", "dimension": 2, "initial_state": [[1.0, 0.0], [0.0, 0.0]],
            "alternative_sets": [{"time": float(t), "projectors": members} for t in range(1, n + 1)]}


def test_every_command_refuses_an_over_budget_grid_at_load(capsys, tmp_path, monkeypatch):
    # 2^22 histories fit the old rows-only rule (2^23 entries), and `check` took 8 s and 1.4 GB.
    # The grid's own budget counts each history's row, indices and label when the file loads.
    from dhq import decoherence, histories, realms, report

    calls = []
    for mod in (decoherence, histories, realms):
        monkeypatch.setattr(mod, "branch_matrix", lambda g: calls.append(g) or pytest.fail("pass"))
    for mod in (decoherence, histories, report):
        monkeypatch.setattr(mod, "history_labels",
                            lambda axes: calls.append(axes) or pytest.fail("labels"))
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(_deep_doc(22)))
    message = ("dhq: error: /alternative_sets: 4194304 histories over 22 times in dimension 2 "
               "exceed the limit of 16777216 dense entries\n")
    for argv in (
        ["check", path],
        ["prob", path],
        ["coarse", path, "--partition", "p"],
        ["condition", path, "--given", "a@1", "--target", "b@22"],
        ["retrodict", path, "--data", "a@22"],
        ["predict", path, "--data", "a@1"],
        ["compat", path, path],
    ):
        assert main(list(map(str, argv))) == 1, argv
        assert capsys.readouterr().err == message, argv
    assert calls == []
    # Four sets fewer, the grid fits: 2^18 histories cost 55 * 2^18 <= 2^24 entries.
    path.write_text(json.dumps(_deep_doc(18)))
    assert math.prod(parse_scenario(path).grid.shape) == 2**18


def _box_doc(kind="past_A", **changes):
    sc = three_box(kind)
    return {**scenario_to_dict(sc.grid, None, (sc.data_name, sc.data_time)), **changes}


# (scenario a, scenario b, message): each pair differs in one of refine_join's three ways.
MISMATCHED_PAIRS = {
    "dimension": (_box_doc(), scenario_to_dict(two_slit(2).grid),
                  "grid dimensions differ: 3 vs 2"),
    # Both realms decohere: H + I only adds a phase.
    "hamiltonian": (_box_doc(), _box_doc(hamiltonian=encode_array(np.eye(3))),
                    "grids have different Hamiltonians"),
    # joint_AB fails decoherence, which used to end compat with exit 2 before the mismatch.
    "initial-state": (_box_doc("joint_AB"), scenario_to_dict(two_slit(3).grid),
                      "grids have different initial states"),
}


@pytest.mark.parametrize("case", sorted(MISMATCHED_PAIRS))
def test_mismatched_compat_pair_refused_before_any_pass(case, capsys, tmp_path, branch_passes):
    doc_a, doc_b, message = MISMATCHED_PAIRS[case]
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path, doc in zip(paths, (doc_a, doc_b)):
        path.write_text(json.dumps(doc))
    assert main(["compat", *map(str, paths)]) == 1
    assert capsys.readouterr().err == f"dhq: error: {message}\n"
    assert branch_passes == []
    # refine_join refuses the same grids with the same message.
    with pytest.raises((DimensionMismatch, ValueError)) as err:
        refine_join(*(parse_scenario(p).grid for p in paths))
    assert str(err.value) == message


@pytest.mark.parametrize("argv, verdict", [
    (["classify", "--a=-1,0,0,0", "--b", "0,0,0,0"], "classification: timelike_future"),
    (["order", "--a", "0,0,0,0", "--b", "0,1,0,0", "--v=-0.5,0,0"],
     "b_relative_to_surface: future_of_S"),
    (["present", "--igus", "0,0,0", "--igus=-4200,0,0", "--tau-star", "0.1",
      "--env-timescale", "10"], "contingency2_light_time_small: False"),
])
def test_coordinates_starting_with_minus_attach_with_equals(argv, verdict, capsys):
    # Detached, such a list reads as an option: argparse refuses the flag with no argument.
    flag = next(a for a in argv if "=" in a).split("=")[0]
    assert main(["spacetime", *(x for a in argv for x in a.split("=", 1))]) == 1
    assert f"argument {flag}: expected one argument" in capsys.readouterr().err
    code, out = run_cli(capsys, "spacetime", *argv)
    assert code == 0
    assert f"verdict {verdict}\n" in out


def run_child(*argv, cwd=None, stdout=subprocess.PIPE):
    """`python -m dhq ARGV` as its own process: (exit code, stdout, stderr).

    Its stdout is buffered, as it is by default, so the flush before os._exit matters.
    """
    env = dict(os.environ, PYTHONPATH=str(Path(dhq.__file__).parent.parent))
    env.pop("PYTHONUNBUFFERED", None)
    out = subprocess.run([sys.executable, "-m", "dhq", *argv], cwd=cwd, env=env, stdout=stdout,
                         stderr=subprocess.PIPE, text=True, timeout=120)
    return out.returncode, out.stdout, out.stderr


def big_grid_file(tmp_path):
    from random_grids import random_decoherent_grid

    path = tmp_path / "big.json"
    dump_scenario(random_decoherent_grid(np.random.default_rng(1), 16, 4), path)
    return path


def box_file(tmp_path, realm):
    sc = three_box(realm)
    path = tmp_path / f"{realm}.json"
    dump_scenario(sc.grid, path, sc.partitions, (sc.data_name, sc.data_time) if sc.has_data else None)
    return path


def test_child_report_larger_than_a_pipe_buffer_is_complete(capsys, tmp_path):
    # The process ends by os._exit, so the report must be flushed whole before it does.
    argv = ["--format", "json", "check", str(big_grid_file(tmp_path))]
    code, out = run_cli(capsys, *argv)
    assert len(out) > 4 * 65536
    assert run_child(*argv) == (code, out, "")


@pytest.mark.parametrize("argv, status", [
    (["retrodict", "{box}"], 0),
    (["--format", "json", "check", "{missing}"], 1),
    (["prob", "{joint}"], 2),
    (["--tol-dec", "-1", "check", "{box}"], 1),
])
def test_child_exit_code_stdout_and_stderr_as_in_process(argv, status, capsys, tmp_path):
    files = {"box": box_file(tmp_path, "past_A"), "joint": box_file(tmp_path, "joint_AB"),
             "missing": tmp_path / "missing.json"}
    argv = [a.format(**files) for a in argv]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == status
    # Exit 2 reports its error in the report; only exit 1 writes an error line.
    errors = [line for line in captured.err.splitlines() if line.startswith("dhq: error: ")]
    assert len(errors) == (status == 1)
    assert run_child(*argv) == (status, captured.out, captured.err)


@pytest.mark.parametrize("model", [["three-box", "--realm", "joint_AB"], ["two-slit"],
                                   ["spin-env", "--n-env", "6"]])  # 0.3 MB: over a pipe buffer
def test_child_dumps_complete(model, capsys, tmp_path):
    # The file is closed, and stdout flushed whole, before the process ends by os._exit.
    assert main(["model", *model, "--dump", str(tmp_path / "in.json")]) == 0
    capsys.readouterr()
    text = (tmp_path / "in.json").read_text()
    assert run_child("model", *model, "--dump", "child.json", cwd=tmp_path)[::2] == (0, "")
    assert (tmp_path / "child.json").read_text() == text
    assert run_child("model", *model, "--dump", "-") == (0, text, "")


@pytest.mark.parametrize("size", ["small", "big"])
def test_closed_stdout_gives_one_error_line(size, tmp_path):
    # Small, the report waits in the buffer and the flush fails; big, the write does.
    path = box_file(tmp_path, "past_A") if size == "small" else big_grid_file(tmp_path)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        code, _, err = run_child("--format", "json", "check", str(path), stdout=write_end)
    finally:
        os.close(write_end)
    assert (code, err) == (1, "dhq: error: cannot write the report to stdout: "
                              "[Errno 32] Broken pipe\n")


def test_import_leaves_the_collector_on_and_registers_nothing():
    # Only the `dhq` process gives up the collector and the interpreter's teardown.
    code = "\n".join([
        "import atexit, gc, numpy",
        "before = atexit._ncallbacks()",
        "import dhq, dhq.cli",
        "print(gc.isenabled(), atexit._ncallbacks() - before)",
    ])
    env = dict(os.environ, PYTHONPATH=str(Path(dhq.__file__).parent.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.split() == ["True", "0"]


def _child_imports(*argv, cwd):
    """(exit code, the modules imported) of `python -X importtime -m dhq ARGV`."""
    env = dict(os.environ, PYTHONPATH=str(Path(dhq.__file__).parent.parent))
    out = subprocess.run([sys.executable, "-X", "importtime", "-m", "dhq", *argv], cwd=cwd,
                         env=env, capture_output=True, text=True, timeout=120)
    return out.returncode, {line.rsplit("|", 1)[1].strip() for line in out.stderr.splitlines()
                            if line.startswith("import time:")}


@pytest.mark.parametrize("argv", [
    ["check", "box.json"], ["prob", "box.json"], ["coarse", "slit.json", "--partition", "merge-slits"],
    ["compat", "box.json", "box.json"], ["retrodict", "box.json"],
    ["predict", "box.json", "--data", "A@1.0"],
    ["condition", "box.json", "--given", "Phi@2.0", "--target", "A@1.0"],
    ["model", "two-slit", "--dump", "out.json"], ["model", "spin-env", "--n-env", "2", "--dump"],
], ids=lambda argv: argv[0] if argv[0] != "model" else f"model-{argv[1]}")
def test_commands_start_without_argparse(argv, capsys, tmp_path):
    # The reader answers these argvs, so argparse, and the gettext and locale it loads for its
    # messages, are never imported; `copy` is imported only by a join.
    box_file(tmp_path, "past_A").rename(tmp_path / "box.json")
    assert main(["model", "two-slit", "--bins", "4", "--dump", str(tmp_path / "slit.json")]) == 0
    capsys.readouterr()
    code, modules = _child_imports(*argv, cwd=tmp_path)
    assert code == 0 and "dhq.cli" in modules
    assert modules & {"argparse", "gettext", "locale"} == set()
    assert ("copy" in modules) == (argv[0] == "compat")


@pytest.mark.parametrize("argv, code, start", [
    (["--help"], 0, "usage: dhq [-h] [--tol-dec TOL_DEC] [--format {text,json}]\n"),
    (["check"], 1, "usage: dhq check [-h] scenario\ndhq check: error: the following arguments "
                   "are required: scenario\n"),
])
def test_help_and_usage_errors_still_print_argparse_text(argv, code, start):
    # What the reader declines goes to argparse, which prints its help or its usage error.
    child = run_child(*argv)
    text = child[1] if code == 0 else child[2]
    assert child[0] == code and text.startswith(start)
    assert text == _parse_outcome(_full_parse, argv)[1 if code == 0 else 2]
    assert "argparse" in _child_imports(*argv, cwd=None)[1]


PARSER_CASES = [
    [], ["--help"], ["-h"], ["--he"],
    *([name, "--help"] for name in cli.COMMANDS),
    *(["model", m, "--help"] for m in ("three-box", "two-slit", "spin-env")),
    *(["spacetime", s, "--help"] for s in ("classify", "order", "present")),
    ["model"], ["spacetime"], ["frob"], ["frob", "check"], ["check", "-h", "f.json"],
    ["check"], ["prob", "a.json", "b.json"], ["condition", "f.json", "--given", "A@1"],
    ["coarse", "f.json"], ["compat", "a.json"], ["check", "f.json", "--format", "json"],
    ["spacetime", "present", "--igus", "0,0,0", "--tau-star", "1"],
    ["spacetime", "classify", "--a", "0,0,0,0"], ["model", "two-slit", "--bins", "x"],
    ["--format", "xml", "check", "f.json"], ["model", "three-box", "--realm", "nope"],
    ["--form", "json", "check", "f.json"], ["--tol=1e-8", "check", "f.json"],
    ["--tol-dec", "nan", "check", "f.json"], ["--tol-dec=inf", "model", "two-slit"],
    ["--tol-dec", "-1", "prob", "f.json"], ["--tol-dec", "nan"], ["--tol-dec", "check", "f.json"],
    ["--format", "json", "--tol-dec", "1e-6", "prob", "f.json"], ["check", "model"],
    ["--format=json", "condition", "f.json", "--given", "A@1", "--target", "B@2"],
    ["retrodict", "f.json"], ["predict", "f.json", "--data", "A@1.0"],
    ["coarse", "f.json", "--partition", "merge-slits"], ["compat", "a.json", "b.json"],
    ["model", "three-box", "--realm", "joint_AB"], ["model", "spin-env", "--n-env", "3", "--dump"],
    ["model", "two-slit", "--environment", "--dump", "out.json"],
    ["spacetime", "order", "--a", "0,0,0,0", "--b", "1,0,0,0", "--v", "0.5"],
    ["spacetime", "classify", "--a=-1,0,0,0", "--b", "1,0,0,0", "--events", "ev.json"],
    ["spacetime", "present", "--igus", "0,0,0", "--igus", "1,0,0:0.1,0,0", "--tau-star", "1",
     "--env-timescale", "2", "--v-max", "0.2"],
]


def _parse_outcome(parse, argv):
    """(Namespace as a dict, or the exit code, or what the reader returns; stdout, stderr) of
    one parse of argv."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            outcome = parse(argv)
            outcome = vars(outcome) if hasattr(outcome, "__dict__") else outcome
        except SystemExit as exit_:
            outcome = exit_.code
    return outcome, out.getvalue(), err.getvalue()


def _full_parse(argv):
    """`cli._parse_argv` with the reader declining everything: the full parser answers."""
    read_argv = cli._read_argv
    cli._read_argv = lambda argv: None
    try:
        return cli._parse_argv(argv)
    finally:
        cli._read_argv = read_argv


def _check_reader(argv):
    """The reader returns the full parser's Namespace or declines, silently, and the parse of
    argv is the full parser's: help, usage lines, errors and the Namespace."""
    expected = _parse_outcome(_full_parse, argv)
    assert _parse_outcome(cli._parse_argv, argv) == expected
    read = _parse_outcome(cli._read_argv, argv)
    assert read[1:] == ("", "")
    if read[0] is not None:  # the Namespace, with the `--tol-dec` check still to pass
        full = vars(cli.build_parser().parse_args(argv))
        assert repr(sorted(full.items())) == repr(sorted(read[0].items()))  # nan == nan here
    return read[0] is not None


@pytest.mark.parametrize("argv", PARSER_CASES, ids=" ".join)
def test_parse_matches_the_full_parser(argv):
    _check_reader(argv)


def test_reader_reads_every_parse_without_abbreviations_or_equals_forms():
    # These take the fast path: none of them builds the full parser.
    read = 0
    for argv in PARSER_CASES + [argv for argv, _ in REFUSED_ARGUMENTS.values()]:
        full = _parse_outcome(_full_parse, argv)[0]
        if isinstance(full, dict) and not any("=" in a or a == "--form" for a in argv):
            assert cli._read_argv(argv) == full
            read += 1
    assert read == 14


# Words an argv is drawn from: values, junk and words that read as options or commands.
_WORDS = ["f.json", "-", "", "x", "3", "-1", "0.5", "nan", "inf", "1e-9", "json", "text", "past_A",
          "joint_AB", "0,0,0,0", "-1,0,0,0", "1,0,0:0.1,0,0", "A@1", "check", "model", "two-slit",
          "--", "-h", "--help", "-x", "--nope"]


def _good_value(kw):
    """A value the option takes."""
    return kw.get("choices", {int: ["3"], float: ["0.5", "1e-9"]}.get(kw.get("type"), ["f.json"]))


@st.composite
def argvs(draw):
    """An argv over the nine commands: options in any order, `=` forms, abbreviations,
    repeats, `--`, values that start with `-`, missing and extra words."""
    def option(flag, kw):
        good = draw(st.sampled_from([True] * 3 + [False]))
        value = draw(st.sampled_from(_good_value(kw) if good else _WORDS))
        if good:  # a flag alone, or the flag and a value it takes
            return [flag] if kw.get("action") == "store_true" else [flag, value]
        form = draw(st.sampled_from(["alone", "equals", "abbreviated", "pair"]))
        if form == "abbreviated" and len(flag) > 3:
            flag = flag[:draw(st.integers(3, len(flag) - 1))]
        return [flag] if form == "alone" else [f"{flag}={value}"] if form == "equals" else [
            flag, value]

    def words(arguments):
        """One parser's words: most options, about as many positionals as it has, and junk."""
        positionals = [a for a in arguments if isinstance(a, str)]
        options = [a for a in arguments if not isinstance(a, str)]
        items = [option(*a) for a in options
                 if draw(st.sampled_from([True] * (4 if a[1].get("required") else 1) + [False]))]
        items += [option(*draw(st.sampled_from(options))) for _ in range(
            draw(st.sampled_from([0] * 4 + [1]))) if options]  # a repeat
        n = max(0, len(positionals) + draw(st.sampled_from([0] * 6 + [-1, 1])))
        items += [[draw(st.sampled_from(_WORDS[:4] + _WORDS[18:20]))] for _ in range(n)]
        items += [[draw(st.sampled_from(_WORDS))] for _ in range(draw(st.sampled_from([0] * 5
                                                                                 + [1])))]
        return [w for item in draw(st.permutations(items)) for w in item]

    command = draw(st.sampled_from(list(cli.COMMANDS)))
    arguments, sub = cli.COMMANDS[command][1], []
    if arguments is None:
        subcommands = cli._subcommands(command)[1]
        sub = [draw(st.sampled_from(sorted(subcommands)))]
        arguments = subcommands[sub[0]]
    return words(cli.OPTIONS) + [command] + sub + words(arguments)


@settings(max_examples=400, deadline=None)
@given(argvs())
def test_reader_matches_the_full_parser_on_drawn_argvs(argv):
    event("read" if _check_reader(argv) else "declined")


# Options written `--opt=--`, which argparse stores as [] (an appended one as [[]]): each
# of these raised in its handler, rendered text, or named the value `[]`.
EQUALS_DASHES = [
    ["--tol-dec=--", "model", "three-box"], ["model", "two-slit", "--bins=--"],
    ["model", "spin-env", "--n-env=--"], ["model", "spin-env", "--theta=--"],
    ["spacetime", "present", "--igus=--", "--tau-star", "1", "--env-timescale", "1"],
    ["--format=--", "model", "three-box"], ["model", "three-box", "--realm=--"],
    ["model", "three-box", "--dump=--"],
]


@pytest.mark.parametrize("argv", EQUALS_DASHES, ids=" ".join)
def test_an_option_written_with_equals_dashes_is_refused(argv):
    flag = next(a for a in argv if a.endswith("=--"))[:-3]
    code, out, err = _parse_outcome(main, argv)
    assert (code, out) == (1, "")
    assert err.startswith("usage: dhq ")
    assert err.endswith(f"dhq: error: argument {flag}: expected one argument\n")


def _dashed(argv):
    """argv with the value of each `=` form written `--`."""
    return [w.partition("=")[0] + "=--" if w[:2] == "--" and "=" in w else w for w in argv]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.one_of(argvs(), argvs().map(_dashed)))
def test_every_drawn_argv_ends_in_exit_zero_one_or_two(tmp_path_factory, argv):
    # Each command runs in-process in a directory of its own, on a three-box dump named as
    # the drawn scenario files are: a `--dump` writes only there, or to stdout.
    cwd = tmp_path_factory.getbasetemp() / "drawn-argvs"
    cwd.mkdir(exist_ok=True)
    box = three_box("past_A")
    (cwd / "f.json").write_text(dump_scenario(box.grid, None, box.partitions,
                                              (box.data_name, box.data_time)))
    home = os.getcwd()
    out, err = io.StringIO(), io.StringIO()
    try:
        os.chdir(cwd)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(home)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
    event(f"exit {code}")
