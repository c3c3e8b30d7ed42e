import contextlib
import copy
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import dhq
from dhq.cli import _load_named_events, main
from dhq.errors import ParseError
from dhq.models import THREE_BOX_KINDS
from dhq.scenario import dump_scenario, parse_scenario


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
        StateVector(np.ones(3, complex) / np.sqrt(3), normalized=True),
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
                           StateVector(np.full(d, d**-0.5), normalized=True))
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
        "dhq.cli.build_parser()",
        "print(compiled.count('<string>'), 'dataclasses' in sys.modules)",
    ])
    env = dict(os.environ, PYTHONPATH=str(Path(dhq.__file__).parent.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.split() == ["0", "False"]
