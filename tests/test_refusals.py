"""Refusals of the value classes and the calculators, each with its exception and message.

One case per refusal that no other test reaches, run in-process.
"""

import json

import numpy as np
import pytest

from dhq.cli import main
from dhq.decoherence import decoherence_functional
from dhq.errors import (
    DegenerateSpan, DimensionMismatch, InvalidPartition, NotDecoherent, NotHermitian,
    SuperluminalBoost,
)
from dhq.histories import AlternativeSet, HistoryGrid, class_operator
from dhq.linalg import Hamiltonian, Projector, StateVector, basis_projector, projector_from_span
from dhq.models import three_box
from dhq.realms import Partition, Realm
from dhq.spacetime import Boost, Event, Igus, IgusGroup, relative_speed, simultaneity_boost

UP, DOWN = basis_projector(2, [0], name="up"), basis_projector(2, [1], name="down")
Z = AlternativeSet(1.0, (UP, DOWN), label="z")
PSI = StateVector([1.0, 0.0])
W = AlternativeSet(2.0, (basis_projector(3, [0, 1]), basis_projector(3, [2])), label="w")
# Trace 5e-10, off an integer by more than TOL_ALG, while its entries and those of
# P^2 - P stay near 5e-12, inside it.
SPREAD = np.full((100, 100), 5e-12, dtype=complex)


CASES = {
    "set-no-projectors": (lambda: AlternativeSet(1.0, (), label="x"),
                          ValueError, "alternative set 'x': no projectors"),
    "set-mixed-dimensions": (lambda: AlternativeSet(1.0, (UP, basis_projector(3, [0]))),
                             DimensionMismatch, "alternative set '': mixed dimensions"),
    "set-provenance-length": (lambda: AlternativeSet(1.0, (UP, DOWN), "z", ((0, None),)),
                              ValueError, "alternative set 'z': provenance length mismatch"),
    "grid-no-sets": (lambda: HistoryGrid([], Hamiltonian.zero(2), PSI),
                     ValueError, "grid needs at least one alternative set"),
    "grid-mixed-set-dimensions": (lambda: HistoryGrid([Z, W], Hamiltonian.zero(2), PSI),
                                  DimensionMismatch, "alternative sets have mixed dimensions"),
    "grid-hamiltonian-dimension": (lambda: HistoryGrid([Z], Hamiltonian.zero(3), PSI),
                                   DimensionMismatch, "Hamiltonian dim 3 != grid dim 2"),
    "grid-state-dimension": (
        lambda: HistoryGrid([Z], Hamiltonian.zero(2), StateVector([1.0, 0.0, 0.0])),
        DimensionMismatch, "initial state dim 3 != grid dim 2"),
    "class-operator-unknown-history": (
        lambda: class_operator(HistoryGrid([Z], Hamiltonian.zero(2), PSI), (2,)),
        ValueError, "history (2,) is not one of the (2,) grid's histories"),
    "empty-vector": (lambda: StateVector([]), DimensionMismatch, "empty vector"),
    "projector-not-square": (lambda: Projector(np.zeros((2, 3))),
                             DimensionMismatch, "projector matrix must be square, got (2, 3)"),
    "projector-trace-not-integer": (
        lambda: Projector(SPREAD, name="s"), ValueError,
        f"projector 's': trace {float(np.trace(SPREAD).real)!r} is not near an integer"),
    "hamiltonian-not-square": (lambda: Hamiltonian(np.zeros((2, 3))),
                               DimensionMismatch, "Hamiltonian must be square, got (2, 3)"),
    "hamiltonian-not-hermitian": (lambda: Hamiltonian([[0.0, 1.0], [-1.0, 0.0]]),
                                  NotHermitian, "||H - H^dag|| = 2.000e+00"),
    "empty-span": (lambda: projector_from_span([]), DegenerateSpan, "empty span"),
    "partition-label-count": (lambda: Partition([[(0,)]], ("a", "b")),
                              InvalidPartition, "one label per class required"),
    "boost-two-components": (lambda: Boost((0.1, 0.2)),
                             ValueError, "boost velocity must have 3 components"),
    "simultaneity-not-spacelike": (lambda: simultaneity_boost(Event(0, 0), Event(2, 1)),
                                   ValueError, "events are not spacelike separated"),
    "relative-speed-at-c": (lambda: relative_speed((1.0, 0.0, 0.0), (1.0, 0.0, 0.0)),
                            SuperluminalBoost, "relative speed undefined at or above c"),
    "igus-at-c": (lambda: Igus((0, 0, 0), (0.6, 0.8, 0.0)),
                  SuperluminalBoost, "IGUS velocity must satisfy |v| < 1"),
    "igus-group-empty": (lambda: IgusGroup((), 1.0, 10.0),
                         ValueError, "IGUS group must be nonempty"),
}


@pytest.mark.parametrize("make, error, message", CASES.values(), ids=CASES)
def test_refused_with_its_message(make, error, message):
    with pytest.raises(error) as err:
        make()
    assert type(err.value) is error and str(err.value) == message


def test_realm_refuses_a_set_that_fails_decoherence():
    grid = three_box("joint_AB").grid
    report = decoherence_functional(grid)
    with pytest.raises(NotDecoherent) as err:
        Realm(grid, report)
    assert str(err.value) == "a realm must decohere at its construction tolerance"
    assert err.value.report is report


def test_retrodict_on_a_set_that_fails_decoherence_reports_it(tmp_path, capsys):
    # cli.main's NotDecoherent branch: exit 2, the error, and the failing sub-grid's report.
    path = tmp_path / "joint.json"
    assert main(["model", "three-box", "--realm", "joint_AB", "--dump", str(path)]) == 0
    capsys.readouterr()
    assert main(["--format", "json", "retrodict", str(path)]) == 2
    out, err = capsys.readouterr()
    doc = json.loads(out)
    assert err == ""
    assert doc["exit_status"] == 2
    assert doc["error"] == ("the set of the data projector together with the conditioned "
                            "alternatives fails decoherence (1.000e+00 > 1.000e-08)")
    assert doc["verdicts"] == {"decoherent": False}
    assert doc["scalars"] == {"max_offdiag_normalized": pytest.approx(1.0, abs=1e-12)}
    [table] = doc["tables"]
    assert table["title"] == "probabilities" and len(table["rows"]) == 8
    assert [label for label, _ in table["rows"]][:3] == ["Phi,A,B", "~Phi,A,B", "Phi,~A,B"]
    assert sum(p for _, p in table["rows"]) == pytest.approx(1.0, abs=1e-12)
    assert len(doc["gram"]["labels"]) == 8
