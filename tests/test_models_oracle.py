"""The built-in models against the constructions they replaced.

`SpinEnvironmentScenario` forms its four branch rows from the closed-form
records, and `three_box` builds its sets from one table.  The functions below
are the earlier constructions, kept verbatim as oracles: a tensordot sweep
that scatters each system branch through every environment axis, and the
hand-written three-box branches.  Both must agree bit for bit.
"""

import math

import numpy as np
import pytest

from dhq.decoherence import branch_probabilities, normalized_offdiag
from dhq.histories import AlternativeSet, HistoryGrid
from dhq.linalg import Hamiltonian, StateVector, complement, projector_from_span
from dhq.models import THREE_BOX_KINDS, spin_environment, three_box
from dhq.scenario import Scenario


def _state_vector_branches(self) -> np.ndarray:
    n = self.n_env
    rot = self._record_rotation()
    shape = (2,) * (n + 1)
    psi = np.zeros(shape, dtype=np.complex128)
    idx0 = (0,) + (0,) * n
    idx1 = (1,) + (0,) * n
    psi[idx0] = 1 / math.sqrt(2)
    psi[idx1] = 1 / math.sqrt(2)

    def scatter(state):
        # conditionally rotate every environment axis where system = 1
        out = state.copy()
        sub = out[1]
        for axis in range(n):
            sub = np.moveaxis(np.tensordot(rot, sub, axes=(1, axis)), 0, axis)
        out[1] = sub
        return out

    def project_sys(state, sign):
        # |+-><+-| on the system axis
        plus = (state[0] + sign * state[1]) / 2.0
        out = np.empty_like(state)
        out[0] = plus
        out[1] = sign * plus
        return out

    branches = []
    for s in (0, 1):
        sel = np.zeros_like(psi)
        sel[s] = psi[s]
        evolved = scatter(sel)
        for sign in (+1, -1):
            branches.append(project_sys(evolved, sign).reshape(-1))
    return np.stack(branches)


def _three_box_vectors():
    psi = np.array([1, 1, 1], dtype=np.complex128) / math.sqrt(3)
    phi = np.array([1, 1, -1], dtype=np.complex128) / math.sqrt(3)
    return psi, phi


def _three_box(kind: str) -> Scenario:
    """One of the three-box past realms, or the joint non-decoherent set."""
    if kind not in THREE_BOX_KINDS:
        raise ValueError(f"unknown three-box kind {kind!r}, expected one of {THREE_BOX_KINDS}")
    psi, phi = _three_box_vectors()
    p_a = projector_from_span([np.array([1, 0, 0], complex)], name="A")
    p_b = projector_from_span([np.array([0, 1, 0], complex)], name="B")
    p_phi = projector_from_span([phi], name="Phi")
    p_psi = projector_from_span([psi], name="Psi")
    phi_set = AlternativeSet(time=0.0, projectors=(p_phi, complement(p_phi)), label="present")

    def at(t, s):
        return AlternativeSet(time=t, projectors=s.projectors, label=s.label)

    if kind == "past_A":
        past = AlternativeSet(time=1.0, projectors=(p_a, complement(p_a)), label="box-A")
        sets = [past, at(2.0, phi_set)]
        data_time = 2.0
    elif kind == "past_B":
        past = AlternativeSet(time=1.0, projectors=(p_b, complement(p_b)), label="box-B")
        sets = [past, at(2.0, phi_set)]
        data_time = 2.0
    elif kind == "past_Psi":
        past = AlternativeSet(time=1.0, projectors=(p_psi, complement(p_psi)), label="initial-state")
        sets = [past, at(2.0, phi_set)]
        data_time = 2.0
    else:  # joint_AB: chain P_Phi P_A P_B, rightmost earliest
        set_b = AlternativeSet(time=1.0, projectors=(p_b, complement(p_b)), label="box-B")
        set_a = AlternativeSet(time=2.0, projectors=(p_a, complement(p_a)), label="box-A")
        sets = [set_b, set_a, at(3.0, phi_set)]
        data_time = 3.0
    grid = HistoryGrid(
        sets, Hamiltonian.zero(3), StateVector(psi)
    )
    return Scenario(grid, data_name="Phi", data_time=data_time)


THETAS = (0.0, 0.3, 1.0, math.pi / 2, 2.5, math.pi)


@pytest.mark.parametrize("n", range(1, 21))
def test_spin_environment_rows_match_tensordot_sweep(n):
    for theta in THETAS:
        sc = spin_environment(n, theta)
        rows = sc._state_vector_branches()
        expected = _state_vector_branches(sc)
        assert rows.dtype == expected.dtype and np.array_equal(rows, expected), theta
        probabilities = branch_probabilities(expected)
        assert np.array_equal(sc.probabilities, probabilities), theta
        assert sc.numeric_offdiag == normalized_offdiag(expected, probabilities), theta


@pytest.mark.parametrize("kind", THREE_BOX_KINDS)
def test_three_box_matches_hand_built_sets(kind):
    sc, expected = three_box(kind), _three_box(kind)
    assert (sc.data_name, sc.data_time) == (expected.data_name, expected.data_time)
    assert len(sc.grid.sets) == len(expected.grid.sets)
    for got, want in zip(sc.grid.sets, expected.grid.sets):
        assert (got.time, got.label) == (want.time, want.label)
        assert [p.name for p in got.projectors] == [p.name for p in want.projectors]
        for p, q in zip(got.projectors, want.projectors):
            assert np.array_equal(p.matrix, q.matrix)
    assert np.array_equal(sc.grid.initial_state.amplitudes, expected.grid.initial_state.amplitudes)
    assert sc.grid.hamiltonian.is_zero and expected.grid.hamiltonian.is_zero
