import numpy as np
import pytest

from dhq import decoherence
from dhq.decoherence import check_sum_rules, decoherence_functional, probabilities
from dhq.errors import GridTooLarge, InvalidPartition, NotDecoherent
from dhq.histories import AlternativeSet, HistoryGrid, enumerate_histories
from dhq.linalg import Hamiltonian, StateVector, basis_projector
from dhq.models import three_box, two_slit
from dhq.random_grids import random_decoherent_grid, random_partition
from dhq.realms import Partition


def test_three_box_realm_decoheres_exactly():
    rep = decoherence_functional(three_box("past_A").grid)
    assert rep.decoherent
    assert rep.max_offdiag_normalized <= 1e-12


def test_three_box_joint_overlap_one_ninth():
    g = three_box("joint_AB").grid
    rep = decoherence_functional(g)
    assert not rep.decoherent
    hs = rep.histories
    # (B at t1, ~A at t2, Phi at t3) vs (~B, A, Phi): both branches are |Phi>/3
    i = hs.index((0, 1, 0))
    j = hs.index((1, 0, 0))
    assert rep.gram[i, j] == pytest.approx(1 / 9, abs=1e-12)
    assert rep.probabilities[i] == pytest.approx(1 / 9, abs=1e-12)
    assert rep.probabilities[j] == pytest.approx(1 / 9, abs=1e-12)
    assert abs(rep.max_offdiag_normalized - 1.0) < 1e-10


def test_three_box_psi_realm_trivially_decoherent():
    rep = decoherence_functional(three_box("past_Psi").grid)
    assert rep.decoherent
    probs = dict(zip(rep.labels, rep.probabilities))
    assert probs["Phi,Psi"] == pytest.approx(1 / 9, abs=1e-12)
    assert probs["~Phi,Psi"] == pytest.approx(8 / 9, abs=1e-12)
    assert probs["Phi,~Psi"] == pytest.approx(0, abs=1e-12)


def test_gram_sums_to_one_even_without_decoherence():
    for kind in ("past_A", "joint_AB"):
        rep = decoherence_functional(three_box(kind).grid)
        assert complex(rep.gram.sum()) == pytest.approx(1.0, abs=1e-12)


def test_gram_positive_semidefinite():
    rng = np.random.default_rng(2)
    for _ in range(10):
        g = random_decoherent_grid(rng, dim=int(rng.integers(2, 7)), n_times=2)
        rep = decoherence_functional(g)
        assert np.linalg.eigvalsh(rep.gram).min() >= -1e-10
    rep = decoherence_functional(three_box("joint_AB").grid)
    assert np.linalg.eigvalsh(rep.gram).min() >= -1e-10


def test_probabilities_three_box():
    probs = dict(probabilities(three_box("past_A").grid))
    assert probs[(0, 0)] == pytest.approx(1 / 9, abs=1e-12)  # (A, Phi)
    assert probs[(1, 0)] == pytest.approx(0, abs=1e-12)  # (~A, Phi)
    assert probs[(0, 1)] == pytest.approx(2 / 9, abs=1e-12)  # (A, ~Phi)
    assert probs[(1, 1)] == pytest.approx(2 / 3, abs=1e-12)  # (~A, ~Phi)
    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)


def test_probabilities_raise_with_report_on_interference():
    with pytest.raises(NotDecoherent) as err:
        probabilities(three_box("joint_AB").grid)
    assert err.value.report.max_offdiag_normalized == pytest.approx(1.0, abs=1e-10)


def test_two_slit_slit_marginal_is_half():
    for env in (False, True):
        g = two_slit(8, env).grid
        rep = decoherence_functional(g)
        by_slit = {}
        for h, p in zip(rep.histories, rep.probabilities):
            by_slit[h[0]] = by_slit.get(h[0], 0.0) + p
        assert by_slit[0] == pytest.approx(0.5, abs=1e-12)
        assert by_slit[1] == pytest.approx(0.5, abs=1e-12)


def test_sum_rules_exact_for_decoherent_three_box():
    g = three_box("past_A").grid
    part = Partition.from_lists([[(0, 0), (1, 0)], [(0, 1), (1, 1)]], ["Phi", "~Phi"])
    assert check_sum_rules(g, part) <= 1e-12


def test_sum_rules_singleton_partition_zero():
    g = three_box("past_A").grid
    part = Partition.singletons(enumerate_histories(g))
    assert check_sum_rules(g, part) == pytest.approx(0.0, abs=1e-15)


def test_sum_rules_violated_by_two_slit_interference():
    sc = two_slit(8, False)
    v = check_sum_rules(sc.grid, sc.slit_merge_partition)
    assert v > 0.05
    # oracle: the violation at bin j is |Re(conj(a_u) a_l)| for the table
    a = sc.amplitudes
    oracle = np.max(np.abs((a[0].conj() * a[1]).real))
    assert v == pytest.approx(oracle, abs=1e-12)


def test_sum_rules_restored_by_environment():
    sc = two_slit(8, True)
    assert check_sum_rules(sc.grid, sc.slit_merge_partition) <= 1e-12


def test_partition_validation():
    g = three_box("past_A").grid
    with pytest.raises(InvalidPartition):
        check_sum_rules(g, Partition.from_lists([[(0, 0)]]))  # not exhaustive
    with pytest.raises(InvalidPartition):
        check_sum_rules(
            g, Partition.from_lists([[(0, 0), (1, 0), (0, 1), (1, 1)], [(0, 0)]])
        )  # overlap


def test_random_decoherent_grids_decohere():
    rng = np.random.default_rng(42)
    for _ in range(25):
        g = random_decoherent_grid(
            rng, dim=int(rng.integers(2, 7)), n_times=int(rng.integers(1, 4))
        )
        rep = decoherence_functional(g)
        assert rep.decoherent, rep.max_offdiag_normalized
        assert rep.probabilities.sum() == pytest.approx(1.0, abs=1e-12)


def test_random_partitions_obey_sum_rules_on_decoherent_grids():
    rng = np.random.default_rng(43)
    for _ in range(15):
        g = random_decoherent_grid(rng, dim=4, n_times=2)
        hs = enumerate_histories(g)
        for _ in range(3):
            part = random_partition(rng, hs)
            n = len(hs)
            assert check_sum_rules(g, part) <= n * n * 1e-8


def test_trivial_grid_probability_one():
    from dhq.histories import AlternativeSet, HistoryGrid
    from dhq.linalg import Hamiltonian, StateVector, basis_projector

    eye = basis_projector(2, [0, 1], name="I")
    g = HistoryGrid(
        [AlternativeSet(time=0.0, projectors=(eye,), label="trivial")],
        Hamiltonian.zero(2),
        StateVector(np.array([0.6, 0.8], complex), normalized=True),
    )
    assert probabilities(g) == [((0,), pytest.approx(1.0, abs=1e-12))]


def test_gram_cap_refuses_before_enumerating(monkeypatch):
    # 3 x 100 alternatives: 10^6 histories, within the enumeration cap but far above
    # GRAM_CAP, so the refusal must not list them first.
    alts = tuple(basis_projector(100, [k], name=f"k{k}") for k in range(100))
    sets = [AlternativeSet(float(t), alts, label=f"t{t}") for t in (1, 2, 3)]
    psi = StateVector(np.full(100, 0.1, dtype=complex), normalized=True)
    grid = HistoryGrid(sets, Hamiltonian.zero(100), psi)
    calls = []
    monkeypatch.setattr(decoherence, "enumerate_histories", lambda *a, **k: calls.append(a))
    message = r"^1000000 histories would need a 1000000\^2 Gram matrix \(cap 4096\)$"
    with pytest.raises(GridTooLarge, match=message):
        decoherence_functional(grid)
    assert calls == []
