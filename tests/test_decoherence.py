import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

import dhq
from dhq import decoherence
from dhq.decoherence import (
    GRAM_TILE,
    OFFDIAG_FLOOR,
    TOL_DEC_DEFAULT,
    DecoherenceReport,
    branch_probabilities,
    check_sum_rules,
    decoherence_functional,
    decoherent_report,
    normalized_offdiag,
    validate_partition,
)
from dhq.errors import GridTooLarge, InvalidPartition, NotDecoherent
from dhq.histories import (
    AlternativeSet, HistoryGrid, branch_matrix, enumerate_histories, history_array,
)
from dhq.linalg import (
    Hamiltonian,
    Projector,
    StateVector,
    basis_projector,
    complement,
    projector_from_span,
)
from dhq.models import spin_environment, three_box, two_slit, two_slit_amplitudes
from dhq.realms import Partition, coarse_grain, coarse_report, refine_join
from dhq.scenario import dump_scenario, scenario_from_dict

from partition_helpers import probabilities, singletons
from random_grids import random_decoherent_grid, random_partition, random_unitary


def test_three_box_realm_decoheres_exactly():
    rep = decoherence_functional(three_box("past_A").grid)
    assert rep.decoherent
    assert rep.max_offdiag_normalized <= 1e-12


def test_three_box_joint_overlap_one_ninth():
    g = three_box("joint_AB").grid
    rep = decoherence_functional(g)
    assert not rep.decoherent
    hs = enumerate_histories(g)
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
        decoherent_report(three_box("joint_AB").grid)
    assert err.value.report.max_offdiag_normalized == pytest.approx(1.0, abs=1e-10)


def test_two_slit_slit_marginal_is_half():
    for env in (False, True):
        g = two_slit(8, env).grid
        rep = decoherence_functional(g)
        by_slit = {}
        for h, p in zip(enumerate_histories(g), rep.probabilities):
            by_slit[h[0]] = by_slit.get(h[0], 0.0) + p
        assert by_slit[0] == pytest.approx(0.5, abs=1e-12)
        assert by_slit[1] == pytest.approx(0.5, abs=1e-12)


def test_sum_rules_exact_for_decoherent_three_box():
    g = three_box("past_A").grid
    part = Partition([[(0, 0), (1, 0)], [(0, 1), (1, 1)]], ["Phi", "~Phi"])
    assert check_sum_rules(g, part) <= 1e-12


def test_sum_rules_singleton_partition_zero():
    g = three_box("past_A").grid
    part = singletons(enumerate_histories(g))
    assert check_sum_rules(g, part) == pytest.approx(0.0, abs=1e-15)


def test_sum_rules_violated_by_two_slit_interference():
    sc = two_slit(8, False)
    v = check_sum_rules(sc.grid, sc.partitions["merge-slits"])
    assert v > 0.05
    # oracle: the violation at bin j is |Re(conj(a_u) a_l)| for the table
    a = two_slit_amplitudes(8)
    oracle = np.max(np.abs((a[0].conj() * a[1]).real))
    assert v == pytest.approx(oracle, abs=1e-12)


def test_sum_rules_restored_by_environment():
    sc = two_slit(8, True)
    assert check_sum_rules(sc.grid, sc.partitions["merge-slits"]) <= 1e-12


def test_partition_validation():
    g = three_box("past_A").grid
    with pytest.raises(InvalidPartition):
        check_sum_rules(g, Partition([[(0, 0)]]))  # not exhaustive
    with pytest.raises(InvalidPartition):
        check_sum_rules(
            g, Partition([[(0, 0), (1, 0), (0, 1), (1, 1)], [(0, 0)]])
        )  # overlap


def _set_walk(classes, shape):
    """The set walk `validate_partition` made before it returned class ids: its oracle.

    Each class is walked in its file order.
    """
    ranges = [range(m) for m in shape]
    seen: set = set()
    for i, cls in enumerate(classes):
        if not cls:
            raise InvalidPartition(f"class {i} is empty")
        for h in cls:
            if len(h) != len(ranges) or not all(a in r for a, r in zip(h, ranges)):
                raise InvalidPartition(f"class {i} contains unknown history {h}")
            if h in seen:
                raise InvalidPartition(f"history {h} appears in more than one class")
            seen.add(h)
    if len(seen) != math.prod(shape):
        missing = itertools.islice((h for h in itertools.product(*ranges) if h not in seen), 4)
        raise InvalidPartition(f"partition misses histories, e.g. {list(missing)}")


def _partition_outcome(check, classes, shape):
    try:
        check(classes, shape)
    except InvalidPartition as err:
        return type(err), str(err)
    return None


def _loaded_classes(classes, shape):
    """The class arrays the loader makes of these classes, in a file over a grid of `shape`."""
    d = max(shape)
    sets = [{"time": k + 1.0, "projectors": [{"name": f"a{a}", "basis": [a]} for a in range(m - 1)]
             + [{"name": "rest", "basis": list(range(m - 1, d))}]} for k, m in enumerate(shape)]
    doc = {"schema": "dhq-scenario/1", "dimension": d,
           "initial_state": [[1.0, 0.0]] + [[0.0, 0.0]] * (d - 1), "alternative_sets": sets,
           "partitions": [{"name": "p", "classes": [{"histories": [list(h) for h in c]}
                                                    for c in classes]}]}
    return scenario_from_dict(doc).partitions["p"].classes


def _broken_classes(rng, classes, shape, kind):
    """Copies of the classes (lists of tuples, in file order) broken in one or two ways."""
    classes = [list(c) for c in classes]
    i = int(rng.integers(len(classes)))
    h = classes[i][int(rng.integers(len(classes[i])))]
    k = int(rng.integers(len(shape)))
    unknown = {
        "unknown": h[:k] + (shape[k] + int(rng.integers(3)),) + h[k + 1 :],
        "negative": h[:k] + (-1 - h[k],) + h[k + 1 :],
        "short": h[:-1],
        "long": h + (0,),
        "huge": h[:k] + (10**20,) + h[k + 1 :],
    }

    def insert(rows, row):
        rows.insert(int(rng.integers(len(rows) + 1)), row)

    if kind in unknown:
        insert(classes[i], unknown[kind])
    elif kind == "ragged":  # a short and a long row: no two rows of the class match in length
        insert(classes[i], h[:-1])
        insert(classes[i], h + (0,))
    elif kind == "missing":
        classes[i].remove(h)
    elif kind == "empty":
        insert(classes, [])
    elif kind == "empty-history":  # a class of the one history (), which numpy reads as float
        insert(classes, [()])
    elif kind == "unknown and empty":  # an empty class before or after the one with a defect
        insert(classes[i], unknown["unknown"])
        insert(classes, [])
    else:  # "repeated", or "both": h again in another class, with an unknown before or after
        j = (i + 1 + int(rng.integers(len(classes) - 1))) % len(classes)
        insert(classes[j], h)
        if kind != "repeated":
            insert(classes[j], unknown["unknown"])
    return classes


def test_class_ids_match_the_set_walk():
    # Every member's flat index carries its class's id, and every broken partition is
    # refused as the set walk refuses it: same type, same message, same history named.
    # The walk and `validate_partition` take each class in file order, as the loader keeps it.
    rng = np.random.default_rng(29)
    kinds = ["unknown", "negative", "short", "long", "huge", "ragged", "missing", "empty",
             "empty-history", "unknown and empty", "repeated", "both"]
    seen = set()
    for _ in range(400):
        shape = tuple(int(m) for m in rng.integers(1, 6, size=int(rng.integers(1, 4))))
        histories = list(itertools.product(*map(range, shape)))
        classes = [[histories[i] for i in rng.permutation(np.ravel_multi_index(
            np.array(c).T, shape))] for c in random_partition(rng, histories).classes]
        arrays = _loaded_classes(classes, shape)
        assert [a.tolist() for a in arrays] == [[list(h) for h in c] for c in classes]
        ids = validate_partition(arrays, shape)
        assert _set_walk(classes, shape) is None
        assert ids.shape == (len(histories),)
        for i, cls in enumerate(classes):
            assert all(ids[np.ravel_multi_index(h, shape)] == i for h in cls)
        for number in (float, np.int64):  # indices the set walk took as the integers they equal
            same = [history_array([tuple(map(number, h)) for h in cls]) for cls in classes]
            assert np.array_equal(validate_partition(same, shape), ids)
        kind = kinds[int(rng.integers(len(kinds)))]
        if kind in ("repeated", "both") and len(classes) < 2:
            continue
        broken = _broken_classes(rng, classes, shape, kind)
        want = _partition_outcome(_set_walk, broken, shape)
        assert want is not None
        assert _partition_outcome(validate_partition, _loaded_classes(broken, shape), shape) == want
        seen.add((kind, next(w for w in ("empty", "unknown", "more than one", "misses")
                             if w in want[1])))
    # Each two-defect kind was refused by either defect, whichever came first in the file.
    assert {("both", "unknown"), ("both", "more than one")} <= seen
    assert {("unknown and empty", "unknown"), ("unknown and empty", "empty")} <= seen
    assert {kind for kind, _ in seen} == set(kinds)


def test_a_class_listing_a_history_twice_is_named():
    # The loader refuses such a class; one built in Python is refused by the check.
    part = Partition([[(0, 0), (1, 0)], [(0, 1), (1, 1), (0, 1)]])
    with pytest.raises(InvalidPartition, match=r"^class 1 lists history \(0, 1\) twice$"):
        validate_partition(part.classes, (2, 2))


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
        StateVector(np.array([0.6, 0.8], complex)),
    )
    assert probabilities(g) == [((0,), pytest.approx(1.0, abs=1e-12))]


def test_gram_cap_refuses_before_enumerating(monkeypatch):
    # 3 x 100 alternatives: 10^6 histories of dimension 100, whose 10^8 branch-row entries
    # are far above linalg.MAX_DENSE_ENTRIES, so the grid itself is refused, before any
    # history is listed and before any caller can ask for its rows.
    alts = tuple(basis_projector(100, [k], name=f"k{k}") for k in range(100))
    sets = [AlternativeSet(float(t), alts, label=f"t{t}") for t in (1, 2, 3)]
    psi = StateVector(np.full(100, 0.1, dtype=complex))
    calls = []
    monkeypatch.setattr(decoherence, "enumerate_histories", lambda *a: calls.append(a))
    message = (r"^1000000 histories over 3 times in dimension 100 exceed the limit of 16777216 "
               r"dense entries$")
    with pytest.raises(GridTooLarge, match=message):
        HistoryGrid(sets, Hamiltonian.zero(100), psi)
    assert calls == []


def _reference(branches):
    """Gram matrix, probabilities and normalized off-diagonal by the untiled formulas."""
    gram = branches.conj() @ branches.T
    gram = 0.5 * (gram + gram.conj().T)
    d = gram.diagonal().real
    if d.size < 2:
        return gram, d.copy(), 0.0
    live = d >= OFFDIAG_FLOOR
    ratio = np.abs(gram) / (np.sqrt(np.outer(np.abs(d), np.abs(d))) + OFFDIAG_FLOOR)
    ratio[~live, :] = 0.0
    ratio[:, ~live] = 0.0
    np.fill_diagonal(ratio, 0.0)
    return gram, d.copy(), float(ratio.max())


def _assert_matches_reference(report, branches):
    gram, probs, worst = _reference(branches)
    assert np.max(np.abs(report.probabilities - probs)) <= 1e-15
    assert np.max(np.abs(report.gram - gram)) <= 1e-15
    assert np.array_equal(report.gram, report.gram.conj().T)
    assert abs(report.max_offdiag_normalized - worst) <= 1e-15
    assert report.decoherent == (worst <= report.tol_used)


def _generic_hamiltonian(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return Hamiltonian(0.5 * (a + a.conj().T))


def _with_dead_branches(grid):
    """The grid started in its first alternative: every history through another one is dead."""
    psi = grid.sets[0].projectors[0].matrix @ grid.initial_state.amplitudes
    return HistoryGrid(grid.sets, grid.hamiltonian, StateVector(psi / np.linalg.norm(psi)))


def _eigen_grid(rng, dim, counts):
    """Sets of counts[k] eigen-blocks of a random nonzero H: decoheres by construction."""
    u = random_unitary(rng, dim)
    sets = []
    for k, m in enumerate(counts):
        projectors = tuple(
            Projector(u[:, b] @ u[:, b].conj().T, name=f"t{k}b{i}")
            for i, b in enumerate(np.array_split(rng.permutation(dim), m))
        )
        sets.append(AlternativeSet(time=float(k + 1), projectors=projectors, label=f"set{k}"))
    psi = u @ np.exp(2j * np.pi * rng.random(dim))
    h = Hamiltonian(u @ np.diag(rng.standard_normal(dim)) @ u.conj().T)
    return HistoryGrid(sets, h, StateVector(psi / np.linalg.norm(psi)))


def _tiled_differential_grids():
    rng = np.random.default_rng(31)
    grids = [three_box(kind).grid for kind in ("past_A", "past_B", "past_Psi", "joint_AB")]
    grids += [two_slit(8, False).grid, two_slit(8, True).grid, spin_environment(3, 1.0).grid]
    for _ in range(60):
        dim = int(rng.integers(2, 7))
        grids.append(random_decoherent_grid(rng, dim=dim, n_times=int(rng.integers(1, 4))))
    grids += [_with_dead_branches(g) for g in grids[7:27]]
    grids.append(_eigen_grid(rng, 64, [12, 12, 12]))
    grids.append(_with_dead_branches(grids[-1]))
    for g in grids:
        yield g
        yield HistoryGrid(g.sets, _generic_hamiltonian(rng, g.dim), g.initial_state)


def test_tiled_functional_matches_full_matrix_formulas():
    verdicts, dead, sizes = set(), 0, set()
    for g in _tiled_differential_grids():
        report = decoherence_functional(g)
        _assert_matches_reference(report, branch_matrix(g))
        verdicts.add(report.decoherent)
        dead += int(np.sum(report.probabilities < OFFDIAG_FLOOR))
        sizes.add(len(report.labels))
    assert verdicts == {True, False} and dead > 100 and max(sizes) == 1728


@pytest.mark.parametrize("n", [1, 2, GRAM_TILE - 1, GRAM_TILE, GRAM_TILE + 1, 2 * GRAM_TILE + 1])
def test_tiled_report_matches_full_matrix_formulas_across_tile_edges(n):
    rng = np.random.default_rng(n)
    rows = random_unitary(rng, n) * (0.5 + rng.random((n, 1)))  # orthogonal: decoherent
    dead = rows.copy()
    dead[::3] *= 1e-9
    generic = rng.standard_normal((n, 8)) + 1j * rng.standard_normal((n, 8))
    for branches in (rows, dead, generic):
        branches = branches / np.linalg.norm(branches.sum(axis=0))
        report = _direct_report(branches)
        _assert_matches_reference(report, branches)


def _assert_coarse_matches_permuted_copy(fine, cg):
    """cg's coarse report and violation against S^T D S of fine's permuted N x N Gram copy."""
    classes = cg.partition.classes
    hs = enumerate_histories(cg.grid) if cg.grid else [(i,) for i in range(len(fine.labels))]
    order = {h: i for i, h in enumerate(hs)}
    perm = np.array([order[h] for cls in classes for h in sorted(map(tuple, cls.tolist()))])
    starts = np.cumsum([0] + [len(cls) for cls in classes[:-1]])
    blocks = fine.gram[np.ix_(perm, perm)]
    sums = np.add.reduceat(np.add.reduceat(blocks, starts, axis=0), starts, axis=1)
    sums = 0.5 * (sums + sums.conj().T)
    p = np.add.reduceat(fine.probabilities[perm], starts)
    assert np.max(np.abs(cg.report.gram - sums)) <= 1e-14
    assert abs(cg.max_sum_rule_violation - float(np.abs(sums.diagonal().real - p).max())) <= 1e-14
    # The coarse report is the report of the summed rows, with nothing else in between.
    rows = np.add.reduceat(fine.branches[perm], starts)
    direct = DecoherenceReport(cg.report.names, rows, fine.tol_used)
    assert np.array_equal(cg.report.branches, rows)
    assert np.array_equal(cg.report.gram, direct.gram)
    assert np.array_equal(cg.report.probabilities, direct.probabilities)
    assert cg.report.max_offdiag_normalized == direct.max_offdiag_normalized
    assert cg.report.decoherent == direct.decoherent


def _half_partition(rng, histories):
    """A random partition with one class holding a random half of the histories."""
    half = {histories[i] for i in rng.permutation(len(histories))[: len(histories) // 2]}
    rest = random_partition(rng, [h for h in histories if h not in half]).classes if half else ()
    return Partition([half or set(histories), *rest])


def test_class_sums_match_permuted_copy_formula():
    rng = np.random.default_rng(17)
    for n in (1, 2, 7, 300, 700):
        branches = rng.standard_normal((n, 6)) + 1j * rng.standard_normal((n, 6))
        fine = _direct_report(branches / np.linalg.norm(branches.sum(axis=0)))
        hs = [(i,) for i in range(n)]
        for k in range(10):
            partition = (_half_partition if k < 2 else random_partition)(rng, hs)
            ids = validate_partition(partition.classes, (n,))
            cg = coarse_report(None, fine.branches, fine.tol_used, partition, ids)
            _assert_coarse_matches_permuted_copy(fine, cg)
    for g in _tiled_differential_grids():
        fine = decoherence_functional(g)
        partition = random_partition(rng, enumerate_histories(g))
        _assert_coarse_matches_permuted_copy(fine, coarse_grain(g, partition))
    sc = two_slit(8, False)  # a class whose members interfere
    cg = coarse_grain(sc.grid, sc.partitions["merge-slits"])
    assert cg.max_sum_rule_violation > 0.05
    _assert_coarse_matches_permuted_copy(decoherence_functional(sc.grid), cg)


def _coarse_through_the_fine_report(grid, partition, tol_dec):
    """The coarse path that sums the rows of a fine `decoherence_functional` report: the oracle
    of `coarse_grain`, which sums the fine rows without forming that report or its verdict."""
    class_ids = validate_partition(partition.classes, grid.shape)
    fine = decoherence_functional(grid, tol_dec=tol_dec)
    order = np.argsort(class_ids, kind="stable")
    counts = np.bincount(class_ids)
    starts = np.cumsum(counts) - counts
    rows = np.add.reduceat(fine.branches[order], starts)
    member_sums = np.add.reduceat(fine.probabilities[order], starts)
    report = DecoherenceReport((partition.labels,), rows, fine.tol_used)
    return report, float(np.abs(report.probabilities - member_sums).max())


def _assert_coarse_byte_equal(cg, grid, tol_dec):
    report, violation = _coarse_through_the_fine_report(grid, cg.partition, tol_dec)
    assert cg.report.names == report.names and cg.report.tol_used == report.tol_used
    for field in ("branches", "probabilities"):
        a, b = getattr(cg.report, field), getattr(report, field)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), field
    assert cg.report.max_offdiag_normalized.hex() == report.max_offdiag_normalized.hex()
    assert cg.report.decoherent == report.decoherent
    assert cg.max_sum_rule_violation.hex() == violation.hex()
    return report.decoherent


def test_coarse_grain_matches_the_sums_of_the_fine_report_byte_for_byte():
    rng = np.random.default_rng(32)
    verdicts = set()
    for g in _tiled_differential_grids():
        hs = enumerate_histories(g)
        for tol_dec in (TOL_DEC_DEFAULT, float(rng.choice([0.0, 1e-3, 0.5]))):
            cg = coarse_grain(g, random_partition(rng, hs), tol_dec=tol_dec)
            verdicts.add(_assert_coarse_byte_equal(cg, g, tol_dec))
        _assert_coarse_byte_equal(coarse_grain(g, _half_partition(rng, hs)), g, TOL_DEC_DEFAULT)
    for bins, environment in itertools.product((2, 8, 32), (False, True)):
        sc = two_slit(bins, environment)
        partition = sc.partitions["merge-slits"]
        verdicts.add(_assert_coarse_byte_equal(coarse_grain(sc.grid, partition), sc.grid,
                                               TOL_DEC_DEFAULT))
        # `dhq model two-slit` sums the rows of the report it prints.
        fine = decoherence_functional(sc.grid)
        ids = validate_partition(partition.classes, sc.grid.shape)
        cg = coarse_report(sc.grid, fine.branches, fine.tol_used, partition, ids)
        _assert_coarse_byte_equal(cg, sc.grid, TOL_DEC_DEFAULT)
    assert verdicts == {True, False}


def _direct_report(rows):
    n = len(rows)
    return DecoherenceReport(
        names=(tuple(map(str, range(n))),),
        branches=rows,
        tol_used=TOL_DEC_DEFAULT,
    )


def _valid_rows(n=520):
    """Orthogonal rows of probability 1/n each."""
    return np.eye(n, dtype=complex) / np.sqrt(n)


def test_direct_report_of_valid_gram_builds():
    report = _direct_report(_valid_rows())
    assert report.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
    assert report.decoherent and report.max_offdiag_normalized == 0.0


def test_direct_report_rejects_entries_not_summing_to_one():
    with pytest.raises(AssertionError, match="expected 1"):
        _direct_report(1.001 * _valid_rows())


def test_direct_report_rejects_nan_row():
    rows = _valid_rows()
    rows[7] = np.nan
    with pytest.raises(AssertionError, match=r"sum to nan, expected 1"):
        _direct_report(rows)


def test_direct_report_rejects_wrong_row_count():
    rows = _valid_rows(4)
    labels = ("0", "1", "2")
    with pytest.raises(ValueError, match="^4 branch rows for 3 labels$"):
        DecoherenceReport((labels,), rows, TOL_DEC_DEFAULT)
    with pytest.raises(ValueError, match="^4 branch rows for 5 labels$"):
        DecoherenceReport((labels + ("3", "4"),), rows, TOL_DEC_DEFAULT)


def _peak_bytes(fn):
    """Peak traced allocation while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("generic", [False, True])
def test_functional_peak_memory_at_4096_histories(generic):
    # 16^3 histories at d = 16: the branch rows take 1 MiB, while the stored 4,096^2 Gram
    # matrix this report used to keep took 256 MiB.  Under a generic H every row is live,
    # so the walk covers all 4,096^2 pairs; under the commuting H only 16 rows are live.
    rng = np.random.default_rng(5)
    g = _eigen_grid(rng, 16, [16, 16, 16])
    if generic:
        g = HistoryGrid(g.sets, _generic_hamiltonian(rng, 16), g.initial_state)
    assert math.prod(g.shape) == 4096
    assert _peak_bytes(lambda: decoherence_functional(g)) < 32 * 2**20
    live = int(np.sum(decoherence_functional(g).probabilities >= OFFDIAG_FLOOR))
    assert live == (4096 if generic else 16)


def test_functional_lists_no_histories_at_65536_rows():
    # 2^16 histories of two `basis` members in d = 2: the rows take 2 MiB and the labels about
    # 6 MiB.  A tuple of 16 ints naming each history took 11 MiB more (a 20.3 MiB peak).
    pair = (basis_projector(2, [0], name="u"), basis_projector(2, [1], name="d"))
    sets = [AlternativeSet(float(t), pair, label=f"t{t}") for t in range(1, 17)]
    g = HistoryGrid(sets, Hamiltonian.zero(2), StateVector(np.array([0.6, 0.8])))
    assert math.prod(g.shape) == 65536
    assert _peak_bytes(lambda: decoherence_functional(g)) <= 12 * 2**20


@pytest.mark.parametrize("dim, n_times, histories, live", [(32, 3, 4347, 32), (128, 2, 7072, 127)])
def test_grids_past_the_old_history_cap_decohere(dim, n_times, histories, live):
    # Refused while every report stored its N x N Gram matrix (at most 4,096 histories).
    g = random_decoherent_grid(np.random.default_rng(1), dim, n_times)
    report = decoherence_functional(g)
    rows = branch_matrix(g)
    p = np.sum(np.abs(rows) ** 2, axis=1)
    alive = p >= OFFDIAG_FLOOR
    assert (len(report.labels), int(alive.sum())) == (histories, live)
    assert np.array_equal(report.probabilities >= OFFDIAG_FLOOR, alive)
    assert p[~alive].max() < OFFDIAG_FLOOR
    _, probs, worst = _reference(rows[alive])
    assert report.decoherent and worst <= report.tol_used
    assert np.max(np.abs(report.probabilities[alive] - probs)) <= 1e-15
    assert abs(report.max_offdiag_normalized - worst) <= 1e-15
    message = rf"^{histories}\^2 Gram entries of {histories} histories exceed the limit of 16777216"

    def refused():
        with pytest.raises(GridTooLarge, match=message):
            report.gram

    assert _peak_bytes(refused) < 2**20  # refused before the N x N array is allocated


def test_live_rows_over_budget_refused_before_the_walk(monkeypatch):
    # 4,097 live rows: 4,097^2 pairs, just above linalg.MAX_DENSE_ENTRIES = 4,096^2.
    rng = np.random.default_rng(3)
    rows = rng.standard_normal((4097, 2)) + 1j * rng.standard_normal((4097, 2))
    monkeypatch.setattr(decoherence, "_tiles", lambda n: pytest.fail("walked"))
    message = r"^4097\^2 pairs of live branch rows exceed the limit of 16777216 dense entries$"
    with pytest.raises(GridTooLarge, match=message):
        _direct_report(rows / np.linalg.norm(rows.sum(axis=0)))


_TILE_EDGES = [GRAM_TILE - 1, GRAM_TILE, GRAM_TILE + 1]


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    live=st.one_of(st.integers(1, 12), st.sampled_from(_TILE_EDGES)),
    total=st.one_of(st.integers(0, 40), st.sampled_from([*_TILE_EDGES, 2 * GRAM_TILE + 1])),
    orthogonal=st.booleans(),
)
def test_dead_rows_change_no_live_number(seed, live, total, orthogonal):
    # Zero-norm rows inserted anywhere leave the verdict and every live number bit for bit.
    rng = np.random.default_rng(seed)
    if orthogonal:  # a decoherent set
        rows = random_unitary(rng, live)
    else:
        dim = int(rng.integers(1, 9))
        rows = rng.standard_normal((live, dim)) + 1j * rng.standard_normal((live, dim))
    rows = rows * (0.5 + rng.random((live, 1)))
    rows /= np.linalg.norm(rows.sum(axis=0))
    n = max(total, live)
    at = np.sort(rng.choice(n, size=live, replace=False))
    padded = np.zeros((n, rows.shape[1]), dtype=complex)
    padded[at] = rows
    base, full = _direct_report(rows), _direct_report(padded)
    event(f"decoherent: {base.decoherent}")
    assert full.max_offdiag_normalized == base.max_offdiag_normalized
    assert full.decoherent == base.decoherent
    assert np.array_equal(full.probabilities[at], base.probabilities)
    assert not np.delete(full.probabilities, at).any()


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 6), n_times=st.integers(2, 4))
def test_welch_bound_on_generic_grids(seed, dim, n_times):
    # L > d live branches in C^d have a normalized Gram matrix of trace L and rank <= d, so
    # some pair overlaps by at least sqrt((L - d) / (d (L - 1))); the floor of the
    # denominator shrinks that by at most 1 / (1 + OFFDIAG_FLOOR / p_min).
    rng = np.random.default_rng(seed)
    g = random_decoherent_grid(rng, dim=dim, n_times=n_times)
    g = HistoryGrid(g.sets, _generic_hamiltonian(rng, dim), g.initial_state)
    report = decoherence_functional(g)
    p = report.probabilities[report.probabilities >= OFFDIAG_FLOOR]
    n_live = len(p)
    assume(n_live > dim)
    bound = np.sqrt((n_live - dim) / (dim * (n_live - 1))) / (1 + OFFDIAG_FLOOR / p.min())
    event(f"max / bound >= {min(int(report.max_offdiag_normalized / bound), 3)}")
    assert report.max_offdiag_normalized >= bound - 1e-12
    assert not report.decoherent


def _certified_and_full(monkeypatch, grid):
    """normalized_offdiag of the grid's rows told their final-set size, the full walk, and
    whether the block maxima were certified (one walk per block and no full walk)."""
    walks = []
    walk = decoherence._walk
    monkeypatch.setattr(decoherence, "_walk", lambda rows, p: walks.append(len(p)) or walk(rows, p))
    rows = branch_matrix(grid)
    p = branch_probabilities(rows)
    m = grid.sets[-1].size
    value = normalized_offdiag(rows, p, m)
    certified = m > 1 and len(walks) == m
    full = normalized_offdiag(rows, p)
    if certified:
        assert abs(value - full) <= 1e-15
    else:
        assert value == full  # the fallback is the full walk itself
    return value, full, certified


def _evolve_gram_twins(seed):
    """Grids shaped like the benchmark's: eigen-blocks of H as sets, and again under a generic H."""
    rng = np.random.default_rng(seed)
    for dim, counts in ((96, [32, 32]), (64, [12, 12, 12])):
        g = _eigen_grid(rng, dim, counts)
        yield g, True
        yield HistoryGrid(g.sets, _generic_hamiltonian(rng, dim), g.initial_state), False


def _barely_exclusive_grid():
    """Final set {P1, P2} exclusive and complete only to 0.8 TOL_ALG, with a row at p ~ 3e-13.

    P1 = diag(1, 1, e) is idempotent to e, and P1 P2 = diag(0, 0, e).  The row (A2, P1)
    ~ (0, a, e) is small, so the cross-block pair (A2, P1), (A2, P2) ~ (0, 0, 1) reaches
    about e / a, far above the block maxima that the tilt of A1 sets.
    """
    e, a = 0.8e-10, 2e-7
    tilted = projector_from_span([[1.0, 1e-6, 0.0]], "A1")
    first = AlternativeSet(1.0, (tilted, Projector(complement(tilted).matrix, name="A2")))
    final = AlternativeSet(2.0, (Projector(np.diag([1.0, 1.0, e]), name="P1"),
                                 basis_projector(3, [2], "P2")))
    psi = StateVector(np.array([1.0, a, 1.0]) / np.sqrt(2 + a * a))
    return HistoryGrid((first, final), Hamiltonian.zero(3), psi)


def test_certified_final_blocks_match_the_full_walk(monkeypatch):
    taken = {True: 0, False: 0}
    for g in _tiled_differential_grids():
        taken[_certified_and_full(monkeypatch, g)[2]] += 1
    assert taken[True] > 20 and taken[False] > 20
    # Criterion 2's joint set of the three-box pasts, which fails at exactly 1.
    joined = refine_join(three_box("past_A").grid, three_box("past_B").grid)
    value, _, _ = _certified_and_full(monkeypatch, joined)
    assert abs(value - 1.0) <= 1e-12
    # The benchmark's twins: the generic ones are certified, the decoherent ones fall back.
    for seed in range(1, 6):
        for g, decoherent in _evolve_gram_twins(seed):
            value, _, certified = _certified_and_full(monkeypatch, g)
            assert certified == (not decoherent), (seed, g.dim)
            assert (value <= TOL_DEC_DEFAULT) == decoherent
    # One time: every block is a single row, so there is nothing to certify.
    rng = np.random.default_rng(2)
    one = _eigen_grid(rng, 8, [8])
    one = HistoryGrid(one.sets, _generic_hamiltonian(rng, 8), one.initial_state)
    value, full, certified = _certified_and_full(monkeypatch, one)
    assert not certified and value == full < 1e-12  # one time always decoheres
    # Exclusive only to about TOL_ALG, live rows near the floor: a cross-block pair sets the
    # maximum, eighty times the blocks', and the certificate must not hide it.
    g = _barely_exclusive_grid()
    value, full, certified = _certified_and_full(monkeypatch, g)
    assert not certified and value == full
    rows = branch_matrix(g)
    p = branch_probabilities(rows)
    blocks = max(normalized_offdiag(rows[k::2], p[k::2]) for k in range(2))
    assert 1e-6 < blocks < value / 50 and 5e-5 < value < 2e-4


def test_determinism_with_a_final_block_over_two_tiles(monkeypatch, tmp_path):
    # Criterion 8's generic twin spans several tiles as a whole; here one final-alternative
    # block alone holds 576 > 2 GRAM_TILE live rows, so the certified walk inside a block
    # crosses tile edges too.
    rng = np.random.default_rng(12)
    g = _eigen_grid(rng, 24, [24, 24, 2])
    g = HistoryGrid(g.sets, _generic_hamiltonian(rng, 24), g.initial_state)
    value, _, certified = _certified_and_full(monkeypatch, g)
    p = decoherence_functional(g).probabilities
    assert certified and value > 0.5
    assert int(np.sum(p[::2] >= OFFDIAG_FLOOR)) > 2 * GRAM_TILE
    path = tmp_path / "blocks.json"
    dump_scenario(g, path)

    def run(threads):
        env = dict(os.environ, PYTHONPATH=str(Path(dhq.__file__).parent.parent),
                   PYTHONHASHSEED="0", OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        argv = [sys.executable, "-m", "dhq", "--format", "json", "check", str(path)]
        return subprocess.run(argv, env=env, capture_output=True, check=True, timeout=120).stdout

    first = run("1")
    assert first == run("2") == run("1")
    assert json.loads(first)["verdicts"] == {"decoherent": False}
