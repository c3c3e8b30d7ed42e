import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import dhq
from dhq import realms
from dhq.cli import main
from dhq.decoherence import check_sum_rules, decoherence_functional, probabilities
from dhq.errors import ConditionOnNull, DhqError, GridTooLarge, NonCommutingSets, NotDecoherent
from dhq.histories import AlternativeSet, HistoryGrid, class_operator, enumerate_histories
from dhq.linalg import (
    Hamiltonian,
    Projector,
    StateVector,
    basis_projector,
    complement,
    projector_from_span,
)
from dhq.models import THREE_BOX_KINDS, three_box, two_slit
from dhq.realms import (
    CompatibilityVerdict,
    Partition,
    Realm,
    check_compatibility,
    coarse_grain,
    conditional_probability,
    predict,
    refine_join,
    retrodict,
)
from dhq.scenario import dump_scenario

from partition_helpers import class_operators, marginal_partition, singletons
from random_grids import random_decoherent_grid, random_partition


def test_singleton_partition_reproduces_report():
    g = three_box("past_A").grid
    fine = decoherence_functional(g)
    part = singletons(enumerate_histories(g))
    cg = coarse_grain(g, part)
    assert np.allclose(sorted(cg.report.probabilities), sorted(fine.probabilities), atol=1e-14)
    assert cg.report.decoherent


def test_all_in_one_partition_gives_identity():
    g = three_box("past_A").grid
    hs = enumerate_histories(g)
    cg = coarse_grain(g, Partition.from_lists([hs], ["all"]))
    assert np.allclose(class_operators(cg)[0], np.eye(3), atol=1e-12)
    assert cg.report.probabilities[0] == pytest.approx(1.0, abs=1e-12)


def test_two_slit_screen_coarse_graining_decoheres():
    sc = two_slit(8, False)
    fine = decoherence_functional(sc.grid)
    assert not fine.decoherent
    cg = coarse_grain(sc.grid, sc.partitions["merge-slits"])
    assert cg.report.decoherent
    # coherent pattern: p(j) = (1 + cos(2 pi x_j / m)) / m
    m = 8
    x = np.arange(m) - (m - 1) / 2
    expected = (1 + np.cos(2 * np.pi * x / m)) / m
    assert np.allclose(cg.report.probabilities, expected, atol=1e-12)


def test_coarse_graining_preserves_decoherence_randomized():
    rng = np.random.default_rng(17)
    for _ in range(20):
        g = random_decoherent_grid(rng, dim=int(rng.integers(2, 7)), n_times=2)
        hs = enumerate_histories(g)
        cg = coarse_grain(g, random_partition(rng, hs))
        assert cg.report.decoherent


def _coarse_breaking_grid(eps):
    """Four early alternatives a (basis pairs {a, a+4} of C^8), then Q and I - Q late.

    The late projector's top-left block is (I + 2 eps S)/2 to first order, so the
    branches (a, b) and (a', b) overlap by +-eps S[a, a'] / 4 at probabilities 1/8:
    the fine set decoheres at a normalized 2 eps, while the classes {(0,0), (1,0)}
    and {(2,0), (3,0)} (in-class overlap -eps / 4, cross-class +eps / 4) reach 4 eps.
    """
    s = np.array([[0, -1, 1, 1], [-1, 0, 1, 1], [1, 1, 0, -1], [1, 1, -1, 0]], float)
    w = np.eye(4) + eps * s
    lam, u = np.linalg.eigh(2 * np.eye(4) - w.T @ w)
    v = np.vstack([w, (u * np.sqrt(lam)) @ u.T]) / np.sqrt(2)
    q = projector_from_span(list(v.T.astype(complex)), name="Q")
    early = AlternativeSet(1.0, tuple(basis_projector(8, [a, a + 4], f"a{a}") for a in range(4)))
    psi = np.r_[np.full(4, 0.5), np.zeros(4)].astype(complex)
    grid = HistoryGrid(
        [early, AlternativeSet(2.0, (q, complement(q)))],
        Hamiltonian.zero(8),
        StateVector(psi, normalized=True),
    )
    classes = [[(0, 0), (1, 0)], [(2, 0), (3, 0)], [(a, 1) for a in range(4)]]
    return grid, Partition.from_lists(classes, ["I", "J", "late"])


def test_coarse_graining_of_decoherent_set_may_fail_decoherence(tmp_path):
    # Medium decoherence at a finite tolerance is not inherited by coarse-grainings:
    # the coarse verdict is reported, not asserted.
    grid, part = _coarse_breaking_grid(4e-9)
    fine = decoherence_functional(grid)
    assert fine.decoherent and fine.max_offdiag_normalized == pytest.approx(8e-9, rel=1e-3)
    cg = coarse_grain(grid, part)
    assert not cg.report.decoherent
    assert cg.report.max_offdiag_normalized == pytest.approx(1.6e-8, rel=1e-3)
    path = tmp_path / "coarse.json"
    dump_scenario(grid, path, partitions={"split": part})
    env = dict(os.environ, PYTHONPATH=str(Path(dhq.__file__).parent.parent))
    argv = [sys.executable, "-m", "dhq", "coarse", "--partition", "split", str(path)]
    out = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0
    assert "verdict coarse.decoherent: False" in out.stdout
    assert "Traceback" not in out.stdout + out.stderr


def test_refine_join_reproduces_three_box_joint():
    ga = three_box("past_A").grid
    gb = three_box("past_B").grid
    joined = refine_join(ga, gb)
    assert joined.n_times == 2
    assert joined.shape == (3, 2)  # {A&~B, ~A&B, ~A&~B} x {Phi, ~Phi}
    joint = three_box("joint_AB").grid
    join_ops = [class_operator(joined, h) for h in enumerate_histories(joined)]
    nonzero_ops = [
        class_operator(joint, h)
        for h in enumerate_histories(joint)
        if np.max(np.abs(class_operator(joint, h))) > 1e-12
    ]
    assert len(join_ops) == len(nonzero_ops) == 6
    used = set()
    for a in join_ops:
        hit = None
        for i, b in enumerate(nonzero_ops):
            if i not in used and np.allclose(a, b, atol=1e-10):
                hit = i
                break
        assert hit is not None, "join class operator missing from the explicit joint set"
        used.add(hit)


def test_refine_join_idempotent():
    g = three_box("past_A").grid
    j = refine_join(g, g)
    assert j.shape == g.shape
    for h in enumerate_histories(g):
        assert np.allclose(class_operator(j, h), class_operator(g, h), atol=1e-12)


def test_refine_join_rejects_noncommuting():
    ga = three_box("past_A").grid
    gp = three_box("past_Psi").grid
    with pytest.raises(NonCommutingSets) as err:
        refine_join(ga, gp)
    assert err.value.max_commutator_norm > 0.1


def test_refine_join_over_budget_refused_before_any_product(monkeypatch):
    # Two sets of 8 basis projectors at d = 512 would join into 64 products:
    # (64 + 1) 512^2 dense entries, just above linalg.MAX_DENSE_ENTRIES.
    d = 512
    alts = tuple(basis_projector(d, range(64 * k, 64 * k + 64), f"p{k}") for k in range(8))
    g = HistoryGrid([AlternativeSet(1.0, alts)], Hamiltonian.zero(d),
                    StateVector(np.full(d, d**-0.5), normalized=True))
    calls = []
    monkeypatch.setattr(realms, "_join_sets", lambda *a: calls.append(a))
    message = r"^64 projectors of dimension 512 exceed the limit of 16777216 dense entries$"
    with pytest.raises(GridTooLarge, match=message):
        refine_join(g, g)
    assert calls == []


def test_join_marginals_recover_inputs():
    ga = three_box("past_A").grid
    gb = three_box("past_B").grid
    joined = refine_join(ga, gb)
    for side, parent in ((0, ga), (1, gb)):
        part = marginal_partition(joined, side)
        cg = coarse_grain(joined, part)
        parent_ops = [class_operator(parent, h) for h in enumerate_histories(parent)]
        assert len(class_operators(cg)) == len(parent_ops)
        used = set()
        for op in class_operators(cg):
            hit = None
            for i, q in enumerate(parent_ops):
                if i not in used and np.allclose(op, q, atol=1e-10):
                    hit = i
                    break
            assert hit is not None
            used.add(hit)


def test_incompatible_realms_three_box():
    ra = Realm.from_grid(three_box("past_A").grid)
    rb = Realm.from_grid(three_box("past_B").grid)
    v = check_compatibility(ra, rb)
    assert v.status == "incompatible"
    assert v.witness_report is not None
    assert abs(v.witness_report.max_offdiag_normalized - 1.0) < 1e-10


def test_compatibility_symmetric():
    ra = Realm.from_grid(three_box("past_A").grid)
    rb = Realm.from_grid(three_box("past_B").grid)
    rp = Realm.from_grid(three_box("past_Psi").grid)
    for x, y in ((ra, rb), (ra, rp), (rb, rp)):
        assert check_compatibility(x, y).status == check_compatibility(y, x).status


def test_realm_vs_coarser_realm_compatible():
    g = three_box("past_A").grid
    # drop the past set: keep only the present alternative
    coarser = HistoryGrid([g.sets[1]], g.hamiltonian, g.initial_state)
    v = check_compatibility(Realm.from_grid(g), Realm.from_grid(coarser))
    assert v.status == "compatible"
    assert isinstance(v, CompatibilityVerdict)
    assert v.witness_grid is not None


def test_noncommuting_realms_undetermined():
    ra = Realm.from_grid(three_box("past_A").grid)
    rp = Realm.from_grid(three_box("past_Psi").grid)
    assert check_compatibility(ra, rp).status == "undetermined"


def test_conditional_probability_three_box():
    g = three_box("past_A").grid
    hs = enumerate_histories(g)
    given = {h for h in hs if h[1] == 0}  # Phi at the present time
    target_a = {h for h in hs if h[0] == 0}
    target_not_a = {h for h in hs if h[0] == 1}
    assert conditional_probability(g, target_a, given) == pytest.approx(1.0, abs=1e-12)
    assert conditional_probability(g, target_not_a, given) == pytest.approx(0.0, abs=1e-12)


def test_conditional_probability_given_everything():
    g = three_box("past_A").grid
    hs = set(enumerate_histories(g))
    p = conditional_probability(g, {(0, 0)}, hs)
    assert p == pytest.approx(1 / 9, abs=1e-12)


def test_conditional_probability_matches_the_set_sums():
    # The masks sum the report's probabilities in enumeration order; the sums over sets of
    # tuples they replace followed hash order, so the two agree to a few ulps.
    rng = np.random.default_rng(31)
    for _ in range(20):
        dim, n_times = int(rng.integers(3, 7)), int(rng.integers(1, 4))
        g = random_decoherent_grid(rng, dim=dim, n_times=n_times)
        probs = dict(probabilities(g))
        hs = list(probs)
        target, given = ([hs[i] for i in rng.integers(len(hs), size=2 * len(hs))]
                         for _ in range(2))
        p_given = sum(probs[h] for h in set(given))
        if p_given <= realms.P_FLOOR:
            continue
        want = sum(probs[h] for h in set(target) & set(given)) / p_given
        for t, gv in ((target, given), (set(target), set(given)), (np.array(target), given)):
            assert conditional_probability(g, t, gv) == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_conditional_probability_names_an_unknown_history():
    g = three_box("past_A").grid  # shape (2, 2)
    hs = enumerate_histories(g)
    huge = 10**20
    for rows, name in (([(0, 0), (0, 2)], "(0, 2)"), ([(0, 0), (0,)], "(0,)"),
                       ([(0, 0), (-1, 0)], "(-1, 0)"), ([(huge, 0)], f"({huge}, 0)")):
        for target, given in ((rows, hs), (hs, rows)):
            with pytest.raises(ValueError, match=rf"^unknown history {re.escape(name)}$"):
                conditional_probability(g, target, given)


def test_condition_on_null_raises():
    g = three_box("past_A").grid
    null = {(1, 0)}  # (~A, Phi) has probability zero
    with pytest.raises(ConditionOnNull):
        conditional_probability(g, {(0, 0)}, null)


def test_conditioning_on_null_data_refused(capsys, tmp_path):
    # psi = e0 and H = 0: "rest" at t = 1 and "two" at t = 2 have probability 0.
    first = (basis_projector(3, [0], name="zero"), basis_projector(3, [1, 2], name="rest"))
    second = tuple(basis_projector(3, [i], name=n) for i, n in enumerate(("zero", "one", "two")))
    g = HistoryGrid([AlternativeSet(1.0, first, "first"), AlternativeSet(2.0, second, "second")],
                    Hamiltonian.zero(3), StateVector(np.eye(3)[0], normalized=True))
    message = "data probability 0.000e+00 <= 1e-12"
    with pytest.raises(ConditionOnNull, match=re.escape(message)):
        retrodict(g, "two", 2.0)
    with pytest.raises(ConditionOnNull, match=re.escape(message)):
        predict(g, "rest", 1.0)
    path = tmp_path / "null.json"
    dump_scenario(g, path)
    for cmd, data in (("retrodict", "two@2.0"), ("predict", "rest@1.0")):
        assert main([cmd, str(path), "--data", data]) == 1
        assert capsys.readouterr().err == f"dhq: error: {message}\n"


def test_retrodict_three_box_realms():
    for kind, label in (("past_A", "A"), ("past_B", "B")):
        g = three_box(kind).grid
        rows = {lab: p for _, lab, p in retrodict(g, "Phi", 2.0)}
        assert rows[label] == pytest.approx(1.0, abs=1e-12)
        assert rows[f"~{label}"] == pytest.approx(0.0, abs=1e-12)
        assert sum(rows.values()) == pytest.approx(1.0, abs=1e-10)


def test_retrodict_psi_realm():
    g = three_box("past_Psi").grid
    rows = {lab: p for _, lab, p in retrodict(g, "Phi", 2.0)}
    assert rows["Psi"] == pytest.approx(1.0, abs=1e-12)
    assert rows["~Psi"] == pytest.approx(0.0, abs=1e-12)


def test_retrodict_requires_combined_decoherence():
    g = three_box("joint_AB").grid
    with pytest.raises(NotDecoherent):
        retrodict(g, "Phi", 3.0)


def test_predict_with_identity_data_reduces_to_unconditional():
    from dhq.linalg import basis_projector

    g = three_box("past_A").grid
    eye = basis_projector(3, range(3), name="I")
    grid = HistoryGrid(
        [AlternativeSet(time=0.5, projectors=(eye,), label="now"), g.sets[0], g.sets[1]],
        g.hamiltonian,
        g.initial_state,
    )
    rows = predict(grid, "I", 0.5)
    uncond = {g.history_label(h): p for h, p in probabilities(g)}
    for _, label, p in rows:
        assert p == pytest.approx(uncond[label], abs=1e-12)
    assert sum(p for _, _, p in rows) == pytest.approx(1.0, abs=1e-10)


def test_retrodict_agrees_with_conditional_probability():
    g = three_box("past_A").grid
    hs = enumerate_histories(g)
    given = {h for h in hs if h[1] == 0}
    rows = {lab: p for _, lab, p in retrodict(g, "Phi", 2.0)}
    for idx, name in ((0, "A"), (1, "~A")):
        target = {h for h in hs if h[0] == idx}
        assert rows[name] == pytest.approx(
            conditional_probability(g, target, given), abs=1e-12
        )


def test_retrodiction_noncontextual_across_realms():
    # p(Psi-history | Phi) computed in past_Psi equals the value in a
    # fine-grained-by-time variant containing the same class operator
    g = three_box("past_Psi").grid
    rows1 = {lab: p for _, lab, p in retrodict(g, "Phi", 2.0)}
    shifted = HistoryGrid(
        [
            AlternativeSet(time=0.25, projectors=g.sets[0].projectors, label="past"),
            AlternativeSet(time=2.0, projectors=g.sets[1].projectors, label="present"),
        ],
        g.hamiltonian,
        g.initial_state,
    )
    rows2 = {lab: p for _, lab, p in retrodict(shifted, "Phi", 2.0)}
    for k in rows1:
        assert rows1[k] == pytest.approx(rows2[k], abs=1e-12)


def test_noncontextuality_randomized():
    rng = np.random.default_rng(99)
    for _ in range(15):
        g = random_decoherent_grid(rng, dim=int(rng.integers(3, 7)), n_times=2)
        hs = enumerate_histories(g)
        probs = dict(probabilities(g))
        target = hs[int(rng.integers(0, len(hs)))]
        part = random_partition(rng, hs, keep_singleton=target)
        cg = coarse_grain(g, part)
        i = next(
            i for i, cls in enumerate(cg.partition.classes) if cls.tolist() == [list(target)]
        )
        assert cg.report.probabilities[i] == pytest.approx(probs[target], abs=1e-12)


def test_retrodict_errors_without_past_sets():
    g = three_box("past_A").grid
    with pytest.raises(ValueError, match="before"):
        retrodict(g, "A", 1.0)
    with pytest.raises(ValueError, match="after"):
        predict(g, "Phi", 2.0)


def _generic_hamiltonian(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return Hamiltonian(0.5 * (a + a.conj().T))


def test_coarse_sum_rule_violation_matches_check_sum_rules(capsys):
    rng = np.random.default_rng(41)
    sc = two_slit(8, False)
    cases = [(sc.grid, sc.partitions["merge-slits"])]
    for _ in range(30):
        g = random_decoherent_grid(rng, dim=int(rng.integers(2, 6)), n_times=2)
        for grid in (g, HistoryGrid(g.sets, _generic_hamiltonian(rng, g.dim), g.initial_state)):
            cases.append((grid, random_partition(rng, enumerate_histories(grid))))
    violations = []
    for grid, part in cases:
        v = coarse_grain(grid, part).max_sum_rule_violation
        assert v == pytest.approx(check_sum_rules(grid, part), abs=1e-12)
        violations.append(v)
    assert max(violations) > 0.05  # interference is present, not only zeros
    for bins in (4, 8):
        for env in ([], ["--environment"]):
            assert main(["--format", "json", "model", "two-slit", "--bins", str(bins), *env]) == 0
            reported = json.loads(capsys.readouterr().out)["scalars"]["max_sum_rule_violation"]
            sc = two_slit(bins, bool(env))
            assert reported == pytest.approx(
                check_sum_rules(sc.grid, sc.partitions["merge-slits"]), abs=1e-12
            )


def _explicit_conditioned(grid, k_d, i_d, future):
    """||C P_d Psi||^2 / ||P_d Psi||^2 from class_operator chains on explicit sub-grids."""
    psi = grid.initial_state.amplitudes
    side = [k for k in range(grid.n_times) if (k > k_d if future else k < k_d)]
    sub = HistoryGrid([grid.sets[k] for k in sorted(side + [k_d])], grid.hamiltonian,
                      grid.initial_state)
    one = HistoryGrid([grid.sets[k_d]], grid.hamiltonian, grid.initial_state)
    denom = np.linalg.norm(class_operator(one, (i_d,)) @ psi) ** 2
    pos = sorted(side + [k_d]).index(k_d)
    return [
        np.linalg.norm(class_operator(sub, h) @ psi) ** 2 / denom
        for h in enumerate_histories(sub)
        if h[pos] == i_d
    ]


def _generic_twin(rng, grid):
    """The grid's Heisenberg projectors reached through a generic H that commutes with none.

    Each Schroedinger projector P at time t becomes e^{-iHt} P e^{+iHt}; the
    grid's own H commutes with its sets, so the Heisenberg projectors, and
    hence decoherence, are unchanged.
    """
    h = _generic_hamiltonian(rng, grid.dim)
    w, u = np.linalg.eigh(h.matrix)
    sets = []
    for s in grid.sets:
        back = (u * np.exp(-1j * w * s.time)) @ u.conj().T
        projectors = tuple(
            Projector(back @ p.matrix @ back.conj().T, rank=p.rank, name=p.name)
            for p in s.projectors
        )
        sets.append(AlternativeSet(time=s.time, projectors=projectors, label=s.label))
    return HistoryGrid(sets, h, grid.initial_state)


def test_retrodict_predict_match_class_operator_formula():
    rng = np.random.default_rng(43)
    grids = [three_box("past_A").grid]
    grids += [random_decoherent_grid(rng, dim=int(rng.integers(3, 7)), n_times=3) for _ in range(20)]
    grids += [_generic_twin(rng, g) for g in grids[1:11]]
    n = 0
    for g in grids:
        for future, fn in ((False, retrodict), (True, predict)):
            if future and g.n_times == 2:
                continue
            for i_d, p in enumerate(g.sets[1].projectors):
                rows = fn(g, p.name, g.times[1])
                assert [r[2] for r in rows] == pytest.approx(
                    _explicit_conditioned(g, 1, i_d, future), abs=1e-12
                )
                n += 1
    assert n > 200  # 142 from the commuting grids, 78 from their generic twins


def test_retrodict_memory_peak_stays_at_the_functional():
    # 32 x 32 x 2 = 2,048 histories; the data alternative "lo" holds 1,024 of them.
    # Its probability is one summed branch row: no |class|^2 block (16 MiB) may be formed.
    dim = 32
    bins = tuple(basis_projector(dim, [k], name=f"k{k}") for k in range(dim))
    halves = (basis_projector(dim, range(16), name="lo"),
              basis_projector(dim, range(16, 32), name="hi"))
    sets = [AlternativeSet(1.0, bins, "t1"), AlternativeSet(2.0, bins, "t2"),
            AlternativeSet(3.0, halves, "data")]
    psi = StateVector(np.full(dim, dim**-0.5, dtype=complex), normalized=True)
    grid = HistoryGrid(sets, Hamiltonian.zero(dim), psi)
    assert grid.history_count() == 2048

    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    functional = peak(lambda: decoherence_functional(grid))
    retrodicted = peak(lambda: retrodict(grid, "lo", 3.0))
    assert retrodicted <= functional + 2**20, (retrodicted / 2**20, functional / 2**20)


def _overflowing_past_a(sign):
    """three-box past_A at times 0.25 and 0.5 under H = diag(sign 1e308, 0, 0)."""
    g = three_box("past_A").grid
    sets = [AlternativeSet(t, s.projectors, s.label) for s, t in zip(g.sets, (0.25, 0.5))]
    h = Hamiltonian(np.diag([sign * 1e308, 0.0, 0.0]).astype(complex))
    return HistoryGrid(sets, h, g.initial_state)


def test_hamiltonians_differing_by_inf_refused_quietly(tmp_path, capsys):
    # Their difference overflows: numpy's RuntimeWarning used to reach stderr (an error
    # under filterwarnings = error) before the refusal.
    a, b = _overflowing_past_a(1), _overflowing_past_a(-1)
    with pytest.raises(ValueError, match="^grids have different Hamiltonians$"):
        refine_join(a, b)
    paths = [tmp_path / "plus.json", tmp_path / "minus.json"]
    for grid, path in zip((a, b), paths):
        dump_scenario(grid, path)
        assert "data_projector" not in json.loads(path.read_text())
    assert main(["compat", *map(str, paths)]) == 1
    assert capsys.readouterr().err == "dhq: error: grids have different Hamiltonians\n"
    env = dict(os.environ, PYTHONPATH=str(Path(dhq.__file__).parent.parent))
    out = subprocess.run([sys.executable, "-m", "dhq", "compat", *map(str, paths)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 1
    assert out.stderr.splitlines() == ["dhq: error: grids have different Hamiltonians"]


def _set_at(grid, time):
    for s in grid.sets:
        if s.time == time:
            return s
    raise KeyError(f"no alternative set at time {time!r}")


def _filtered_conditioned_family(grid, data_name, data_time, *, future: bool, tol_dec: float):
    """The earlier `_conditioned_family`, verbatim but for `_set_at`: it filters every history."""
    i_d = _set_at(grid, data_time).index_of(data_name)
    k_d = grid.times.index(data_time)
    if future:
        side = [k for k in range(grid.n_times) if grid.times[k] > data_time]
    else:
        side = [k for k in range(grid.n_times) if grid.times[k] < data_time]
    if not side:
        raise ValueError(
            f"no alternative sets {'after' if future else 'before'} the data time {data_time}"
        )
    sub_sets = [grid.sets[k] for k in sorted(side + [k_d])]
    sub = HistoryGrid(sub_sets, grid.hamiltonian, grid.initial_state)
    report = decoherence_functional(sub, tol_dec=tol_dec)
    if not report.decoherent:
        raise NotDecoherent(
            "the set of the data projector together with the conditioned "
            "alternatives fails decoherence "
            f"({report.max_offdiag_normalized:.3e} > {tol_dec:.3e})",
            report,
        )
    sub_kd = sorted(side + [k_d]).index(k_d)
    through = [(h, p) for h, p in zip(report.histories, report.probabilities) if h[sub_kd] == i_d]
    rows = [i for i, h in enumerate(report.histories) if h[sub_kd] == i_d]
    data_row = np.add.reduceat(report.branches[rows], [0])[0]
    denom = float(np.vdot(data_row, data_row).real)
    if denom <= realms.P_FLOOR:
        raise ConditionOnNull(f"data probability {denom:.3e} <= {realms.P_FLOOR:.0e}")
    results = []
    for h, p in through:
        combo = h[:sub_kd] + h[sub_kd + 1 :]
        label = ",".join(
            sub.sets[k].projectors[h[k]].name for k in reversed(range(sub.n_times)) if k != sub_kd
        )
        results.append((combo, label, float(p) / denom))
    return results


def _outcome(fn, *args, **kwargs):
    """fn's result, or its exception's type and message."""
    try:
        return fn(*args, **kwargs)
    except (KeyError, ValueError, DhqError) as err:
        return type(err), str(err)


def test_conditioned_rows_match_the_history_filter():
    # Retrodict and predict slice the sub-grid report's rows along the data axis; the earlier
    # filter over every history must give the same combos, labels and bits of each probability.
    rng = np.random.default_rng(171)
    grids = [random_decoherent_grid(rng, int(rng.integers(4, 8)), n, max_alternatives=3)
             for n in (3, 3, 4, 4, 4)]
    grids += [_generic_twin(rng, g) for g in grids[:2]]
    cases = [(g, p.name, s.time) for g in grids for s in g.sets[1:-1] for p in s.projectors]
    cases += [(g, "A", 1.0) for g in (three_box(kind).grid for kind in THREE_BOX_KINDS)]
    cases += [(three_box(kind).grid, "Phi", three_box(kind).data_time) for kind in THREE_BOX_KINDS]
    cases += [(grids[0], "nope", grids[0].times[1]), (grids[0], "t1b0", 11.0)]
    compared = 0
    for g, name, time in cases:
        for future in (False, True):
            new = _outcome(realms._conditioned_family, g, name, time, future=future, tol_dec=1e-8)
            old = _outcome(_filtered_conditioned_family, g, name, time, future=future,
                           tol_dec=1e-8)
            assert type(new) is type(old) and len(new) == len(old)
            if isinstance(new, list):
                for (c, lab, p), (c0, lab0, p0) in zip(new, old):
                    assert (c, lab, p.hex()) == (c0, lab0, p0.hex())
                    compared += 1
            else:
                assert new == old
    assert compared > 150


def _basis_doc(dim, blocks):
    """A `basis` scenario: one set at t = 1 of `blocks` runs of consecutive indices, H = 0."""
    cuts = [round(k * dim / blocks) for k in range(blocks + 1)]
    return {"schema": "dhq-scenario/1", "dimension": dim, "hamiltonian": "zero",
            "initial_state": [[dim**-0.5, 0.0]] * dim,
            "alternative_sets": [{"time": 1.0, "label": f"s{blocks}", "projectors": [
                {"name": f"b{k}", "basis": list(range(cuts[k], cuts[k + 1]))}
                for k in range(blocks)]}]}


def test_compat_of_basis_files_keeps_no_member_matrix(tmp_path, capsys):
    # The join forms each member's d x d matrix and lets it go with the join.  The bound sits
    # between its traced peak, about 23 d x d arrays, and the about 26 reached when each of
    # the 8 members keeps the matrix it formed.
    d = 512
    paths = [tmp_path / f"basis{m}.json" for m in (3, 5)]
    for path, m in zip(paths, (3, 5)):
        path.write_text(json.dumps(_basis_doc(d, m)))
    tracemalloc.start()
    try:
        assert main(["compat", *map(str, paths)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "verdict compatibility: compatible" in capsys.readouterr().out
    assert peak <= 24.5 * d * d * 16, peak / 2**20
