import math
import threading

import numpy as np
import pytest

from dhq import histories, linalg
from dhq.cli import main
from dhq.decoherence import decoherence_functional
from dhq.errors import GridTooLarge
from dhq.histories import (
    AlternativeSet,
    HistoryGrid,
    branch_matrix,
    branch_vector,
    class_operator,
    enumerate_histories,
)
from dhq.linalg import Hamiltonian, StateVector, basis_projector, complement
from dhq.models import spin_environment, three_box, two_slit
from dhq.random_grids import random_decoherent_grid, random_unitary
from dhq.scenario import dump_scenario


def simple_grid(dim=2, times=(1.0, 2.0)):
    sets = []
    for t in times:
        p = basis_projector(dim, [0], name="P")
        sets.append(AlternativeSet(time=t, projectors=(p, complement(p)), label=f"s{t}"))
    psi = np.full(dim, 1 / math.sqrt(dim), dtype=complex)
    return HistoryGrid(sets, Hamiltonian.zero(dim), StateVector(psi, normalized=True))


def test_alternative_set_requires_completeness():
    p = basis_projector(3, [0])
    with pytest.raises(ValueError, match="completeness"):
        AlternativeSet(time=0.0, projectors=(p,), label="bad")


def test_alternative_set_rejects_overlapping_family():
    # overlapping projectors cannot telescope to the identity
    p = basis_projector(3, [0, 1])
    q = basis_projector(3, [1, 2])
    with pytest.raises(ValueError):
        AlternativeSet(time=0.0, projectors=(p, q), label="bad")


def test_grid_rejects_duplicate_or_decreasing_times():
    p = basis_projector(2, [0])
    mk = lambda t: AlternativeSet(time=t, projectors=(p, complement(p)))
    with pytest.raises(ValueError, match="strictly increasing"):
        HistoryGrid(
            [mk(1.0), mk(1.0)],
            Hamiltonian.zero(2),
            StateVector(np.array([1, 0], complex), normalized=True),
        )
    with pytest.raises(ValueError, match="strictly increasing"):
        HistoryGrid(
            [mk(2.0), mk(1.0)],
            Hamiltonian.zero(2),
            StateVector(np.array([1, 0], complex), normalized=True),
        )


def test_enumerate_single_set():
    g = simple_grid(times=(1.0,))
    assert enumerate_histories(g) == [(0,), (1,)]


def test_enumerate_two_sets_lexicographic():
    g = simple_grid()
    assert enumerate_histories(g) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_enumerate_three_box_joint_has_eight():
    g = three_box("joint_AB").grid
    hs = enumerate_histories(g)
    assert len(hs) == 8


def test_enumerate_cap():
    g = simple_grid()
    with pytest.raises(GridTooLarge):
        enumerate_histories(g, cap=3)


def test_class_operator_single_time_is_projector():
    g = simple_grid(times=(1.0,))
    assert np.allclose(class_operator(g, (0,)), g.sets[0].projectors[0].matrix)


def test_class_operators_telescope_to_identity():
    g = three_box("joint_AB").grid
    total = sum(class_operator(g, h) for h in enumerate_histories(g))
    assert np.allclose(total, np.eye(3), atol=1e-12)


def test_three_box_class_operator_matches_chain():
    sc = three_box("past_A")
    g = sc.grid
    p_a = g.sets[0].projectors[0].matrix
    p_phi = g.sets[1].projectors[0].matrix
    assert np.allclose(class_operator(g, (0, 0)), p_phi @ p_a, atol=1e-14)


def test_branch_vectors_three_box():
    g = three_box("past_A").grid
    phi = np.array([1, 1, -1], complex) / math.sqrt(3)
    # history (A, Phi): branch |Phi>/3
    assert np.allclose(branch_vector(g, (0, 0)), phi / 3, atol=1e-14)
    # history (~A, Phi): branch vanishes
    assert np.linalg.norm(branch_vector(g, (1, 0))) < 1e-14


def test_branch_vector_joint_grid():
    g = three_box("joint_AB").grid
    phi = np.array([1, 1, -1], complex) / math.sqrt(3)
    # chain P_Phi P_A P_~B applied to psi gives |Phi>/3; grid order is (B,A,Phi)
    h = (1, 0, 0)  # ~B at t1, A at t2, Phi at t3
    assert np.allclose(branch_vector(g, h), phi / 3, atol=1e-14)


def test_trivial_grid_returns_initial_state():
    dim = 3
    eye = basis_projector(dim, range(dim), name="I")
    psi = np.array([1, 1, 1], complex) / math.sqrt(3)
    g = HistoryGrid(
        [AlternativeSet(time=0.0, projectors=(eye,), label="trivial")],
        Hamiltonian.zero(dim),
        StateVector(psi, normalized=True),
    )
    assert np.allclose(branch_vector(g, (0,)), psi)


def test_branches_sum_to_initial_state():
    for kind in ("past_A", "past_B", "past_Psi", "joint_AB"):
        g = three_box(kind).grid
        total = sum(branch_vector(g, h) for h in enumerate_histories(g))
        assert np.allclose(total, g.initial_state.amplitudes, atol=1e-12)


def test_zero_hamiltonian_class_ops_time_independent():
    sc = three_box("past_A")
    g = sc.grid
    shifted = HistoryGrid(
        [
            AlternativeSet(time=5.0, projectors=g.sets[0].projectors, label="a"),
            AlternativeSet(time=9.0, projectors=g.sets[1].projectors, label="b"),
        ],
        g.hamiltonian,
        g.initial_state,
    )
    for h in enumerate_histories(g):
        assert np.allclose(class_operator(g, h), class_operator(shifted, h), atol=1e-12)


def test_history_labels_latest_first():
    g = three_box("past_A").grid
    assert g.history_label((0, 0)) == "Phi,A"
    assert g.history_label((1, 1)) == "~Phi,~A"


def generic_hamiltonian(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return Hamiltonian(0.5 * (a + a.conj().T))


def test_decoherence_functional_thread_safe():
    base = three_box("past_A").grid
    g = HistoryGrid(base.sets, generic_hamiltonian(np.random.default_rng(8), 3), base.initial_state)
    results = [None] * 8

    def work(i):
        results[i] = decoherence_functional(g).gram

    threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive()
    for r in results:
        assert np.array_equal(results[0], r)


def _differential_grids():
    rng = np.random.default_rng(31)
    grids = [three_box(kind).grid for kind in ("past_A", "past_B", "past_Psi", "joint_AB")]
    grids += [two_slit(8, False).grid, two_slit(8, True).grid, spin_environment(3, 1.0).grid]
    for _ in range(100):
        dim = int(rng.integers(2, 7))
        grids.append(random_decoherent_grid(rng, dim=dim, n_times=int(rng.integers(1, 4))))
    for g in grids:
        yield g
        yield HistoryGrid(g.sets, generic_hamiltonian(rng, g.dim), g.initial_state)


def test_branch_matrix_matches_branch_vector_chain():
    n = 0
    for g in _differential_grids():
        chain = np.stack([branch_vector(g, h) for h in enumerate_histories(g)])
        assert np.max(np.abs(branch_matrix(g) - chain)) <= 1e-12
        n += 1
    assert n == 214


def test_one_eigendecomposition_per_grid(monkeypatch, tmp_path, capsys):
    # Counted per Hamiltonian: grids, sub-grids and joins over one H share it.
    calls = []
    real_eig = linalg.hermitian_eig
    monkeypatch.setattr(linalg, "hermitian_eig", lambda h: calls.append(h) or real_eig(h))

    def forbidden(*args):
        raise AssertionError("branch_matrix must not walk the Heisenberg chain")

    base = three_box("joint_AB").grid
    HistoryGrid(base.sets, base.hamiltonian, base.initial_state)
    assert calls == []
    h = generic_hamiltonian(np.random.default_rng(3), 3)
    assert len(calls) == 1
    g = HistoryGrid(base.sets, h, base.initial_state)
    monkeypatch.setattr(histories, "branch_vector", forbidden)
    monkeypatch.setattr(histories, "evolve_heisenberg", forbidden)
    decoherence_functional(g)
    assert len(calls) == 1

    rand = random_decoherent_grid(np.random.default_rng(5), dim=4, n_times=3)
    evolving = tmp_path / "evolving.json"
    dump_scenario(rand, evolving, None, (rand.sets[1].projectors[0].name, rand.times[1]))
    same_h = tmp_path / "same_h.json"
    dump_scenario(HistoryGrid(rand.sets[:2], rand.hamiltonian, rand.initial_state), same_h)
    box = three_box("past_A")
    still = tmp_path / "still.json"
    dump_scenario(box.grid, still, None, (box.data_name, box.data_time))
    for argv, eighs in (
        (["retrodict", evolving], 1),
        (["predict", evolving], 1),
        (["compat", evolving, same_h], 2),
        (["retrodict", still], 0),
        (["compat", still, still], 0),
    ):
        calls.clear()
        assert main(list(map(str, argv))) == 0, argv
        capsys.readouterr()
        assert len(calls) == eighs, argv


def test_grid_rejects_nonfinite_times():
    p = basis_projector(2, [0])
    psi = StateVector(np.array([1, 0], complex), normalized=True)
    for bad in (math.nan, math.inf):
        sets = [AlternativeSet(time=t, projectors=(p, complement(p))) for t in (bad, bad)]
        with pytest.raises(ValueError, match="finite"):
            HistoryGrid(sets, Hamiltonian.zero(2), psi)


def pairwise_exclusive(projectors, label=""):
    """The O(m^2) pairwise loop `check_exclusive` replaces: the reference."""
    for i, p in enumerate(projectors):
        for q in projectors[i + 1 :]:
            x = linalg.max_abs(p.matrix @ q.matrix)
            if x > linalg.TOL_ALG:
                raise ValueError(
                    f"alternative set {label!r}: projectors {p.name!r} and "
                    f"{q.name!r} are not exclusive, ||P Q|| = {x:.3e}"
                )


def _exclusivity_message(check, projectors):
    try:
        check(projectors, "s")
    except ValueError as err:
        return str(err)
    return None


def _block_family(rng, dim, overlaps, sparse=False):
    """Projectors onto blocks of a random basis (the standard basis if sparse);
    each (i, j) in overlaps tilts block j's first vector towards block i's, so
    P_i P_j != 0 for exactly those pairs."""
    u = np.eye(dim, dtype=complex) if sparse else random_unitary(rng, dim)
    n_blocks = int(rng.integers(2, dim + 1))
    cuts = sorted(rng.choice(np.arange(1, dim), size=n_blocks - 1, replace=False).tolist())
    blocks = [list(range(a, b)) for a, b in zip([0] + cuts, cuts + [dim])]
    cols = [u[:, b].copy() for b in blocks]
    for i, j in overlaps:
        if i < n_blocks and j < n_blocks:
            cols[j][:, 0] = (u[:, blocks[j][0]] + u[:, blocks[i][-1]]) / math.sqrt(2)
    return tuple(
        linalg.Projector(c @ c.conj().T, rank=c.shape[1], name=f"b{k}") for k, c in enumerate(cols)
    )


def test_check_exclusive_matches_pairwise_loop():
    rng = np.random.default_rng(7)
    families = [s.projectors for g in _differential_grids() for s in g.sets]
    families += [s.projectors for s in spin_environment(6, 0.7).grid.sets]
    families += [s.projectors for s in two_slit(32, True).grid.sets]
    n_exclusive = len(families)
    for _ in range(30):
        for sparse in (False, True):
            dim = int(rng.integers(2, 12))
            families.append(_block_family(rng, dim, [], sparse))
            families.append(_block_family(rng, dim, [(0, 1)], sparse))
            families.append(_block_family(rng, dim, [(2, 4), (0, 3)], sparse))
    overlapping = 0
    for k, ps in enumerate(families):
        want = _exclusivity_message(pairwise_exclusive, ps)
        assert _exclusivity_message(histories.check_exclusive, ps) == want
        if k < n_exclusive:
            assert want is None
        overlapping += want is not None
    assert overlapping > 60


def _span_family(rng, dim, n_blocks, tilts=(), sparse=False, mix=False):
    """Span-built projectors onto n_blocks blocks of a random basis (the standard
    basis if sparse).  Each (i, j, angle) in tilts turns block j's first vector
    by that angle towards block i's last, so ||Q_i^dag Q_j|| = sin(angle).  With
    mix, each block is spanned by random unitary mixtures of its vectors, which
    spreads Q_i^dag Q_j over many small entries."""
    u = np.eye(dim, dtype=complex) if sparse else random_unitary(rng, dim)
    blocks = np.array_split(rng.permutation(dim), n_blocks)
    cols = [u[:, b].copy() for b in blocks]
    for i, j, angle in tilts:
        cols[j][:, 0] = math.cos(angle) * u[:, blocks[j][0]] + math.sin(angle) * u[:, blocks[i][-1]]
    if mix:
        cols = [c @ random_unitary(rng, c.shape[1]) for c in cols]
    return tuple(
        linalg.projector_from_span(list(c.T), name=f"b{k}") for k, c in enumerate(cols)
    )


def _largest_overlap(projectors):
    return max(
        linalg.max_abs(p.matrix @ q.matrix)
        for i, p in enumerate(projectors) for q in projectors[i + 1 :]
    )


def test_isometry_screen_matches_pairwise_loop():
    rng = np.random.default_rng(11)
    # Exclusive span-built sets: the screen alone decides them.
    exclusive = [_span_family(rng, 96, 32), _span_family(rng, 96, 32, sparse=True)]
    for _ in range(20):
        dim = int(rng.integers(2, 40))
        exclusive.append(_span_family(rng, dim, int(rng.integers(2, min(dim, 32) + 1))))
    for ps in exclusive:
        assert histories.isometries_exclusive(ps)
        assert _exclusivity_message(histories.check_exclusive, ps) is None
        assert _exclusivity_message(pairwise_exclusive, ps) is None
    # Tilted pairs with ||P_i P_j|| from about 1e-12 to 1e-8, on both sides of TOL_ALG.
    overlaps, verdicts = [], set()
    for k in range(80):
        dim = int(rng.integers(4, 40))
        n = int(rng.integers(2, min(dim, 8) + 1))
        i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
        angle = 10 ** rng.uniform(-12, -7.5)
        ps = _span_family(rng, dim, n, [(i, j, angle)], sparse=k % 2 == 0, mix=k % 4 < 2)
        want = _exclusivity_message(pairwise_exclusive, ps)
        assert _exclusivity_message(histories.check_exclusive, ps) == want
        overlaps.append(_largest_overlap(ps))
        verdicts.add(want is None)
    assert min(overlaps) < 1e-11 and max(overlaps) > 1e-9 and verdicts == {True, False}
    # Mixed isometry/matrix sets take the exact path.
    for k in range(20):
        dim = int(rng.integers(4, 24))
        tilts = [(0, 1, 10 ** rng.uniform(-12, -8))] if k % 2 else []
        ps = list(_span_family(rng, dim, int(rng.integers(2, min(dim, 8) + 1)), tilts))
        m = int(rng.integers(len(ps)))
        ps[m] = linalg.Projector(ps[m].matrix, name=ps[m].name)
        assert not histories.isometries_exclusive(ps)
        want = _exclusivity_message(pairwise_exclusive, ps)
        assert _exclusivity_message(histories.check_exclusive, ps) == want


def test_isometry_screen_margin_is_half_tol():
    # Rank-1 standard-basis pair tilted by s: ||P_0 P_1||_max = ||Q_0^dag Q_1||_F = s up to
    # roundoff, so the screen certifies the pair exactly when s <= TOL_ALG / 2.
    for s, certified in ((0.45e-10, True), (0.55e-10, False), (1.2e-10, False), (3e-10, False)):
        ps = _span_family(np.random.default_rng(0), 3, 3, [(0, 1, math.asin(s))], sparse=True)
        assert histories.isometries_exclusive(ps) is certified
        want = _exclusivity_message(pairwise_exclusive, ps)
        assert (want is None) is (s < linalg.TOL_ALG)
        assert _exclusivity_message(histories.check_exclusive, ps) == want
    # Two rank-32 blocks whose coupling is spread over many entries each far below
    # TOL_ALG / 2, while ||P_0 P_1||_max is above TOL_ALG: a bound on the entries of
    # Q_0^dag Q_1 instead of its norm would certify this pair.
    ps = _span_family(np.random.default_rng(1), 64, 2, [(0, 1, 1.2e-10)], sparse=True, mix=True)
    assert not histories.isometries_exclusive(ps)
    want = _exclusivity_message(pairwise_exclusive, ps)
    assert want is not None
    assert _exclusivity_message(histories.check_exclusive, ps) == want
