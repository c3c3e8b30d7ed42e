import json
import math
import threading
import tracemalloc

import numpy as np
import pytest

from dhq import histories, linalg
from dhq.cli import main
from dhq.decoherence import decoherence_functional
from dhq.errors import GridTooLarge, ValidationError
from dhq.histories import (
    AlternativeSet,
    HistoryGrid,
    branch_matrix,
    branch_vector,
    class_operator,
    enumerate_histories,
)
from dhq.linalg import Hamiltonian, StateVector, basis_projector, complement
from dhq.models import THREE_BOX_KINDS, spin_environment, three_box, two_slit
from dhq.scenario import dump_scenario, parse_scenario

from random_grids import random_decoherent_grid, random_unitary


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
    # 65^3 = 274,625 histories of dimension 65: their branch rows need 65^4 entries, above
    # linalg.MAX_DENSE_ENTRIES = 2^24 = 64^4, which the rows of 64^3 histories at d = 64 fit.
    linalg.check_rows_size(64**3, 64)
    alts = tuple(basis_projector(65, [k], name=f"k{k}") for k in range(65))
    sets = [AlternativeSet(float(t), alts, label=f"t{t}") for t in (1, 2, 3)]
    g = HistoryGrid(sets, Hamiltonian.zero(65), StateVector(np.full(65, 65**-0.5), normalized=True))
    message = r"^274625 branch rows of dimension 65 exceed the limit of 16777216 dense entries$"
    with pytest.raises(GridTooLarge, match=message):
        enumerate_histories(g)


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


def test_report_labels_are_history_labels():
    # decoherence_functional names every history from one product of the sets' names.
    grids = [three_box(kind).grid for kind in THREE_BOX_KINDS]
    grids.append(random_decoherent_grid(np.random.default_rng(4), dim=6, n_times=3))
    assert grids[-1].n_times == 3 and min(grids[-1].shape) > 1
    for g in grids:
        report = decoherence_functional(g)
        assert report.labels == tuple(g.history_label(h) for h in report.histories)


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


def _eigenbasis_branch_matrix(grid):
    """The eigenbasis pass that `branch_matrix` replaced, kept verbatim as its oracle."""
    eigenbasis = grid.hamiltonian.eigenbasis
    rows = grid.initial_state.amplitudes[None, :]
    if eigenbasis is not None:
        w, u = eigenbasis
        rows = rows @ u.conj()
    t_prev = 0.0
    for s, t in zip(grid.sets, grid.times):
        mats = [p.matrix for p in s.projectors]
        if eigenbasis is not None:
            rows = rows * np.exp(-1j * w * (t - t_prev))
            mats = [u.conj().T @ m @ u for m in mats]
        # Row vectors: r -> r P^T for every alternative side by side.
        rows = (rows @ np.hstack([m.T for m in mats])).reshape(-1, grid.dim)
        t_prev = t
    if eigenbasis is not None:
        rows = (rows * np.exp(1j * w * t_prev)) @ u.T
    return rows


def _model_grids():
    yield from (three_box(kind).grid for kind in THREE_BOX_KINDS)
    yield from (two_slit(bins, env).grid for bins in (8, 32) for env in (False, True))
    yield spin_environment(3, 1.0).grid
    yield spin_environment(5, 0.4).grid


def _takes_w_pass(grid):
    """Whether some set's members all keep columns Q and are not all `basis` members."""
    return any(all(p.isometry is not None for p in s.projectors)
               and not all(p.basis is not None for p in s.projectors) for s in grid.sets)


def test_branch_matrix_bit_identical_to_eigenbasis_pass_when_h_is_zero():
    # Matrix-form and mixed sets take the same products as the eigenbasis pass, and the W
    # pass of `basis` sets multiplies by exact 0/1 columns, so those grids stay bit-identical.
    # Other sets given by columns Q go through W = [Q_1 ... Q_m], which sums in another
    # order: their grids are held to the 1e-14 of the generic-H test below.
    rng = np.random.default_rng(41)
    grids = list(_model_grids())
    for dim in (2, 5, 16, 48):
        g = random_decoherent_grid(rng, dim=dim, n_times=3, max_alternatives=6)
        grids.append(HistoryGrid(g.sets, Hamiltonian.zero(dim), g.initial_state))
    for dim in (2, 5, 16, 48):
        g = random_decoherent_grid(rng, dim=dim, n_times=3, span=True, max_alternatives=6)
        grids.append(HistoryGrid(g.sets, Hamiltonian.zero(dim), g.initial_state))
    w_pass = [_takes_w_pass(g) for g in grids]
    assert any(w_pass) and not all(w_pass)
    for g, through_w in zip(grids, w_pass):
        assert g.hamiltonian.is_zero
        if through_w:
            assert np.max(np.abs(branch_matrix(g) - _eigenbasis_branch_matrix(g))) <= 1e-14
        else:
            assert np.array_equal(branch_matrix(g), _eigenbasis_branch_matrix(g))


def test_branch_matrix_matches_eigenbasis_pass_with_generic_h():
    # Generic-H twins, so the propagator does not commute with the projectors.
    rng = np.random.default_rng(43)
    grids = list(_model_grids())
    for dim in (3, 8, 32, 64, 96):
        for n_times in (2, 3, 4):
            grids.append(random_decoherent_grid(rng, dim=dim, n_times=n_times, max_alternatives=4))
    worst = 0.0
    for g in grids:
        twin = HistoryGrid(g.sets, generic_hamiltonian(rng, g.dim), g.initial_state)
        worst = max(worst, np.max(np.abs(branch_matrix(twin) - _eigenbasis_branch_matrix(twin))))
    assert worst <= 1e-14, worst


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


@pytest.mark.parametrize("w, times", [(1e308, (1.0, 2.0)), (1.0, (-1e308, 1e308))])
def test_grid_rejects_overflowing_evolution_phases(w, times):
    # The steps of branch_matrix: w t_2 overflows in the first grid, t_2 - t_1 in the second.
    p = basis_projector(2, [0])
    psi = StateVector(np.array([1, 0], complex), normalized=True)
    sets = [AlternativeSet(time=t, projectors=(p, complement(p))) for t in times]
    with pytest.raises(ValueError, match="evolution phases"):
        HistoryGrid(sets, Hamiltonian(np.diag([w, 0.0])), psi)


def test_is_zero_reads_the_eigenbasis(monkeypatch):
    # Decided once, at construction: no d^2 scan per time step of branch_matrix.
    grid = simple_grid(times=(1.0, 2.0, 3.0))
    moving = HistoryGrid(grid.sets, Hamiltonian(np.diag([1.0, 0.0])), grid.initial_state)
    monkeypatch.setattr(linalg, "max_abs", lambda a: pytest.fail("scanned"))
    assert grid.hamiltonian.is_zero and not moving.hamiltonian.is_zero
    assert branch_matrix(moving).shape == (8, 2)


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


@pytest.fixture
def exact_products(monkeypatch):
    """||P_i P_j||_max of every pair product `check_exclusive` multiplies out.

    Its only `max_abs` calls are those products (`AlternativeSet` adds one for
    completeness)."""
    values = []
    inner = histories.max_abs

    def counting(a):
        values.append(inner(a))
        return values[-1]

    monkeypatch.setattr(histories, "max_abs", counting)
    return values


def _screened(projectors, counted):
    """(check_exclusive's message, exact pair products it made) for one set."""
    counted.clear()
    return _exclusivity_message(histories.check_exclusive, projectors), len(counted)


def _matrix_form(projectors):
    return tuple(linalg.Projector(p.matrix, name=p.name) for p in projectors)


def test_isometry_screen_matches_pairwise_loop(exact_products):
    rng = np.random.default_rng(11)
    # Exclusive span-built sets: the screen alone decides them.
    exclusive = [_span_family(rng, 96, 32), _span_family(rng, 96, 32, sparse=True)]
    for _ in range(20):
        dim = int(rng.integers(2, 40))
        exclusive.append(_span_family(rng, dim, int(rng.integers(2, min(dim, 32) + 1))))
    for ps in exclusive:
        assert _screened(ps, exact_products) == (None, 0)
        assert _exclusivity_message(pairwise_exclusive, ps) is None
    # Tilted pairs with ||P_i P_j|| from about 1e-12 to 1e-8, on both sides of TOL_ALG,
    # span-built and as matrix-form copies (their Q comes from the shared eigh).
    overlaps, verdicts = [], set()
    for k in range(80):
        dim = int(rng.integers(4, 40))
        n = int(rng.integers(2, min(dim, 8) + 1))
        i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
        angle = 10 ** rng.uniform(-12, -7.5)
        ps = _span_family(rng, dim, n, [(i, j, angle)], sparse=k % 2 == 0, mix=k % 4 < 2)
        want = _exclusivity_message(pairwise_exclusive, ps)
        assert _exclusivity_message(histories.check_exclusive, ps) == want
        assert _exclusivity_message(histories.check_exclusive, _matrix_form(ps)) == want
        overlaps.append(_largest_overlap(ps))
        verdicts.add(want is None)
    assert min(overlaps) < 1e-11 and max(overlaps) > 1e-9 and verdicts == {True, False}
    # Mixed isometry/matrix sets take the same screen: untilted ones need no product.
    for k in range(20):
        dim = int(rng.integers(4, 24))
        tilts = [(0, 1, 10 ** rng.uniform(-12, -8))] if k % 2 else []
        ps = list(_span_family(rng, dim, int(rng.integers(2, min(dim, 8) + 1)), tilts))
        m = int(rng.integers(len(ps)))
        ps[m] = linalg.Projector(ps[m].matrix, name=ps[m].name)
        want = _exclusivity_message(pairwise_exclusive, ps)
        message, products = _screened(ps, exact_products)
        assert message == want
        if not tilts:
            assert products == 0


def test_isometry_screen_margin_is_half_tol(exact_products):
    # Rank-1 standard-basis pair tilted by s: ||P_0 P_1||_max = ||Q_0^dag Q_1||_F = s up to
    # roundoff, so the screen certifies the pair exactly when s <= TOL_ALG / 2 and
    # otherwise multiplies out that one pair.
    for s, certified in ((0.45e-10, True), (0.55e-10, False), (1.2e-10, False), (3e-10, False)):
        ps = _span_family(np.random.default_rng(0), 3, 3, [(0, 1, math.asin(s))], sparse=True)
        want = _exclusivity_message(pairwise_exclusive, ps)
        assert (want is None) is (s < linalg.TOL_ALG)
        assert _screened(ps, exact_products) == (want, 0 if certified else 1)
    # Two rank-32 blocks whose coupling is spread over many entries each far below
    # TOL_ALG / 2, while ||P_0 P_1||_max is above TOL_ALG: a bound on the entries of
    # Q_0^dag Q_1 instead of its norm would certify this pair.
    ps = _span_family(np.random.default_rng(1), 64, 2, [(0, 1, 1.2e-10)], sparse=True, mix=True)
    want = _exclusivity_message(pairwise_exclusive, ps)
    assert want is not None
    assert _screened(ps, exact_products) == (want, 1)


def test_screen_bound_keeps_residuals(exact_products):
    # Matrix-form projectors take their Q_i from one eigh, so Q_i^dag Q_j is roundoff for
    # every pair, overlapping or not: only the residuals e_i keep the overlapping pair
    # from being certified (and, above TOL_ALG, the set from passing).
    for s in (0.3e-10, 3e-10, 3e-9):
        span = _span_family(np.random.default_rng(2), 5, 3, [(0, 2, math.asin(s))], sparse=True)
        ps = _matrix_form(span)
        want = _exclusivity_message(pairwise_exclusive, ps)
        assert (want is None) is (s < linalg.TOL_ALG)
        exact_products.clear()
        assert _exclusivity_message(histories.check_exclusive, ps) == want
        assert max(exact_products) == _largest_overlap(ps)  # (b0, b2) was multiplied out
    # Matrix-form members whose ranks exceed the dimension cannot be blocks of one eigh:
    # they keep no columns, so e_i = ||P_i||_F and their pairs are multiplied out.
    ps = _matrix_form([basis_projector(3, [0, 1], name="p"), basis_projector(3, [1, 2], name="q")])
    want = _exclusivity_message(pairwise_exclusive, ps)
    assert want is not None and _screened(ps, exact_products) == (want, 1)


def _mixed_family(rng, dim, tilt=None):
    """Blocks of the standard basis as basis, span and matrix-form projectors in random
    order, with rank-0 members (a basis projector on no index, and P = 0 as a matrix)
    spliced in; tilt = (angle) turns the first vector of block 1 towards block 0."""
    blocks = np.array_split(rng.permutation(dim), int(rng.integers(2, min(dim, 8) + 1)))
    eye = np.eye(dim, dtype=complex)
    cols = [eye[:, b].copy() for b in blocks]
    if tilt is not None:
        first, last = eye[:, blocks[1][0]], eye[:, blocks[0][-1]]
        cols[1][:, 0] = math.cos(tilt) * first + math.sin(tilt) * last
    ps = []
    for k, (b, c) in enumerate(zip(blocks, cols)):
        form = int(rng.integers(3))
        if form == 0 and (k != 1 or tilt is None):
            ps.append(basis_projector(dim, b, name=f"b{k}"))
        elif form == 1:
            ps.append(linalg.projector_from_span(list(c.T), name=f"b{k}"))
        else:
            ps.append(linalg.Projector(c @ c.conj().T, rank=c.shape[1], name=f"b{k}"))
    for z in range(int(rng.integers(0, 3))):
        zero = basis_projector(dim, [], name=f"z{z}") if z % 2 else linalg.Projector(
            np.zeros((dim, dim)), name=f"z{z}"
        )
        ps.insert(int(rng.integers(len(ps) + 1)), zero)
    return tuple(ps)


def test_screen_matches_pairwise_loop_on_mixed_and_random_sets(exact_products):
    rng = np.random.default_rng(5)
    families = [_mixed_family(rng, int(rng.integers(2, 30))) for _ in range(40)]
    grng = np.random.default_rng(9)
    for _ in range(20):
        g = random_decoherent_grid(grng, int(grng.integers(2, 40)), int(grng.integers(1, 4)))
        families += [s.projectors for s in g.sets]
    n_exclusive = len(families)
    for _ in range(40):
        families.append(_mixed_family(rng, int(rng.integers(2, 30)), 10 ** rng.uniform(-12, -8)))
    verdicts = set()
    for k, ps in enumerate(families):
        want = _exclusivity_message(pairwise_exclusive, ps)
        message, products = _screened(ps, exact_products)
        assert message == want
        if k < n_exclusive:
            assert (want, products) == (None, 0)
        verdicts.add(want is None)
    assert verdicts == {True, False}
    assert any(p.rank == 0 for ps in families for p in ps)


def test_matrix_form_random_grid_needs_no_exact_product(exact_products):
    g = random_decoherent_grid(np.random.default_rng(1), 128, 2)
    assert all(p.isometry is None for s in g.sets for p in s.projectors)
    assert min(s.size for s in g.sets) > 50
    assert len(exact_products) == len(g.sets)  # the completeness checks, no pair product
    exact_products.clear()
    for s in g.sets:
        histories.check_exclusive(s.projectors, s.label)
    assert exact_products == []


def test_pair_screen_holds_one_m_by_m_array():
    # m members need an m x m bound; its roots and its e_i terms used to take a second one.
    m = 1500
    ps = [basis_projector(2, [0], name="a"), basis_projector(2, [1], name="b")]
    ps += [linalg.Projector(np.zeros((2, 2)), name=f"z{i}") for i in range(m - 2)]
    tracemalloc.start()
    try:
        histories.check_exclusive(ps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * m * m * 8


def test_history_labels_with_a_set_left_out():
    # history_labels(skip=k) names the histories of the grid without set k, in their order.
    grids = [three_box(kind).grid for kind in THREE_BOX_KINDS]
    grids += [random_decoherent_grid(np.random.default_rng(s), 5, n, max_alternatives=3)
              for s, n in ((17, 3), (18, 4))]
    for g in grids:
        assert g.history_labels() == [g.history_label(h) for h in enumerate_histories(g)]
        for k in range(g.n_times):
            sub = HistoryGrid(g.sets[:k] + g.sets[k + 1 :], g.hamiltonian, g.initial_state)
            labels = [sub.history_label(h) for h in enumerate_histories(sub)]
            assert g.history_labels(skip=k) == labels


def test_locate_names_the_time_and_the_alternative():
    g = random_decoherent_grid(np.random.default_rng(19), 5, 3)
    for k, s in enumerate(g.sets):
        for a, name in enumerate(s.names()):
            assert g.locate(name, s.time) == (k, a)
    with pytest.raises(KeyError, match=r"no alternative set at time -1\.0"):
        g.locate("t0b0", -1.0)
    with pytest.raises(KeyError, match="no projector named 'nope' in set 'set1'"):
        g.locate("nope", g.times[1])


def _hstack_branch_matrix(grid):
    """The branch pass before the W pass, kept verbatim as its oracle."""
    h = grid.hamiltonian
    rows = grid.initial_state.amplitudes[None, :]
    t_prev = 0.0
    for s, t in zip(grid.sets, grid.times):
        if not h.is_zero:
            rows = rows @ linalg.propagator(h, t - t_prev).T
        rows = (rows @ np.hstack([p.matrix.T for p in s.projectors])).reshape(-1, grid.dim)
        t_prev = t
    if not h.is_zero:
        rows = rows @ linalg.propagator(h, -t_prev).T
    return rows


def test_w_pass_matches_the_hstack_pass():
    # Span-defined grids, every built-in model, and sets mixing basis, span and matrix-form
    # members (with rank-0 ones), each also under a generic H.  The W pass is held to the
    # 1e-14 of the eigenbasis tests, except on `basis` sets, held with the rest to equality.
    rng = np.random.default_rng(47)
    grids = list(_model_grids())
    for dim in (2, 7, 24, 64):
        for n_times in (1, 2, 3):
            grids.append(random_decoherent_grid(rng, dim, n_times, span=True, max_alternatives=8))
    for _ in range(12):
        dim = int(rng.integers(2, 30))
        sets = [AlternativeSet(t, _mixed_family(rng, dim), f"s{t}") for t in (1.0, 2.0)]
        psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        psi = StateVector(psi / np.linalg.norm(psi), normalized=True)
        grids.append(HistoryGrid(sets, Hamiltonian.zero(dim), psi))
    grids += [HistoryGrid(g.sets, generic_hamiltonian(rng, g.dim), g.initial_state) for g in grids]
    kinds = set()
    for g in grids:
        through_w = _takes_w_pass(g)
        kinds.add(through_w)
        want = _hstack_branch_matrix(g)
        if through_w:
            assert np.max(np.abs(branch_matrix(g) - want)) <= 1e-14
        else:
            assert np.array_equal(branch_matrix(g), want)
    assert kinds == {True, False}
    assert any(all(p.basis is not None for p in s.projectors) for g in grids for s in g.sets)


def _dense_set_checks(projectors, label):
    """The dense completeness check and the pairwise loop: the certificates' oracle."""
    comp = linalg.max_abs(sum(p.matrix for p in projectors) - np.eye(projectors[0].dim))
    if comp > linalg.TOL_ALG:
        raise ValueError(
            f"alternative set {label!r}: completeness violated, ||sum P - I|| = {comp:.3e}"
        )
    pairwise_exclusive(projectors, label)


def _outcome(check, *args):
    try:
        check(*args)
    except ValueError as err:
        return type(err), str(err)
    return None


def _certified_sets(rng, dim, k):
    """(projectors, certified) of sets of columns perturbed to defects of k TOL_ALG.

    `certified`: whether ||G - I||_F, G = W^dag W, is clear of the certificate's margin
    TOL_ALG / 2 below (the set is accepted with no d x d matrix formed) or above (the
    dense checks decide it); None near the margin, where rounding decides.
    """
    tol = linalg.TOL_ALG
    u = random_unitary(rng, dim)
    cols = [u[:, b] for b in np.array_split(rng.permutation(dim), 8)]
    first, last = cols[1][:, 0], cols[0][:, -1]
    # One column of each of the 8 members scaled by 1 + e, 2 sqrt(8) e = k tol: ||G - I||_F
    # = k tol, and each member's own ||Q^dag Q - I||_F = k tol / sqrt(8).
    e = k * tol / (2 * math.sqrt(8))
    sets = [([c * np.r_[1 + e, np.ones(c.shape[1] - 1)] for c in cols], k * tol)]
    # Member 1's first column turned towards member 0's last, so that ||G - I||_F =
    # sqrt(2) sin(angle) is k tol; then so that the dense completeness defect, about the
    # angle times the largest entry of f l^dag + l f^dag, is k tol.
    spread = linalg.max_abs(np.outer(first, last.conj()) + np.outer(last, first.conj()))
    for angle in (math.asin(k * tol / math.sqrt(2)), k * tol / spread):
        turned = [c.copy() for c in cols]
        turned[1][:, 0] = math.cos(angle) * first + math.sin(angle) * last
        sets.append((turned, math.sqrt(2) * math.sin(angle)))
    sets.append((cols[:-1] + [cols[-1][:, 1:]], math.inf))  # sum r < d: not square
    return [
        (tuple(linalg.Projector(isometry=c, name=f"b{i}") for i, c in enumerate(cs)),
         True if defect < 0.45 * tol else False if defect > 0.55 * tol else None)
        for cs, defect in sets
    ]


def test_set_certificates_give_the_dense_verdict(monkeypatch):
    # Every member here is given by columns, so each read of its `matrix` forms one.
    reads = []
    matrix = linalg.Projector.matrix
    monkeypatch.setattr(linalg.Projector, "matrix",
                        property(lambda p: reads.append(p) or matrix.fget(p)))
    rng = np.random.default_rng(53)
    cases = []
    for k in (0.25, 0.5, 1, 2):
        for dim in (8, 24, 64):
            cases += _certified_sets(rng, dim, k)
    for dim in (2, 5, 40):  # a `basis` set with a rank-0 member, then with defects
        good = [[0], [], list(range(1, dim))]
        for lists, certified in ((good, True),
                                 (good[:-1] + [good[-1] + good[0][:1]], False),  # repeated
                                 ([good[0][1:]] + good[1:], False),  # missing
                                 (good[:-1], False)):
            cases.append((tuple(basis_projector(dim, b, name=f"b{i}") for i, b in enumerate(lists)),
                          certified))
    verdicts = set()
    for ps, certified in cases:
        reads.clear()
        got = _outcome(AlternativeSet, 0.0, ps, "s")
        formed = bool(reads)
        want = _outcome(_dense_set_checks, ps, "s")
        assert got == want
        verdicts.add(want is None)
        if certified is not None:
            assert formed is not certified
    assert verdicts == {True, False}


def test_ranks_are_summed_before_any_certificate(tmp_path):
    # 14 `basis` members that each list range(256), and the span of e_0: a 23 KB file whose
    # ranks sum to 14 d + 1, so W^dag W would hold 3,585^2 entries.  No certificate is tried;
    # the dense check refuses the set by its completeness defect 13 + |e_0|^2 at once.
    d = 256
    e0 = [[1.0, 0.0]] + [[0.0, 0.0]] * (d - 1)
    members = [{"name": f"b{k}", "basis": list(range(d))} for k in range(14)]
    doc = {"schema": "dhq-scenario/1", "dimension": d, "hamiltonian": "zero", "initial_state": e0,
           "alternative_sets": [{"time": 1.0, "label": "s",
                                 "projectors": [*members, {"name": "v", "span": [e0]}]}]}
    path = tmp_path / "repeated_basis.json"
    path.write_text(json.dumps(doc))
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError) as err:
            parse_scenario(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.location == "/alternative_sets/0"
    assert str(err.value).endswith("alternative set 's': completeness violated, "
                                   "||sum P - I|| = 1.400e+01")
    assert peak < 64 * 2**20

