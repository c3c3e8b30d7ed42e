import math
import tracemalloc

import numpy as np
import pytest

from dhq.cli import main
from dhq.decoherence import check_sum_rules, decoherence_functional
from dhq.errors import EnvironmentTooLarge, GridTooLarge
from dhq.histories import enumerate_histories
from dhq.linalg import MAX_DENSE_ENTRIES, Projector
from dhq.models import (
    THREE_BOX_KINDS, SpinEnvironmentScenario, spin_environment, three_box, two_slit,
    two_slit_amplitudes,
)
from dhq.scenario import dump_scenario, parse_scenario


def test_three_box_kinds_and_invariants():
    for kind in ("past_A", "past_B", "past_Psi", "joint_AB"):
        sc = three_box(kind)
        g = sc.grid
        assert g.dim == 3
        assert g.hamiltonian.is_zero
        assert np.allclose(g.initial_state.amplitudes, np.ones(3) / math.sqrt(3))
    with pytest.raises(ValueError):
        three_box("nope")


def test_three_box_decoherence_by_kind():
    assert decoherence_functional(three_box("past_A").grid).decoherent
    assert decoherence_functional(three_box("past_B").grid).decoherent
    assert decoherence_functional(three_box("past_Psi").grid).decoherent
    assert not decoherence_functional(three_box("joint_AB").grid).decoherent


def test_three_box_a_b_symmetry():
    # the two past realms are related by the A<->B swap unitary and give
    # identical probability tables under relabeling
    swap = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
    ga = three_box("past_A").grid
    gb = three_box("past_B").grid
    for k in range(2):
        for a in range(2):
            ma = ga.sets[k].projectors[a].matrix
            mb = gb.sets[k].projectors[a].matrix
            assert np.allclose(swap @ ma @ swap, mb, atol=1e-14)
    pa = decoherence_functional(ga).probabilities
    pb = decoherence_functional(gb).probabilities
    assert np.allclose(pa, pb, atol=1e-14)


def test_two_slit_amplitude_table_unitary_consistent():
    for bins in (2, 3, 8, 16):
        a = two_slit_amplitudes(bins)
        assert np.vdot(a[0], a[0]) == pytest.approx(1.0, abs=1e-12)
        assert np.vdot(a[1], a[1]) == pytest.approx(1.0, abs=1e-12)
        assert abs(np.vdot(a[0], a[1])) < 1e-12


def test_two_slit_total_probability_one():
    for bins in (2, 5, 8):
        for env in (False, True):
            rep = decoherence_functional(two_slit(bins, env).grid)
            assert complex(rep.gram.sum()).real == pytest.approx(1.0, abs=1e-12)


def test_two_slit_fine_set_decoherence():
    assert not decoherence_functional(two_slit(8, False).grid).decoherent
    assert decoherence_functional(two_slit(8, True).grid).decoherent


def test_two_slit_environment_gives_incoherent_sum():
    sc = two_slit(8, True)
    rep = decoherence_functional(sc.grid)
    a = two_slit_amplitudes(8)
    by_bin = {}
    for h, p in zip(rep.histories, rep.probabilities):
        by_bin[h[1]] = by_bin.get(h[1], 0.0) + p
    for j in range(8):
        expected = (abs(a[0, j]) ** 2 + abs(a[1, j]) ** 2) / 2
        assert by_bin[j] == pytest.approx(expected, abs=1e-12)
    assert check_sum_rules(sc.grid, sc.partitions["merge-slits"]) <= 1e-12


def test_two_slit_violation_floor_at_default_bins():
    sc = two_slit(8, False)
    assert check_sum_rules(sc.grid, sc.partitions["merge-slits"]) > 0.05


def test_two_slit_rejects_single_bin():
    with pytest.raises(ValueError):
        two_slit(1, False)


def test_spin_environment_closed_form_matches_state_vector():
    for n in (1, 3, 6, 9, 12):
        for theta in (math.pi / 6, math.pi / 4, math.pi / 2):
            sc = spin_environment(n, theta)
            assert sc.predicted_offdiag == pytest.approx(
                abs(math.cos(theta / 2)) ** (2 * n), abs=0
            )
            assert abs(sc.numeric_offdiag - sc.predicted_offdiag) <= 1e-10


def test_spin_environment_theta_limits():
    # theta = 0: no records, full interference
    sc = spin_environment(5, 0.0)
    assert sc.numeric_offdiag == pytest.approx(1.0, abs=1e-12)
    # theta = pi: orthogonal records, exact decoherence
    sc = spin_environment(1, math.pi)
    assert sc.numeric_offdiag == pytest.approx(0.0, abs=1e-12)


def test_spin_environment_dense_grid_agrees():
    for n, theta in ((1, math.pi / 4), (4, math.pi / 3), (6, math.pi / 2)):
        sc = spin_environment(n, theta)
        g = sc.grid
        assert g.dim == 2 ** (n + 1)
        rep = decoherence_functional(g)
        assert abs(rep.max_offdiag_normalized - sc.predicted_offdiag) <= 1e-10
        assert np.allclose(sorted(rep.probabilities), sorted(sc.probabilities), atol=1e-12)
        assert len(enumerate_histories(g)) == 4


def test_spin_environment_grid_cap():
    sc = spin_environment(12, math.pi / 2)
    assert sc.numeric_offdiag == pytest.approx(sc.predicted_offdiag, abs=1e-10)
    with pytest.raises(EnvironmentTooLarge):
        _ = sc.grid


def test_spin_environment_bounds():
    with pytest.raises(EnvironmentTooLarge):
        spin_environment(21, 1.0)
    with pytest.raises(EnvironmentTooLarge):
        spin_environment(0, 1.0)
    with pytest.raises(ValueError):
        spin_environment(2, 3.5)


def test_two_slit_bins_bounded_before_allocation(capsys):
    # 2**40 bins would ask numpy for terabytes; the dense budget refuses them first.
    message = (f"{2**40 + 3} projectors of dimension {2**41} exceed the limit of "
               f"{MAX_DENSE_ENTRIES} dense entries")
    tracemalloc.start()
    try:
        with pytest.raises(GridTooLarge) as err:
            two_slit(2**40, True)
        assert str(err.value) == message
        assert main(["model", "two-slit", "--bins", str(2**40), "--environment"]) == 1
        assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert err == f"dhq: error: {message}\n"
    assert "Traceback" not in err


def test_two_slit_bins_limit_is_the_dense_budget(monkeypatch):
    # (bins + 3) projectors of dimension r * bins and a Hamiltonian: 159 bins fit with the
    # record (r = 2) and 254 without; one more is refused before any projector is built.
    built = []
    post_init = Projector.__post_init__

    def spy(self):
        built.append(self.name)
        post_init(self)

    monkeypatch.setattr(Projector, "__post_init__", spy)
    for bins, env in ((160, True), (255, False)):
        with pytest.raises(GridTooLarge, match=f"{bins + 3} projectors of dimension"):
            two_slit(bins, env)
    assert built == []
    two_slit(4, True)
    assert len(built) == 4 + 3  # the spy sees every projector: 4 bins, 2 slits and blocked
    sc = two_slit(129, False)
    assert sc.grid.dim == 129 and [s.size for s in sc.grid.sets] == [3, 129]


def test_spin_environment_exponential_decay():
    theta = math.pi / 2
    values = [spin_environment(n, theta).numeric_offdiag for n in range(1, 13)]
    slopes = np.diff(np.log(values))
    assert np.allclose(slopes, 2 * math.log(math.cos(theta / 2)), atol=1e-10)


MODEL_ARGVS = [["three-box", "--realm", kind] for kind in THREE_BOX_KINDS] + [
    ["two-slit", "--bins", str(bins), *env] for bins in (2, 8, 32) for env in ([], ["--environment"])
]


@pytest.mark.parametrize("argv", MODEL_ARGVS, ids=" ".join)
def test_model_scenario_is_the_loaded_dump(argv, capsys, tmp_path):
    # A built-in model's Scenario carries what the loader gives for its dump.
    if argv[0] == "three-box":
        sc = three_box(argv[2])
    else:
        sc = two_slit(int(argv[2]), "--environment" in argv)
    path = tmp_path / "model.json"
    assert main(["model", *argv, "--dump", str(path)]) == 0
    capsys.readouterr()
    loaded = parse_scenario(path)
    assert list(sc.partitions) == list(loaded.partitions)
    for name, partition in sc.partitions.items():
        assert [c.tolist() for c in partition.classes] == [
            c.tolist() for c in loaded.partitions[name].classes]
        assert partition.labels == loaded.partitions[name].labels
    assert (sc.data_name, sc.data_time) == (loaded.data_name, loaded.data_time)
    assert sc.has_data == (argv[0] == "three-box")


def test_reading_a_matrix_writes_nothing(tmp_path):
    # A projector holds the one array that defines it: reading `matrix` keeps nothing.
    path = tmp_path / "box.json"
    dump_scenario(three_box("joint_AB").grid, path)
    grids = [three_box(kind).grid for kind in THREE_BOX_KINDS]
    grids += [two_slit(8, False).grid, two_slit(8, True).grid, spin_environment(3, 1.0).grid]
    grids.append(parse_scenario(path).grid)  # its `span` members
    projectors = [p for g in grids for s in g.sets for p in s.projectors]
    assert {p.isometry is None for p in projectors} == {True, False}
    for p in projectors:
        before = dict(vars(p))
        m = p.matrix
        after = vars(p)
        assert after.keys() == before.keys() and all(after[k] is v for k, v in before.items())
        assert not m.flags.writeable and p.matrix.tobytes() == m.tobytes()


def test_spin_environment_grid_is_built_on_each_access(monkeypatch):
    calls = []
    build = SpinEnvironmentScenario._build_grid
    monkeypatch.setattr(SpinEnvironmentScenario, "_build_grid",
                        lambda sc: calls.append(sc) or build(sc))
    sc = spin_environment(2, 0.7)
    first, second = sc.grid, sc.grid
    assert calls == [sc, sc] and first is not second
    assert dump_scenario(first) == dump_scenario(second)
    assert "grid" not in vars(sc)
