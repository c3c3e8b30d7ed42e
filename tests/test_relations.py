"""Metamorphic relations of the decoherence functional.

D(a, b) = <psi| C_a^dag C_b |psi> depends only on the class operators and the
state (Gell-Mann & Hartle, Phys. Rev. D 47, 3345 (1993)).  Each relation below
changes a grid in a way that leaves every probability and the largest normalized
off-diagonal unchanged, or only permutes or sums them, so it needs no second
implementation as its oracle.  Each is checked at 1e-12 through the API and
through `dhq --format json`, on random grids whose members are defined by their
orthonormal columns (so the CLI runs load `span` dumps), half of them with a
generic Hamiltonian that need not decohere.
"""

import contextlib
import io
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dhq.cli import main
from dhq.decoherence import decoherence_functional
from dhq.histories import AlternativeSet, HistoryGrid, enumerate_histories
from dhq.linalg import Hamiltonian, Projector, StateVector
from dhq.realms import Partition, coarse_grain, refine_join
from dhq.scenario import dump_scenario

from random_grids import random_decoherent_grid, random_unitary

TOL = 1e-12

RELATION = settings(derandomize=True, database=None, max_examples=30, deadline=None)
GRIDS = dict(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 5), n_times=st.integers(1, 3),
             generic=st.booleans())


def span_grid(seed, dim, n_times, generic):
    rng = np.random.default_rng(seed)
    grid = random_decoherent_grid(rng, dim, n_times, span=True)
    if generic:
        u = random_unitary(rng, dim)
        h = Hamiltonian((u * rng.standard_normal(dim)) @ u.conj().T)
        grid = HistoryGrid(grid.sets, h, grid.initial_state)
    return grid


def with_sets(grid, sets, hamiltonian=None, state=None):
    return HistoryGrid(sets, hamiltonian or grid.hamiltonian, state or grid.initial_state)


def api(grid):
    """{history: probability}, the largest normalized off-diagonal and the Gram matrix."""
    rep = decoherence_functional(grid)
    probs = dict(zip(enumerate_histories(grid), rep.probabilities))
    return probs, rep.max_offdiag_normalized, rep.gram


def cli(tmp_path, *grids, command="check", args=(), partitions=None, prefix=""):
    """{label: probability} and the largest normalized off-diagonal of `dhq --format json`."""
    paths = []
    for k, grid in enumerate(grids):
        paths.append(str(tmp_path / f"grid{k}.json"))
        dump_scenario(grid, paths[-1], partitions)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["--format", "json", "--tol-dec", "1", command, *paths, *args]) == 0
    doc = json.loads(out.getvalue())
    (table,) = [t for t in doc["tables"] if t["title"] == f"{prefix} probabilities".strip()]
    tag = f"{prefix}." if prefix else ""
    return dict(table["rows"]), doc["scalars"][f"{tag}max_offdiag_normalized"]


def assert_same(a, b, key=lambda h: h):
    """Equal probabilities, maxima and (from the API) Gram matrices, rows matched by `key`."""
    (pa, wa, *ga), (pb, wb, *gb) = a, b
    assert sorted(map(key, pa)) == sorted(pb)
    assert max(abs(p - pb[key(h)]) for h, p in pa.items()) <= TOL
    assert abs(wa - wb) <= TOL
    if ga:
        index = {h: i for i, h in enumerate(pb)}
        rows = [index[key(h)] for h in pa]
        assert np.max(np.abs(ga[0] - gb[0][np.ix_(rows, rows)])) <= TOL


@RELATION
@given(**GRIDS)
def test_unitary_covariance(tmp_path_factory, seed, dim, n_times, generic):
    # psi -> V psi, H -> V H V^dag and Q -> V Q for every member.
    grid = span_grid(seed, dim, n_times, generic)
    v = random_unitary(np.random.default_rng([seed, 1]), dim)
    h = v @ grid.hamiltonian.matrix @ v.conj().T
    sets = [AlternativeSet(s.time, tuple(Projector(isometry=v @ p.isometry, name=p.name)
                                         for p in s.projectors), s.label) for s in grid.sets]
    moved = with_sets(grid, sets, Hamiltonian(0.5 * (h + h.conj().T)),
                      StateVector(v @ grid.initial_state.amplitudes))
    assert_same(api(grid), api(moved))
    assert_same(cli(tmp_path_factory.mktemp("a"), grid), cli(tmp_path_factory.mktemp("b"), moved))


@RELATION
@given(tau=st.floats(-5.0, 5.0), **GRIDS)
def test_time_translation(tmp_path_factory, tau, seed, dim, n_times, generic):
    # t -> t + tau at every time, and psi -> e^{+iH tau} psi.
    grid = span_grid(seed, dim, n_times, generic)
    w, u = np.linalg.eigh(grid.hamiltonian.matrix)
    psi = (u * np.exp(1j * w * tau)) @ (u.conj().T @ grid.initial_state.amplitudes)
    sets = [AlternativeSet(s.time + tau, s.projectors, s.label) for s in grid.sets]
    moved = with_sets(grid, sets, state=StateVector(psi))
    assert_same(api(grid), api(moved))
    assert_same(cli(tmp_path_factory.mktemp("a"), grid), cli(tmp_path_factory.mktemp("b"), moved))


@RELATION
@given(**GRIDS)
def test_self_join_reproduces_the_grid(tmp_path_factory, seed, dim, n_times, generic):
    grid = span_grid(seed, dim, n_times, generic)
    assert_same(api(grid), api(refine_join(grid, grid)))
    # `compat` of a file with itself reports the join; tol_dec 1 admits every grid as a realm.
    assert_same(cli(tmp_path_factory.mktemp("a"), grid),
                cli(tmp_path_factory.mktemp("b"), grid, grid, command="compat", prefix="join"))


def permuted(grid, k, perm):
    """The grid with set k's members reordered: new position i holds old member perm[i]."""
    s = grid.sets[k]
    sets = list(grid.sets)
    sets[k] = AlternativeSet(s.time, tuple(s.projectors[i] for i in perm), s.label)
    where = {old: new for new, old in enumerate(perm)}
    return with_sets(grid, sets), lambda h: h[:k] + (where[h[k]],) + h[k + 1:]


@RELATION
@given(data=st.data(), **GRIDS)
def test_permuting_alternatives_permutes_histories(tmp_path_factory, data, seed, dim, n_times,
                                                   generic):
    grid = span_grid(seed, dim, n_times, generic)
    k = data.draw(st.integers(0, n_times - 1))
    moved, key = permuted(grid, k, data.draw(st.permutations(range(grid.sets[k].size))))
    assert_same(api(grid), api(moved), key)
    # Labels name the members, so they follow the permutation by themselves.
    assert_same(cli(tmp_path_factory.mktemp("a"), grid), cli(tmp_path_factory.mktemp("b"), moved))


def test_permuting_alternatives_permutes_the_gram_matrix_across_tiles():
    # 7^3 = 343 histories span two Gram tiles; reversing the first set moves entries
    # between the upper and the lower triangle.
    rng = np.random.default_rng(9)
    u = random_unitary(rng, 7)
    bases = [random_unitary(rng, 7) for _ in range(3)]
    sets = [AlternativeSet(t, tuple(Projector(isometry=b[:, [a]], name=f"t{t}a{a}")
                                    for a in range(7))) for t, b in zip((1.0, 2.0, 3.0), bases)]
    psi = StateVector(u[:, 0])
    grid = HistoryGrid(sets, Hamiltonian((u * rng.standard_normal(7)) @ u.conj().T), psi)
    moved, key = permuted(grid, 0, range(6, -1, -1))
    assert_same(api(grid), api(moved), key)


@RELATION
@given(data=st.data(), **GRIDS)
def test_merging_alternatives_is_coarse_graining(tmp_path_factory, data, seed, dim, n_times,
                                                 generic):
    # Replacing members i < j of set k by P_i + P_j (columns [Q_i Q_j]) gives the coarse
    # report of the partition that merges the histories differing only there.
    grid = span_grid(seed, dim, n_times, generic)
    k = data.draw(st.integers(0, n_times - 1))
    s = grid.sets[k]
    i, j = sorted(data.draw(st.lists(st.integers(0, s.size - 1), min_size=2, max_size=2,
                                     unique=True)))
    p, q = s.projectors[i], s.projectors[j]
    both = Projector(isometry=np.hstack([p.isometry, q.isometry]), name=f"{p.name}+{q.name}")
    members = [both if a == i else r for a, r in enumerate(s.projectors) if a != j]
    sets = list(grid.sets)
    sets[k] = AlternativeSet(s.time, tuple(members), s.label)
    merged = with_sets(grid, sets)
    rep = decoherence_functional(merged)
    into = [a - (a > j) if a != j else i for a in range(s.size)]
    classes = {h: [] for h in enumerate_histories(merged)}
    for h in enumerate_histories(grid):
        classes[h[:k] + (into[h[k]],) + h[k + 1:]].append(h)
    partition = Partition(list(classes.values()), rep.labels)
    coarse = coarse_grain(grid, partition).report
    assert_same((dict(zip(rep.labels, rep.probabilities)), rep.max_offdiag_normalized),
                (dict(zip(coarse.labels, coarse.probabilities)), coarse.max_offdiag_normalized))
    assert_same(cli(tmp_path_factory.mktemp("a"), merged),
                cli(tmp_path_factory.mktemp("b"), grid, command="coarse",
                    args=("--partition", "merge"), partitions={"merge": partition},
                    prefix="coarse"))


@RELATION
@given(data=st.data(), **GRIDS)
def test_inserting_the_identity_set_changes_no_probability(tmp_path_factory, data, seed, dim,
                                                           n_times, generic):
    grid = span_grid(seed, dim, n_times, generic)
    k = data.draw(st.integers(0, n_times))  # the new set's position among the times
    times = (grid.times[0] - 1.0,) + grid.times + (grid.times[-1] + 1.0,)
    one = AlternativeSet(0.5 * (times[k] + times[k + 1]),
                         (Projector(isometry=np.eye(dim), name="I"),), "identity")
    moved = with_sets(grid, grid.sets[:k] + (one,) + grid.sets[k:])
    assert_same(api(grid), api(moved), key=lambda h: h[:k] + (0,) + h[k:])
    # Labels list the latest time first.
    pos = n_times - k

    def label(lab):
        parts = lab.split(",")
        return ",".join(parts[:pos] + ["I"] + parts[pos:])

    assert_same(cli(tmp_path_factory.mktemp("a"), grid), cli(tmp_path_factory.mktemp("b"), moved),
                key=label)
