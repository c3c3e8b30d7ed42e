"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines;
every tolerance is pinned here, nothing is deferred to later calibration.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np

from dhq.decoherence import (
    GRAM_TILE,
    OFFDIAG_FLOOR,
    check_sum_rules,
    decoherence_functional,
    probabilities,
)
from dhq.histories import HistoryGrid, class_operator, enumerate_histories
from dhq.linalg import Hamiltonian, complement, evolve_heisenberg, projector_from_span
from dhq.models import spin_environment, three_box, two_slit
from dhq.realms import Realm, check_compatibility, coarse_grain, refine_join, retrodict
from dhq.scenario import dump_scenario
from dhq.spacetime import (
    Boost,
    Event,
    Igus,
    IgusGroup,
    boost_event,
    common_present_check,
    happened_relative_to_surface,
    interval_squared,
    simultaneity_boost,
)

from random_grids import random_decoherent_grid, random_partition


def verdict(n, ok, text):
    line = f"[criterion {n}] {'PASS' if ok else 'FAIL'} - {text}"
    print(line)
    assert ok, line


def test_criterion_1_three_box_regression():
    t0 = time.perf_counter()
    ok = True
    for kind, name in (("past_A", "A"), ("past_B", "B")):
        grid = three_box(kind).grid
        rep = decoherence_functional(grid)
        ok &= rep.decoherent and rep.max_offdiag_normalized <= 1e-12
        rows = {lab: p for _, lab, p in retrodict(grid, "Phi", 2.0)}
        ok &= abs(rows[name] - 1.0) <= 1e-12
        ok &= abs(rows[f"~{name}"]) <= 1e-12
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    verdict(1, ok, f"retrodiction p(A|Phi)=1, p(B|Phi)=1, exact decoherence, {elapsed:.3f}s")


def test_criterion_2_incompatibility_certification():
    ga = three_box("past_A").grid
    gb = three_box("past_B").grid
    joined = refine_join(ga, gb)
    joint = three_box("joint_AB").grid
    join_ops = [class_operator(joined, h) for h in enumerate_histories(joined)]
    explicit = [class_operator(joint, h) for h in enumerate_histories(joint)]
    nonzero = [c for c in explicit if np.max(np.abs(c)) > 1e-12]
    matched = 0
    used = set()
    for a in join_ops:
        for i, b in enumerate(nonzero):
            if i not in used and np.allclose(a, b, atol=1e-10):
                used.add(i)
                matched += 1
                break
    reproduces = matched == len(join_ops) == len(nonzero)
    rep = decoherence_functional(joined)
    fails_at_one = (not rep.decoherent) and abs(rep.max_offdiag_normalized - 1.0) <= 1e-10
    status = check_compatibility(Realm.from_grid(ga), Realm.from_grid(gb)).status
    ok = reproduces and fails_at_one and status == "incompatible"
    verdict(
        2,
        ok,
        f"join reproduces the joint set ({matched} operators), normalized "
        f"off-diagonal {rep.max_offdiag_normalized:.12f}, verdict {status}",
    )


def _random_suite_grids(seed=2024, count=100):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        dim = int(rng.integers(2, 7))
        n_times = int(rng.integers(1, 4))
        yield rng, random_decoherent_grid(rng, dim=dim, n_times=n_times)


def test_criterion_3_noncontextuality_suite():
    worst = 0.0
    n_checked = 0
    for rng, grid in _random_suite_grids():
        probs = dict(probabilities(grid))
        hs = enumerate_histories(grid)
        target = hs[int(rng.integers(0, len(hs)))]
        for _ in range(3):
            part = random_partition(rng, hs, keep_singleton=target)
            cg = coarse_grain(grid, part)
            if not cg.report.decoherent:
                continue
            i = next(
                i for i, cls in enumerate(cg.partition.classes)
                if cls.tolist() == [list(target)]
            )
            worst = max(worst, abs(cg.report.probabilities[i] - probs[target]))
            n_checked += 1
    ok = worst <= 1e-12 and n_checked >= 100
    verdict(3, ok, f"{n_checked} coarse-grainings, max probability shift {worst:.3e}")


def test_criterion_4_sum_rule_theorem():
    tol_dec = 1e-8
    worst_ratio = 0.0
    for rng, grid in _random_suite_grids(seed=4096):
        hs = enumerate_histories(grid)
        bound = len(hs) ** 2 * tol_dec
        for _ in range(2):
            v = check_sum_rules(grid, random_partition(rng, hs))
            worst_ratio = max(worst_ratio, v / bound)
        if worst_ratio > 1.0:
            break
    sc = two_slit(8, False)
    v_slit = check_sum_rules(sc.grid, sc.partitions["merge-slits"])
    ok = worst_ratio <= 1.0 and v_slit > 0.05
    verdict(
        4,
        ok,
        f"random-partition violation <= bound (worst ratio {worst_ratio:.3e}); "
        f"two-slit slit-merge violation {v_slit:.6f} > 0.05",
    )


def test_criterion_5_dephasing_decay_law():
    t0 = time.perf_counter()
    worst = 0.0
    slope_ok = True
    for theta in (math.pi / 6, math.pi / 4, math.pi / 2):
        values = []
        for n in range(1, 13):
            sc = spin_environment(n, theta)
            worst = max(worst, abs(sc.numeric_offdiag - abs(math.cos(theta / 2)) ** (2 * n)))
            values.append(sc.numeric_offdiag)
        slope = np.polyfit(np.arange(1, 13), np.log(values), 1)[0]
        expected = 2 * math.log(math.cos(theta / 2))
        slope_ok &= abs(slope - expected) <= 0.01 * abs(expected)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and slope_ok and elapsed < 10.0
    verdict(
        5,
        ok,
        f"|offdiag - cos(theta/2)^(2n)| <= {worst:.3e}, log-linear slopes within 1%, "
        f"{elapsed:.2f}s",
    )


def test_criterion_6_projector_algebra_property_suite():
    rng = np.random.default_rng(6)
    tol = 1e-10
    worst_alg = 0.0
    worst_comp = 0.0
    for _ in range(1000):
        dim = int(rng.integers(2, 9))
        k = int(rng.integers(1, dim))
        vecs = []
        for _ in range(k):
            v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            vecs.append(v / np.linalg.norm(v))
        p = projector_from_span(vecs)
        m = p.matrix
        worst_alg = max(
            worst_alg,
            np.max(np.abs(m - m.conj().T)),
            np.max(np.abs(m @ m - m)),
            np.max(np.abs(m + complement(p).matrix - np.eye(dim))),
        )
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h = Hamiltonian(0.5 * (a + a.conj().T))
        t1, t2 = rng.standard_normal(2)
        e1 = evolve_heisenberg(p, h, t1)
        m1 = e1.matrix
        worst_alg = max(
            worst_alg, np.max(np.abs(m1 - m1.conj().T)), np.max(np.abs(m1 @ m1 - m1))
        )
        two_step = evolve_heisenberg(e1, h, t2).matrix
        one_step = evolve_heisenberg(p, h, t1 + t2).matrix
        worst_comp = max(worst_comp, np.max(np.abs(two_step - one_step)))
    ok = worst_alg <= tol and worst_comp <= tol
    verdict(
        6,
        ok,
        f"1000 constructions: algebra residual {worst_alg:.3e}, "
        f"composition residual {worst_comp:.3e} (tol 1e-10)",
    )


def test_criterion_7_spacetime_suite():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        a = Event(*rng.uniform(-5, 5, size=4))
        b = Event(*rng.uniform(-5, 5, size=4))
        d = rng.standard_normal(3)
        d /= np.linalg.norm(d)
        boost = Boost(tuple(d * rng.uniform(0, 0.99)))
        worst = max(
            worst,
            abs(interval_squared(a, b) - interval_squared(boost_event(a, boost), boost_event(b, boost))),
        )
    both_orders = True
    n_pairs = 0
    while n_pairs < 200:
        a = Event(*rng.uniform(-5, 5, size=4))
        b = Event(*rng.uniform(-5, 5, size=4))
        if interval_squared(a, b) <= 1e-6:
            continue
        n_pairs += 1
        sim = simultaneity_boost(a, b)
        dx = b.position - a.position
        dt = b.t - a.t
        d2 = float(dx @ dx)
        eps = 0.4 * (1 - abs(dt) / math.sqrt(d2))
        unit = dx / math.sqrt(d2)
        fut = happened_relative_to_surface(a, b, Boost(tuple((dt / math.sqrt(d2) - eps) * unit)))
        pst = happened_relative_to_surface(a, b, Boost(tuple((dt / math.sqrt(d2) + eps) * unit)))
        both_orders &= (
            fut == "future_of_S"
            and pst == "past_of_S"
            and happened_relative_to_surface(a, b, sim) == "on_S"
        )
    titan = common_present_check(
        IgusGroup((Igus((0, 0, 0)), Igus((4.2e3, 0, 0))), tau_star=0.1, env_timescale=10.0)
    )
    titan_ok = (not titan.light_time_small) and titan.max_light_time >= 3600.0
    ok = worst <= 1e-10 and both_orders and titan_ok
    verdict(
        7,
        ok,
        f"interval invariance residual {worst:.3e} over 1000 boosts; "
        f"{n_pairs} spacelike pairs show both orders; Earth-Titan fails "
        f"contingency 2 at light time {titan.max_light_time:.0f}s",
    )


def test_criterion_8_determinism(tmp_path):
    scenario = tmp_path / "tb.json"
    sc = three_box("past_A")
    dump_scenario(sc.grid, scenario, data=(sc.data_name, sc.data_time))
    # A second scenario spans several Gram tiles: more than 2 GRAM_TILE histories.
    rng = np.random.default_rng(8)
    big = next(g for g in iter(lambda: random_decoherent_grid(rng, dim=12, n_times=3), None)
               if g.history_count() > 2 * GRAM_TILE)
    tiled = tmp_path / "tiled.json"
    dump_scenario(big, tiled)
    # Its twin under a generic H has every row live: the walk spans several live tiles.
    w = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    generic = HistoryGrid(big.sets, Hamiltonian(w + w.conj().T), big.initial_state)
    live = int(np.sum(decoherence_functional(generic).probabilities >= OFFDIAG_FLOOR))
    assert live > 2 * GRAM_TILE
    mixed = tmp_path / "generic.json"
    dump_scenario(generic, mixed)
    # A span-defined grid under a generic H: its sets take the branch pass through W.
    srng = np.random.default_rng(9)
    span = random_decoherent_grid(srng, dim=12, n_times=3, span=True)
    v = srng.standard_normal((12, 12)) + 1j * srng.standard_normal((12, 12))
    spanned = tmp_path / "spanned.json"
    dump_scenario(HistoryGrid(span.sets, Hamiltonian(v + v.conj().T), span.initial_state), spanned)
    slits = tmp_path / "slits.json"
    slit = two_slit(8, True)
    dump_scenario(slit.grid, slits, {"merge-slits": slit.partitions["merge-slits"]})
    env_base = {**os.environ, "PYTHONHASHSEED": "0"}

    def run(threads, argv):
        env = {
            **env_base,
            "OMP_NUM_THREADS": threads,
            "OPENBLAS_NUM_THREADS": threads,
            "MKL_NUM_THREADS": threads,
        }
        out = subprocess.run(
            [sys.executable, "-m", "dhq", "--format", "json", *argv],
            capture_output=True,
            env=env,
            check=True,
        )
        return out.stdout

    ok = True
    sizes = []
    commands = [
        ["prob", str(scenario)],
        ["prob", str(tiled)],
        ["coarse", str(slits), "--partition", "merge-slits"],
        ["retrodict", str(scenario)],
        ["check", str(mixed)],  # exits 0 whatever its verdict
        ["check", str(spanned)],
    ]
    for argv in commands:
        first = run("1", argv)
        second = run("1", argv)
        multi = run("4", argv)
        doc = json.loads(first)
        decoherent = argv[0] == "check" or all(doc["verdicts"].values())
        ok &= first == second == multi and doc["exit_status"] == 0 and decoherent
        sizes.append(len(first))
    verdict(
        8,
        ok,
        f"JSON reports of prob, coarse, retrodict and check byte-identical across runs and 1 vs 4 "
        f"threads ({sizes[0]} bytes; {big.history_count()} histories, {sizes[1]} bytes; "
        f"coarse {sizes[2]} bytes; retrodict {sizes[3]} bytes; {live} live rows, {sizes[4]} bytes; "
        f"span-defined, {span.history_count()} histories, {sizes[5]} bytes)",
    )
