import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dhq
from dhq.errors import SuperluminalBoost
from dhq.spacetime import (
    Boost,
    Event,
    Igus,
    IgusGroup,
    boost_event,
    classify,
    common_present_check,
    happened_relative_to_surface,
    interval_squared,
    relative_speed,
    simultaneity_boost,
)


def along_x(vx: float) -> Boost:
    return Boost((float(vx), 0.0, 0.0))


def random_event(rng, scale=5.0):
    t, x, y, z = rng.uniform(-scale, scale, size=4)
    return Event(t, x, y, z)


def random_boost(rng, vmax=0.99):
    d = rng.standard_normal(3)
    d /= np.linalg.norm(d)
    return Boost(tuple(d * rng.uniform(0.0, vmax)))


def test_classify_basics():
    o = Event(0, 0, 0, 0)
    assert classify(o, Event(0, 1, 0, 0)) == "spacelike"
    assert classify(o, Event(2, 1, 0, 0)) == "timelike_future"
    assert classify(o, Event(-2, 1, 0, 0)) == "timelike_past"
    assert classify(o, Event(1, 1, 0, 0)) == "null_future"
    assert classify(o, Event(-1, 0, 1, 0)) == "null_past"


def test_spacetime_imports_no_numpy():
    # The calculator is plain float arithmetic: a child that imports it and classifies a
    # pair loads no numpy module.
    code = ("import sys; from dhq.spacetime import Event, classify; "
            "print(classify(Event(0, 0), Event(2, 1)), "
            "[m for m in sys.modules if m.split('.')[0] == 'numpy'])")
    env = dict(os.environ, PYTHONPATH=str(Path(dhq.__file__).parent.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=60)
    assert (out.returncode, out.stdout, out.stderr) == (0, "timelike_future []\n", "")


def test_boost_identity():
    e = Event(1.0, 2.0, 3.0, 4.0)
    out = boost_event(e, Boost((0.0, 0.0, 0.0)))
    assert out == e


def test_boost_rejects_superluminal():
    with pytest.raises(SuperluminalBoost):
        Boost((1.0, 0.0, 0.0))
    with pytest.raises(SuperluminalBoost):
        Boost((0.8, 0.8, 0.0))


@pytest.mark.parametrize("v", [(math.nan, 0.0, 0.0), (0.5, math.nan, 0.0), (0.0, 0.0, math.inf)])
def test_boost_rejects_nonfinite_velocity(v):
    # |v| = NaN compared False with 1, so a NaN component used to pass.
    with pytest.raises(ValueError, match="boost velocity must be finite"):
        Boost(v)


def test_temporal_order_of_spacelike_pair_flips():
    a = Event(0, 0, 0, 0)
    b = Event(0, 1, 0, 0)
    g = 1 / math.sqrt(1 - 0.25)
    dt_plus = boost_event(b, along_x(+0.5)).t - boost_event(a, along_x(+0.5)).t
    dt_minus = boost_event(b, along_x(-0.5)).t - boost_event(a, along_x(-0.5)).t
    assert dt_plus == pytest.approx(-g / 2, abs=1e-12)
    assert dt_minus == pytest.approx(+g / 2, abs=1e-12)


def test_interval_invariance_random_boosts():
    rng = np.random.default_rng(23)
    for _ in range(200):
        a, b = random_event(rng), random_event(rng)
        s2 = interval_squared(a, b)
        bo = random_boost(rng)
        s2p = interval_squared(boost_event(a, bo), boost_event(b, bo))
        assert abs(s2 - s2p) <= 1e-10


def test_classification_boost_invariant():
    rng = np.random.default_rng(29)
    for _ in range(100):
        a, b = random_event(rng), random_event(rng)
        if abs(interval_squared(a, b)) < 1e-6:
            continue  # stay clear of the null tolerance window
        c0 = classify(a, b)
        bo = random_boost(rng, vmax=0.9)
        assert classify(boost_event(a, bo), boost_event(b, bo)) == c0


def test_timelike_order_never_flips():
    rng = np.random.default_rng(31)
    n = 0
    while n < 60:
        a, b = random_event(rng), random_event(rng)
        if interval_squared(a, b) >= -1e-6:
            continue
        n += 1
        sign = math.copysign(1.0, b.t - a.t)
        for _ in range(10):
            bo = random_boost(rng)
            dt = boost_event(b, bo).t - boost_event(a, bo).t
            assert math.copysign(1.0, dt) == sign


def test_spacelike_pairs_admit_both_orders_and_simultaneity():
    rng = np.random.default_rng(37)
    n = 0
    while n < 60:
        a, b = random_event(rng), random_event(rng)
        if interval_squared(a, b) <= 1e-6:
            continue
        n += 1
        sim = simultaneity_boost(a, b)
        assert happened_relative_to_surface(a, b, sim) == "on_S"
        dx = np.subtract(b.position, a.position)
        dt = b.t - a.t
        d2 = float(dx @ dx)
        eps = 0.4 * (1 - abs(dt) / math.sqrt(d2))
        unit = dx / math.sqrt(d2)
        v_fut = (dt / math.sqrt(d2) - eps) * unit
        v_pst = (dt / math.sqrt(d2) + eps) * unit
        assert happened_relative_to_surface(a, b, Boost(tuple(v_fut))) == "future_of_S"
        assert happened_relative_to_surface(a, b, Boost(tuple(v_pst))) == "past_of_S"


def test_surface_placement_agrees_with_classify_for_timelike():
    rng = np.random.default_rng(41)
    n = 0
    while n < 40:
        a, b = random_event(rng), random_event(rng)
        if interval_squared(a, b) >= -1e-6:
            continue
        n += 1
        want = "future_of_S" if classify(a, b) == "timelike_future" else "past_of_S"
        for _ in range(5):
            assert happened_relative_to_surface(a, b, random_boost(rng)) == want


def test_same_event_on_surface():
    a = Event(1, 2, 3, 4)
    assert happened_relative_to_surface(a, a, along_x(0.3)) == "on_S"


def test_relative_speed():
    assert relative_speed((0, 0, 0), (0.5, 0, 0)) == pytest.approx(0.5)
    # colinear composition: (0.5 + 0.5) / (1 + 0.25)
    assert relative_speed((0.5, 0, 0), (-0.5, 0, 0)) == pytest.approx(0.8)


def test_common_present_earth_surface_scale():
    igs = (Igus((0, 0, 0)), Igus((0.004, 0, 0)))
    out = common_present_check(IgusGroup(igs, tau_star=0.1, env_timescale=10.0))
    assert out.slow_relative_motion
    assert out.light_time_small
    assert out.perception_fast
    assert out.common_present


def test_common_present_earth_titan_fails_light_time():
    igs = (Igus((0, 0, 0)), Igus((4.2e3, 0, 0)))
    out = common_present_check(IgusGroup(igs, tau_star=0.1, env_timescale=10.0))
    assert out.max_light_time >= 3600.0
    assert not out.light_time_small
    assert out.slow_relative_motion and out.perception_fast
    assert not out.common_present


def test_single_igus_passes_vacuously():
    out = common_present_check(IgusGroup((Igus((0, 0, 0), (0.9, 0, 0)),), 0.1, 10.0))
    assert out.common_present


@pytest.mark.parametrize("kwargs", [{"v_max": -1.0}, {"ratio_factor": -1.0},
                                    {"v_max": -1e-300, "ratio_factor": 0.1}])
def test_negative_threshold_refused(kwargs):
    # A single IGUS used to fail contingency 1 at v_max = -1, against its vacuous pass.
    group = IgusGroup((Igus((0, 0, 0)),), 0.1, 10.0)
    with pytest.raises(ValueError, match="v_max and ratio_factor must not be negative"):
        common_present_check(group, **kwargs)


def test_contingency_thresholds_echoed():
    out = common_present_check(
        IgusGroup((Igus((0, 0, 0)),), 0.1, 10.0), v_max=0.02, ratio_factor=0.2
    )
    assert out.v_max == 0.02
    assert out.ratio_factor == 0.2
