"""`dhq.spacetime` against the numpy formulas it replaced, kept here as the oracle.

The calculator sums three products in Python floats, left to right; numpy's 3-vector dot
product may fuse them (FMA), so a value can move in its last bits.  Every verdict must be
identical, and every value within ULPS * eps * S of the oracle's, eps = 2^-52, where S is
the value's scale with its conditioning:

- interval s^2 = -(dt)^2 + |dx|^2: S = dt^2 + |dx|^2;
- |v| and a distance: S = the value;
- a boosted coordinate, and the difference of two boosted times: S = g^3 (|t| + |r|) per
  event, since g = (1 - v.v)^(-1/2) carries a last-bit change of v.v as g^2 / 2 relative;
- a simultaneity velocity u = dt / |dx|^2 dx, per component: S = |u|;
- a relative speed w, with w^2 = (|v1 - v2|^2 - |v1 x v2|^2) / (1 - v1.v2)^2:
  S = ((|v1 - v2|^2 + |v1 x v2|^2) / (1 - v1.v2)^2 + w^2 / (1 - v1.v2)) / w.

On the 10^4 seeded pairs below, the largest gap was 1.75 eps S (a simultaneity velocity).
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from dhq import spacetime
from dhq.errors import SuperluminalBoost
from dhq.spacetime import TOL_GEO, Boost, Event, Igus, IgusGroup

ULPS = 4
EPS = math.ulp(1.0)


# The oracle: the numpy formulas of `dhq.spacetime` before it computed with `math` alone.
def interval_squared(a, b):
    dt = b.t - a.t
    try:
        with np.errstate(over="raise", invalid="raise"):
            dx = np.subtract(b.position, a.position)
            s2 = float(-(dt**2) + dx @ dx)
    except (OverflowError, FloatingPointError):
        s2 = math.inf
    if not math.isfinite(s2):
        raise ValueError("the interval between the events overflows the float range")
    return s2


def classify(a, b):
    s2 = interval_squared(a, b)
    if s2 > TOL_GEO:
        return spacetime.SPACELIKE
    future = (b.t - a.t) >= 0.0
    if s2 < -TOL_GEO:
        return spacetime.TIMELIKE_FUTURE if future else spacetime.TIMELIKE_PAST
    return spacetime.NULL_FUTURE if future else spacetime.NULL_PAST


def speed(velocity):
    return float(np.linalg.norm(velocity))


def boost_event(e, velocity):
    """(t, x, y, z) of e in the frame moving at velocity."""
    v = np.array(velocity, dtype=float)
    speed2 = float(v @ v)
    if speed2 == 0.0:
        return (e.t, e.x, e.y, e.z)
    g = 1.0 / math.sqrt(1.0 - speed2)
    r = np.array(e.position, dtype=float)
    vr = float(v @ r)
    t_p = g * (e.t - vr)
    r_p = r + ((g - 1.0) * vr / speed2 - g * e.t) * v
    return (t_p, *map(float, r_p))


def happened_relative_to_surface(a, b, velocity):
    dt = boost_event(b, velocity)[0] - boost_event(a, velocity)[0]
    if abs(dt) <= TOL_GEO:
        return spacetime.ON_S
    return spacetime.FUTURE_OF_S if dt > 0 else spacetime.PAST_OF_S


def simultaneity_velocity(a, b):
    dt = b.t - a.t
    dx = np.subtract(b.position, a.position)
    return tuple(map(float, dt / float(dx @ dx) * dx))


def relative_speed(v1, v2):
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    dot = float(v1 @ v2)
    diff = v1 - v2
    cr = np.cross(v1, v2)
    num = float(diff @ diff) - float(cr @ cr)
    den = (1.0 - dot) ** 2
    if den <= 0.0:
        raise SuperluminalBoost("relative speed undefined at or above c")
    return math.sqrt(max(0.0, num / den))


def distance(p, q):
    with np.errstate(over="ignore"):
        return float(np.linalg.norm(np.subtract(p, q)))


def assert_close(new, old, scale, what):
    assert abs(new - old) <= ULPS * EPS * scale, f"{what}: {new!r} != {old!r} (scale {scale:.3e})"


def boost_scale(velocity, *events):
    g = 1.0 / math.sqrt(1.0 - sum(c * c for c in velocity))
    return g**3 * sum(abs(e.t) + math.hypot(*e.position) for e in events)


def relative_speed_scale(v1, v2, w):
    dot = sum(p * q for p, q in zip(v1, v2))
    diff2 = sum((p - q) ** 2 for p, q in zip(v1, v2))
    (x1, y1, z1), (x2, y2, z2) = v1, v2
    cr2 = (y1 * z2 - z1 * y2) ** 2 + (z1 * x2 - x1 * z2) ** 2 + (x1 * y2 - y1 * x2) ** 2
    return ((diff2 + cr2) / (1 - dot) ** 2 + w * w / (1 - dot)) / w if w else 0.0


def check_pair(a, b, velocity, other):
    """Every value and verdict the calculator gives for a, b, a boost and two velocities."""
    assert spacetime.classify(a, b) == classify(a, b)
    dt = b.t - a.t
    assert_close(spacetime.interval_squared(a, b), interval_squared(a, b),
                 dt * dt + math.dist(a.position, b.position) ** 2, "interval")
    boost = Boost(velocity)
    assert_close(boost.speed, speed(velocity), speed(velocity), "speed")
    new = [spacetime.boost_event(e, boost) for e in (a, b)]
    old = [boost_event(e, boost.velocity) for e in (a, b)]
    for e, n, o in zip((a, b), new, old):
        for nc, oc in zip((n.t, n.x, n.y, n.z), o):
            assert_close(nc, oc, boost_scale(boost.velocity, e), "boosted coordinate")
    assert_close(new[1].t - new[0].t, old[1][0] - old[0][0], boost_scale(boost.velocity, a, b),
                 "delta_t_boosted")
    assert (spacetime.happened_relative_to_surface(a, b, boost)
            == happened_relative_to_surface(a, b, boost.velocity))
    w = relative_speed(velocity, other)
    assert_close(spacetime.relative_speed(velocity, other), w,
                 relative_speed_scale(velocity, other, w), "relative speed")
    if spacetime.interval_squared(a, b) > 1e-6:
        u = simultaneity_velocity(a, b)
        for n, o in zip(spacetime.simultaneity_boost(a, b).velocity, u):
            assert_close(n, o, math.hypot(*u), "simultaneity velocity")


def random_velocity(rng):
    d = rng.standard_normal(3)
    d /= np.linalg.norm(d)
    s = rng.uniform(0.0, 0.99) if rng.random() < 0.5 else 1.0 - 10 ** -rng.uniform(2, 12)
    return tuple(map(float, d * s))


def test_values_and_verdicts_match_the_numpy_formulas_on_seeded_pairs():
    rng = np.random.default_rng(3701)
    for _ in range(10_000):
        a, b = (Event(*rng.uniform(-1, 1, 4) * 10 ** rng.uniform(-3, 6)) for _ in "ab")
        check_pair(a, b, random_velocity(rng), random_velocity(rng))
        p, q = (rng.uniform(-1, 1, 3) * 10 ** rng.uniform(-3, 150) for _ in "pq")
        d = distance(p, q)
        new = spacetime.common_present_check(IgusGroup((Igus(p), Igus(q)), 1.0, 10.0))
        assert_close(new.max_light_time, d, d, "distance")


def near_null(s2, dims, flip):
    """A pair whose interval is s2 up to about 1e-15 (at a separation of order 1)."""
    dx = (0.6, 0.0, 0.0) if dims == 1 else (0.36, -0.48, 0.08)
    dt = math.copysign(math.sqrt(sum(c * c for c in dx) - s2), -1.0 if flip else 1.0)
    a = Event(0.25, -1.5, 2.0, 0.75)
    return a, Event(a.t + dt, *(p + c for p, c in zip(a.position, dx)))


BOUNDARY_PAIRS = {
    f"{'+' if sign > 0 else '-'}tol-{side}-{dims}d{'-past' if flip else ''}": near_null(
        sign * TOL_GEO * (1 + 1e-3 if side == "out" else 1 - 1e-3), dims, flip)
    for sign in (1, -1) for side in ("out", "in") for dims in (1, 3) for flip in (False, True)
}
BOUNDARY_PAIRS["same-event"] = (Event(1.5, -2.0, 0.25, 3.0),) * 2
BOUNDARY_SPEEDS = {"1-2^-53 along x": (1 - 2**-53, 0.0, 0.0),
                   "1-1e-12": tuple(c * (1 - 1e-12) for c in (0.6, -0.48, 0.64)),
                   "0.9999992": (0.0, 0.6, 0.799999), "0": (0.0, 0.0, 0.0)}


@pytest.mark.parametrize("velocity", BOUNDARY_SPEEDS.values(), ids=BOUNDARY_SPEEDS)
@pytest.mark.parametrize("pair", BOUNDARY_PAIRS.values(), ids=BOUNDARY_PAIRS)
def test_boundary_cases_keep_their_verdicts(pair, velocity):
    # Pairs within 1e-3 of +-TOL_GEO on both sides, boosts near c and at rest.
    check_pair(*pair, velocity, (0.0, 0.0, 0.9))


@pytest.mark.parametrize("make, error, message", [
    (lambda: spacetime.interval_squared(Event(-1e200, 0.0), Event(1e200, 1e200)), ValueError,
     "the interval between the events overflows the float range"),
    (lambda: spacetime.classify(Event(0.0, 0.0), Event(0.0, 1e200, -1e200, 1e200)), ValueError,
     "the interval between the events overflows the float range"),
    (lambda: spacetime.common_present_check(IgusGroup(
        (Igus((1e200, 1e200, 1e200)), Igus((-1e200, 0.0, 0.0))), 1.0, 10.0)), ValueError,
     "the distance between IGUS 0 and 1 overflows the float range"),
    (lambda: Boost((0.6, 0.8, 0.0)), SuperluminalBoost, "|v| = 1.0 >= 1"),
    (lambda: Boost((1e200, 0.0, 0.0)), SuperluminalBoost, "|v| = inf >= 1"),
    (lambda: Igus((0, 0, 0), (0.0, 0.6, 0.8)), SuperluminalBoost,
     "IGUS velocity must satisfy |v| < 1"),
    (lambda: spacetime.relative_speed((1.0, 0.0, 0.0), (1.0, 0.0, 0.0)), SuperluminalBoost,
     "relative speed undefined at or above c"),
])
def test_refusals_keep_their_messages(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert str(info.value) == message


def test_the_oracle_refuses_where_the_calculator_does():
    # The overflow and superluminal refusals above, by the oracle's formulas.
    with pytest.raises(ValueError, match="overflows"):
        interval_squared(Event(-1e200, 0.0), Event(1e200, 1e200))
    with pytest.raises(ValueError, match="overflows"):
        interval_squared(Event(0.0, 0.0), Event(0.0, 1e200, -1e200, 1e200))
    assert distance((1e200, 1e200, 1e200), (-1e200, 0.0, 0.0)) == math.inf
    assert speed((0.6, 0.8, 0.0)) >= 1.0
    with np.errstate(over="ignore"):
        assert speed((1e200, 0.0, 0.0)) == math.inf
    with pytest.raises(SuperluminalBoost):
        relative_speed((1.0, 0.0, 0.0), (1.0, 0.0, 0.0))


def test_a_speed_within_rounding_of_c_follows_the_correctly_rounded_norm():
    # The one verdict that can move: a velocity whose |v| lies within half an ulp of 1.
    # For (0.28, 0.96, 0), |v|^2 is 1 - 5.3e-17 exactly, and |v| rounds to 1.0.  The plain
    # sum gives that, and the boost is refused; a fused dot product (numpy's, with an FMA
    # BLAS kernel) gives 0.9999999999999999, and the oracle accepts it.
    v = (0.28, 0.96, 0.0)
    exact = sum(Fraction(c) ** 2 for c in v)
    assert exact < 1 and math.sqrt(float(exact)) == 1.0
    with pytest.raises(SuperluminalBoost, match=r"\|v\| = 1.0 >= 1"):
        Boost(v)
