"""Flat-spacetime causal structure: intervals, boosts, simultaneity surfaces.

Units: c = 1, times in seconds, distances in light-seconds.  The future is
the direction of increasing t.  Null classification uses the absolute
tolerance TOL_GEO on the interval s^2 = -(dt)^2 + |dx|^2.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SuperluminalBoost
from .values import FrozenValue

TOL_GEO = 1e-9

# Engine policy for the common-present contingencies ("small compared to"
# is unquantified in relativity itself); always echoed in reports.
V_MAX_DEFAULT = 0.01
RATIO_FACTOR_DEFAULT = 0.1

TIMELIKE_FUTURE = "timelike_future"
TIMELIKE_PAST = "timelike_past"
NULL_FUTURE = "null_future"
NULL_PAST = "null_past"
SPACELIKE = "spacelike"


class Event(FrozenValue):
    """A spacetime event (t, x, y, z)."""

    _fields = ("t", "x", "y", "z")

    def __init__(self, t: float, x: float, y: float = 0.0, z: float = 0.0):
        self._set(t=t, x=x, y=y, z=z)
        for c in (t, x, y, z):
            if not math.isfinite(c):
                raise ValueError("event coordinates must be finite")

    @property
    def position(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)


class Boost(FrozenValue):
    """Velocity of the primed frame relative to the lab frame, |v| < 1."""

    _fields = ("velocity",)

    def __init__(self, velocity: tuple[float, float, float]):
        v = tuple(float(c) for c in velocity)
        if len(v) != 3:
            raise ValueError("boost velocity must have 3 components")
        if not all(map(math.isfinite, v)):
            raise ValueError(f"boost velocity must be finite, got {v}")
        self._set(velocity=v)
        if self.speed >= 1.0:
            raise SuperluminalBoost(f"|v| = {self.speed} >= 1")

    @property
    def speed(self) -> float:
        return float(np.linalg.norm(self.velocity))


def interval_squared(a: Event, b: Event) -> float:
    """s^2 = -(dt)^2 + |dx|^2; ValueError when it overflows the float range."""
    dt = b.t - a.t
    try:
        with np.errstate(over="raise", invalid="raise"):
            dx = b.position - a.position
            s2 = float(-(dt**2) + dx @ dx)
    except (OverflowError, FloatingPointError):
        s2 = math.inf
    if not math.isfinite(s2):
        raise ValueError("the interval between the events overflows the float range")
    return s2


def classify(a: Event, b: Event) -> str:
    """Causal relation of b with respect to a."""
    s2 = interval_squared(a, b)
    if s2 > TOL_GEO:
        return SPACELIKE
    future = (b.t - a.t) >= 0.0
    if s2 < -TOL_GEO:
        return TIMELIKE_FUTURE if future else TIMELIKE_PAST
    return NULL_FUTURE if future else NULL_PAST


def boost_event(e: Event, b: Boost) -> Event:
    """Standard Lorentz transformation into the boosted frame."""
    v = np.array(b.velocity, dtype=float)
    speed2 = float(v @ v)  # below 1: Boost.speed is its square root
    if speed2 == 0.0:
        return e
    g = 1.0 / math.sqrt(1.0 - speed2)
    r = e.position
    vr = float(v @ r)
    t_p = g * (e.t - vr)
    r_p = r + ((g - 1.0) * vr / speed2 - g * e.t) * v
    return Event(t_p, r_p[0], r_p[1], r_p[2])


PAST_OF_S = "past_of_S"
ON_S = "on_S"
FUTURE_OF_S = "future_of_S"


def happened_relative_to_surface(a: Event, b: Event, surface: Boost) -> str:
    """Place b relative to the constant-t' surface through a.

    The surface is the simultaneity plane of the boosted frame; b lands in
    the surface's past, on it, or in its future by the sign of t'(b)-t'(a).
    """
    dt = boost_event(b, surface).t - boost_event(a, surface).t
    if abs(dt) <= TOL_GEO:
        return ON_S
    return FUTURE_OF_S if dt > 0 else PAST_OF_S


def simultaneity_boost(a: Event, b: Event) -> Boost:
    """A boost whose simultaneity surface contains both spacelike events."""
    dt = b.t - a.t
    dx = b.position - a.position
    d2 = float(dx @ dx)
    if interval_squared(a, b) <= TOL_GEO:
        raise ValueError("events are not spacelike separated")
    return Boost(tuple(dt / d2 * dx))


def relative_speed(v1, v2) -> float:
    """Special-relativistic relative speed of two velocities (c = 1)."""
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    dot = float(v1 @ v2)
    diff = v1 - v2
    # |v_rel|^2 = [ (v1-v2)^2 - (v1 x v2)^2 ] / (1 - v1.v2)^2
    cr = np.cross(v1, v2)
    num = float(diff @ diff) - float(cr @ cr)
    den = (1.0 - dot) ** 2
    if den <= 0.0:
        raise SuperluminalBoost("relative speed undefined at or above c")
    return math.sqrt(max(0.0, num / den))


class Igus(FrozenValue):
    """Information gathering and utilizing system: a position and velocity."""

    _fields = ("position", "velocity")

    def __init__(self, position: tuple[float, float, float],
                 velocity: tuple[float, float, float] = (0.0, 0.0, 0.0)):
        pos = tuple(float(c) for c in position)
        vel = tuple(float(c) for c in velocity)
        if not all(map(math.isfinite, pos + vel)):
            raise ValueError("IGUS position and velocity must be finite")
        self._set(position=pos, velocity=vel)
        if float(np.linalg.norm(vel)) >= 1.0:
            raise SuperluminalBoost("IGUS velocity must satisfy |v| < 1")


class IgusGroup(FrozenValue):
    """IGUSes with their perception timescale and the environment's variation timescale (s)."""

    _fields = ("iguses", "tau_star", "env_timescale")

    def __init__(self, iguses: tuple[Igus, ...], tau_star: float, env_timescale: float):
        self._set(iguses=tuple(iguses), tau_star=tau_star, env_timescale=env_timescale)
        if not self.iguses:
            raise ValueError("IGUS group must be nonempty")
        if not (0 < self.tau_star < math.inf and 0 < self.env_timescale < math.inf):
            raise ValueError("timescales must be positive and finite")


class ContingencyReport(FrozenValue):
    """Outcome of the three common-present contingencies: slow_relative_motion (1),
    light_time_small (2) and perception_fast (3)."""

    _fields = ("max_relative_speed", "max_light_time", "tau_star", "env_timescale", "v_max",
               "ratio_factor", "slow_relative_motion", "light_time_small", "perception_fast")

    def __init__(self, max_relative_speed: float, max_light_time: float, tau_star: float,
                 env_timescale: float, v_max: float, ratio_factor: float,
                 slow_relative_motion: bool, light_time_small: bool, perception_fast: bool):
        self._set(max_relative_speed=max_relative_speed, max_light_time=max_light_time,
                  tau_star=tau_star, env_timescale=env_timescale, v_max=v_max,
                  ratio_factor=ratio_factor, slow_relative_motion=slow_relative_motion,
                  light_time_small=light_time_small, perception_fast=perception_fast)

    @property
    def common_present(self) -> bool:
        return self.slow_relative_motion and self.light_time_small and self.perception_fast


def common_present_check(
    group: IgusGroup,
    v_max: float = V_MAX_DEFAULT,
    ratio_factor: float = RATIO_FACTOR_DEFAULT,
) -> ContingencyReport:
    """Check the three contingencies for an approximate shared present.

    (1) pairwise relative speeds <= v_max; (2) pairwise light travel times
    <= ratio_factor * tau_star; (3) tau_star <= ratio_factor * the
    environment's variation timescale.  A single IGUS passes vacuously.
    """
    if not (math.isfinite(v_max) and math.isfinite(ratio_factor)):
        raise ValueError("v_max and ratio_factor must be finite")
    if v_max < 0 or ratio_factor < 0:  # 0 stays allowed
        raise ValueError("v_max and ratio_factor must not be negative")
    igs = group.iguses
    max_speed = 0.0
    max_light = 0.0
    for i in range(len(igs)):
        for j in range(i + 1, len(igs)):
            max_speed = max(max_speed, relative_speed(igs[i].velocity, igs[j].velocity))
            with np.errstate(over="ignore"):
                d = float(np.linalg.norm(np.subtract(igs[i].position, igs[j].position)))
            if not math.isfinite(d):
                raise ValueError(f"the distance between IGUS {i} and {j} overflows the float range")
            max_light = max(max_light, d)
    return ContingencyReport(
        max_relative_speed=max_speed,
        max_light_time=max_light,
        tau_star=group.tau_star,
        env_timescale=group.env_timescale,
        v_max=v_max,
        ratio_factor=ratio_factor,
        slow_relative_motion=max_speed <= v_max,
        light_time_small=max_light <= ratio_factor * group.tau_star,
        perception_fast=group.tau_star <= ratio_factor * group.env_timescale,
    )
