"""Command-line front end.

Exit codes: 0 success, 1 input or validation error, 2 a probability-style
command was run on a set that fails decoherence (the report is still
emitted so the interference can be inspected).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from pathlib import Path
from typing import NoReturn

import numpy as np

from . import realms
from .decoherence import (
    TOL_DEC_DEFAULT,
    check_sum_rules,  # noqa: F401 - unused, but perfbench/tracing.py rebinds it
    decoherence_functional,
    validate_partition,
)
from .errors import DhqError, InvalidPartition, NotDecoherent, ParseError, ValidationError
from .histories import (
    enumerate_histories,  # noqa: F401 - unused, but perfbench/tracing.py rebinds it
)
from .linalg import TOL_ALG, check_rows_size
from .report import Report
from .scenario import (
    Scenario, dump_scenario, is_number, locate_alternative, parse_data_ref, parse_scenario,
)


def _add_scenario(p) -> None:
    p.add_argument("scenario")


def _add_condition(p) -> None:
    p.add_argument("scenario")
    p.add_argument("--given", required=True, metavar="NAME@T")
    p.add_argument("--target", required=True, metavar="NAME@T")


def _add_conditioned(p) -> None:
    p.add_argument("scenario")
    p.add_argument("--data", metavar="NAME@T",
                   help="override the scenario's data_projector reference")


def _add_coarse(p) -> None:
    p.add_argument("scenario")
    p.add_argument("--partition", required=True)


def _add_compat(p) -> None:
    p.add_argument("scenario_a")
    p.add_argument("scenario_b")


def _add_model(p) -> None:
    from . import models

    msub = p.add_subparsers(dest="model", required=True)
    m = msub.add_parser("three-box")
    m.add_argument("--realm", choices=models.THREE_BOX_KINDS, default="past_A")
    m = msub.add_parser("two-slit")
    m.add_argument("--bins", type=int, default=8)
    m.add_argument("--environment", action="store_true",
                   help="include the which-slit record ancilla")
    m = msub.add_parser("spin-env")
    m.add_argument("--n-env", type=int, default=6)
    m.add_argument("--theta", type=float, default=1.5707963267948966)
    for m in msub.choices.values():
        m.add_argument("--dump", nargs="?", const="-", default=None, metavar="PATH")


def _add_spacetime(p) -> None:
    from . import spacetime

    ssub = p.add_subparsers(dest="spacetime_cmd", required=True)
    s = ssub.add_parser("classify")
    s.add_argument("--a", required=True, metavar="T,X,Y,Z")
    s.add_argument("--b", required=True, metavar="T,X,Y,Z")
    s.add_argument("--events", metavar="FILE", help="JSON file of named events")
    s = ssub.add_parser("order")
    s.add_argument("--a", required=True, metavar="T,X,Y,Z")
    s.add_argument("--b", required=True, metavar="T,X,Y,Z")
    s.add_argument("--v", required=True, metavar="VX[,VY,VZ]",
                   help="boost velocity defining the simultaneity surface")
    s.add_argument("--events", metavar="FILE")
    s = ssub.add_parser("present")
    s.add_argument("--igus", action="append", required=True, metavar="X,Y,Z[:VX,VY,VZ]",
                   help="repeatable: IGUS position, optionally :velocity")
    s.add_argument("--tau-star", type=float, required=True)
    s.add_argument("--env-timescale", type=float, required=True)
    s.add_argument("--v-max", type=float, default=spacetime.V_MAX_DEFAULT)
    s.add_argument("--ratio-factor", type=float, default=spacetime.RATIO_FACTOR_DEFAULT)


class _Unsure(Exception):
    """A one-command parser met help or an error: the full parser must answer."""


class _OneCommandParser(argparse.ArgumentParser):
    """A parser that prints nothing: help and errors raise `_Unsure` instead."""

    def error(self, message):
        raise _Unsure

    def print_help(self, file=None):
        raise _Unsure


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The `dhq` argument parser, with every command.

    Given `command`, a parser of that command alone (with its own subcommands) that
    prints nothing: help and every error raise `_Unsure`, to be answered by the full
    parser.  Building the one parser a process runs costs a fraction of all fifteen.
    """
    parser = (argparse.ArgumentParser if command is None else _OneCommandParser)(
        prog="dhq",
        description="Decoherent-histories engine: probabilities, realm checks, "
        "and special-relativistic causal structure.",
    )
    parser.add_argument("--tol-dec", type=float, default=TOL_DEC_DEFAULT,
                        help="normalized off-diagonal threshold for decoherence")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name, (help_text, add_arguments, _) in COMMANDS.items():
        if command in (None, name):
            add_arguments(sub.add_parser(name, help=help_text))
    return parser


def _echo(argv) -> str:
    return "dhq " + " ".join(argv)


def _floats(text: str, flag: str) -> list[float]:
    try:
        return [float(c) for c in text.split(",")]
    except ValueError as err:
        raise ParseError(f"argument {flag}: {err}") from None


def _parse_event(text: str, named: dict, flag: str) -> spacetime.Event:
    from . import spacetime

    if text in named:
        return named[text]
    coords = _floats(text, flag)
    if len(coords) != 4:
        raise ParseError(f"event {text!r} needs 4 coordinates t,x,y,z")
    return spacetime.Event(*coords)


def _load_named_events(path) -> dict[str, spacetime.Event]:
    from . import spacetime

    if path is None:
        return {}
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError, RecursionError) as err:  # ValueError: UTF-8, JSON, long ints
        raise ParseError(f"cannot read events file: {err}", str(path)) from None
    events = doc.get("events", doc) if isinstance(doc, dict) else doc
    if not isinstance(events, dict):
        raise ParseError("events file must map names to [t,x,y,z]", str(path))
    named = {}
    for name, coords in events.items():
        if not (isinstance(coords, list) and len(coords) == 4 and all(map(is_number, coords))):
            raise ParseError(f"event {name!r} must be a list of 4 numbers t,x,y,z", str(path))
        try:
            named[name] = spacetime.Event(*coords)
        except (OverflowError, ValueError) as err:
            raise ParseError(f"event {name!r}: {err}", str(path)) from None
    return named


def _parse_velocity(text: str, flag: str) -> tuple:
    comps = _floats(text, flag)
    if len(comps) == 1:
        comps += [0.0, 0.0]
    if len(comps) != 3:
        raise ParseError(f"velocity {text!r} needs 1 or 3 components")
    return tuple(comps)


def _cmd_check(args, rep: Report) -> None:
    sc = parse_scenario(args.scenario)
    dec = decoherence_functional(sc.grid, tol_dec=args.tol_dec)
    rep.attach_decoherence(dec)
    if args.cmd == "prob" and not dec.decoherent:
        raise NotDecoherent("probabilities requested for a non-decoherent set", dec)


def _cmd_condition(args, rep: Report) -> None:
    sc = parse_scenario(args.scenario)
    g_name, g_time = parse_data_ref(args.given, "--given")
    t_name, t_time = parse_data_ref(args.target, "--target")
    grid = sc.grid
    gk, gi = locate_alternative(grid, g_name, g_time, "--given")
    tk, ti = locate_alternative(grid, t_name, t_time, "--target")
    check_rows_size(grid.history_count(), grid.dim)  # before the histories are indexed
    index = np.indices(grid.shape)  # each history's alternative at every time
    target, given = np.argwhere(index[tk] == ti), np.argwhere(index[gk] == gi)
    p = realms.conditional_probability(grid, target, given, tol_dec=args.tol_dec)
    rep.add_table("conditional probability", [f"p({t_name}@{t_time:g} | {g_name}@{g_time:g})"], [p])


def _cmd_conditioned(args, rep: Report) -> None:
    """`retrodict` and `predict`, each by the `realms` function of its name."""
    sc = parse_scenario(args.scenario)
    if args.data:
        name, time = parse_data_ref(args.data, "--data")
        locate_alternative(sc.grid, name, time, "--data")
    elif sc.has_data:
        name, time = sc.data_name, sc.data_time
    else:
        raise ValidationError("scenario has no data_projector; pass --data NAME@T", "--data")
    _, labels, p = zip(*getattr(realms, args.cmd)(sc.grid, name, time, tol_dec=args.tol_dec))
    rep.add_table(f"{args.cmd}ed probabilities given {name}@{time:g}", labels, p)


def _cmd_coarse(args, rep: Report) -> None:
    sc = parse_scenario(args.scenario)
    if args.partition not in sc.partitions:
        raise ValidationError(
            f"no partition named {args.partition!r} in scenario "
            f"(available: {sorted(sc.partitions)})",
            "/partitions",
        )
    n = list(sc.partitions).index(args.partition)  # its index in the file
    try:
        cg = realms.coarse_grain(sc.grid, sc.partitions[args.partition], tol_dec=args.tol_dec)
    except InvalidPartition as err:
        raise ValidationError(str(err), f"/partitions/{n}") from None
    rep.attach_decoherence(cg.report, prefix="coarse")
    rep.scalars["max_sum_rule_violation"] = cg.max_sum_rule_violation


def _cmd_compat(args, rep: Report) -> None:
    sa = parse_scenario(args.scenario_a)
    sb = parse_scenario(args.scenario_b)
    realms.check_joinable(sa.grid, sb.grid)  # before either realm's decoherence pass
    ra = realms.Realm.from_grid(sa.grid, tol_dec=args.tol_dec)
    rb = realms.Realm.from_grid(sb.grid, tol_dec=args.tol_dec)
    verdict = realms.check_compatibility(ra, rb, tol_dec=args.tol_dec)
    rep.verdicts["compatibility"] = verdict.status
    rep.notes.append(verdict.detail)
    if verdict.witness_report is not None:
        rep.attach_decoherence(verdict.witness_report, prefix="join")


def _cmd_model(args, rep: Report) -> None:
    from . import models

    if args.dump == "":
        raise ParseError("argument --dump: PATH must not be empty")
    if args.model == "three-box":
        sc = models.three_box(args.realm)
        rep.verdicts["realm_kind"] = args.realm
    elif args.model == "two-slit":
        sc = models.two_slit(args.bins, args.environment)
        rep.verdicts["with_environment"] = args.environment
    else:  # reported from its state vector; the dense grid is built only for a dump
        spin = models.spin_environment(args.n_env, args.theta)
        rep.scalars["predicted_offdiag_normalized"] = spin.predicted_offdiag
        rep.scalars["numeric_offdiag_normalized"] = spin.numeric_offdiag
        rep.add_table("history probabilities (state vector)", spin.history_labels, spin.probabilities)
        if args.dump is None:
            return
        sc = Scenario(spin.grid)
    if args.dump is not None:
        data = (sc.data_name, sc.data_time) if sc.has_data else None
        text = dump_scenario(sc.grid, None if args.dump == "-" else args.dump, sc.partitions, data)
        if args.dump == "-":
            rep.raw_output = text + "\n"
        else:
            rep.notes.append(f"scenario written to {args.dump}")
        return
    dec = decoherence_functional(sc.grid, tol_dec=args.tol_dec)
    rep.attach_decoherence(dec)
    for partition in sc.partitions.values():
        class_ids = validate_partition(partition.classes, sc.grid.shape)
        cg = realms.coarse_report(sc.grid, dec, partition, class_ids)
        rep.scalars["max_sum_rule_violation"] = cg.max_sum_rule_violation


def _cmd_spacetime(args, rep: Report) -> None:
    from . import spacetime

    if args.spacetime_cmd != "present":  # classify, or order: parsed in full before classifying
        named = _load_named_events(args.events)
        a = _parse_event(args.a, named, "--a")
        b = _parse_event(args.b, named, "--b")
        order = args.spacetime_cmd == "order"
        boost = spacetime.Boost(_parse_velocity(args.v, "--v")) if order else None
        rep.verdicts["classification"] = spacetime.classify(a, b)
        if order:
            rep.verdicts["b_relative_to_surface"] = spacetime.happened_relative_to_surface(
                a, b, boost
            )
            dt = spacetime.boost_event(b, boost).t - spacetime.boost_event(a, boost).t
            rep.scalars["delta_t_boosted"] = dt
        else:
            rep.scalars["interval_squared"] = spacetime.interval_squared(a, b)
    else:
        iguses = []
        for entry in args.igus:
            pos_text, _, vel_text = entry.partition(":")
            pos = tuple(_floats(pos_text, "--igus"))
            if len(pos) != 3:
                raise ParseError(f"IGUS position {pos_text!r} needs 3 components")
            vel = _parse_velocity(vel_text, "--igus") if vel_text else (0.0, 0.0, 0.0)
            iguses.append(spacetime.Igus(pos, vel))
        group = spacetime.IgusGroup(tuple(iguses), args.tau_star, args.env_timescale)
        out = spacetime.common_present_check(group, args.v_max, args.ratio_factor)
        rep.tolerances["v_max"] = out.v_max
        rep.tolerances["ratio_factor"] = out.ratio_factor
        rep.verdicts["contingency1_slow_relative_motion"] = out.slow_relative_motion
        rep.verdicts["contingency2_light_time_small"] = out.light_time_small
        rep.verdicts["contingency3_perception_fast"] = out.perception_fast
        rep.verdicts["common_present"] = out.common_present
        rep.scalars["max_relative_speed"] = out.max_relative_speed
        rep.scalars["max_light_time_s"] = out.max_light_time
        rep.scalars["tau_star_s"] = out.tau_star
        rep.scalars["env_timescale_s"] = out.env_timescale


# Each command, in the order of the help text: its help line, the function that
# adds its arguments to its parser, and its handler.
COMMANDS = {
    "check": ("decoherence verdict for a scenario file", _add_scenario, _cmd_check),
    "prob": ("history probabilities (exit 2 if not decoherent)", _add_scenario, _cmd_check),
    "condition": ("conditional probability of target given data", _add_condition,
                  _cmd_condition),
    "retrodict": ("conditional probabilities of past alternatives given the data",
                  _add_conditioned, _cmd_conditioned),
    "predict": ("conditional probabilities of future alternatives given the data",
                _add_conditioned, _cmd_conditioned),
    "coarse": ("coarse-grain by a named partition from the file", _add_coarse, _cmd_coarse),
    "compat": ("realm compatibility of two scenario files", _add_compat, _cmd_compat),
    "model": ("built-in scenarios", _add_model, _cmd_model),
    "spacetime": ("causal-structure calculator", _add_spacetime, _cmd_spacetime),
}


def _parse_with(parser: argparse.ArgumentParser, argv) -> argparse.Namespace:
    args = parser.parse_args(argv)
    if not (math.isfinite(args.tol_dec) and args.tol_dec >= 0):  # NaN, inf are not JSON
        parser.error(f"argument --tol-dec: must be a finite number >= 0, got {args.tol_dec!r}")
    return args


def _parse_argv(argv) -> argparse.Namespace:
    """argv parsed as the full parser parses it, which exits as argparse does.

    The parser of the first command named in argv parses first.  When it succeeds it
    has read that command where the full parser would, so the Namespace is the same;
    help, a missing or unknown command and every error are left to the full parser,
    so their text is its text.
    """
    command = next((a for a in argv if a in COMMANDS), None)
    if command is not None:
        try:
            return _parse_with(build_parser(command), argv)
        except _Unsure:
            pass
    return _parse_with(build_parser(), argv)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse_argv(argv)
    except SystemExit as err:
        return 1 if err.code not in (0, None) else 0
    rep = Report(command=_echo(argv))
    rep.tolerances["tol_alg"] = TOL_ALG
    rep.tolerances["tol_dec"] = args.tol_dec
    *_, handler = COMMANDS[args.cmd]
    try:
        handler(args, rep)
    except NotDecoherent as err:
        rep.error = str(err)
        rep.exit_status = 2
        if err.report is not None and not rep.verdicts:
            rep.attach_decoherence(err.report)
    except (DhqError, ValueError, KeyError, OSError) as err:
        print(f"dhq: error: {err}", file=sys.stderr)
        rep.error = str(err)
        rep.exit_status = 1
    print(rep.render(args.format) if rep.raw_output is None else rep.raw_output, end="")
    return rep.exit_status


def run() -> NoReturn:
    """The `dhq` process: `main()` on sys.argv, its output flushed, then `os._exit`.

    A command's process has nothing left to do once its report is written, so
    it skips the interpreter's teardown (atexit hooks included) and runs without
    the cyclic collector.  A stdout whose reader has gone gives one error line
    and exit 1.  In-process callers use `main`, which keeps normal semantics.
    """
    gc.disable()
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError as err:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # no later write can fail
        print(f"dhq: error: cannot write the report to stdout: {err}", file=sys.stderr)
        code = 1
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
