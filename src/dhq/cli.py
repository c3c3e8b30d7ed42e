"""Command-line front end.

Exit codes: 0 success, 1 input or validation error, 2 a probability-style
command was run on a set that fails decoherence (the report is still
emitted so the interference can be inspected).
"""

from __future__ import annotations

import gc
import json
import math
import os
import sys
from pathlib import Path
from types import SimpleNamespace
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
from .linalg import TOL_ALG
from .report import Report
from .scenario import (
    Scenario, dump_scenario, is_number, locate_alternative, parse_data_ref, parse_scenario,
)


# Each parser's arguments, in help-text order, as `add_argument` takes them: a positional's
# name, or an option's flag and keywords (one value, `store_true`, `append` or `nargs="?"`).
OPTIONS = (("--tol-dec", {"type": float, "default": TOL_DEC_DEFAULT,
                          "help": "normalized off-diagonal threshold for decoherence"}),
           ("--format", {"choices": ("text", "json"), "default": "text"}))
_DATA = ("--data", {"metavar": "NAME@T",
                    "help": "override the scenario's data_projector reference"})


def _subcommands(command: str) -> tuple[str, dict]:
    """The destination of `model`'s or `spacetime`'s subcommand, and each one's arguments."""
    if command == "model":
        from . import models

        dump = ("--dump", {"nargs": "?", "const": "-", "default": None, "metavar": "PATH"})
        realm = ("--realm", {"choices": models.THREE_BOX_KINDS, "default": "past_A"})
        return "model", {
            "three-box": (realm, dump),
            "two-slit": (("--bins", {"type": int, "default": 8}), ("--environment", {
                "action": "store_true", "default": False,
                "help": "include the which-slit record ancilla"}), dump),
            "spin-env": (("--n-env", {"type": int, "default": 6}),
                         ("--theta", {"type": float, "default": 1.5707963267948966}), dump)}
    from . import spacetime

    a, b = ((flag, {"required": True, "metavar": "T,X,Y,Z"}) for flag in ("--a", "--b"))
    return "spacetime_cmd", {
        "classify": (a, b, ("--events", {"metavar": "FILE", "help": "JSON file of named events"})),
        "order": (a, b, ("--v", {"required": True, "metavar": "VX[,VY,VZ]",
                                 "help": "boost velocity defining the simultaneity surface"}),
                  ("--events", {"metavar": "FILE"})),
        "present": (("--igus", {"action": "append", "required": True, "metavar": "X,Y,Z[:VX,VY,VZ]",
                                "help": "repeatable: IGUS position, optionally :velocity"}),
                    ("--tau-star", {"type": float, "required": True}),
                    ("--env-timescale", {"type": float, "required": True}),
                    ("--v-max", {"type": float, "default": spacetime.V_MAX_DEFAULT}),
                    ("--ratio-factor", {"type": float, "default": spacetime.RATIO_FACTOR_DEFAULT}))}


def build_parser():
    """The `dhq` argparse parser, with every command, built from the argument tables."""
    import argparse

    def add(parser, arguments):
        for a in arguments:
            parser.add_argument(a) if isinstance(a, str) else parser.add_argument(a[0], **a[1])
        return parser

    parser = add(argparse.ArgumentParser(prog="dhq", description="Decoherent-histories engine: "
             "probabilities, realm checks, and special-relativistic causal structure."), OPTIONS)
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name, (help_text, arguments, _) in COMMANDS.items():
        p = add(sub.add_parser(name, help=help_text), arguments or ())
        if arguments is None:
            dest, subcommands = _subcommands(name)
            psub = p.add_subparsers(dest=dest, required=True)
            for subname, subarguments in subcommands.items():
                add(psub.add_parser(subname), subarguments)
    return parser


def _read_argv(argv) -> dict | None:
    """The full parser's Namespace of argv as a dict, read by the argument tables one parser at a
    time; None where the full parser must answer: help, an abbreviation, an `=` form, `--`, a
    value that starts with `-`, a repeated single-value option, an unknown or missing argument."""
    values, i = {}, 0
    arguments, subcommands = OPTIONS, ("cmd", {name: c[1] for name, c in COMMANDS.items()})
    while True:
        positionals = [a for a in arguments if isinstance(a, str)]
        options, given = dict(a for a in arguments if not isinstance(a, str)), {}
        while i < len(argv) and (argv[i] in options or positionals):
            arg, i = argv[i], i + 1
            if arg not in options:
                if arg[:1] == "-" and arg != "-":  # help, abbreviations, `=` forms, `--`
                    return None
                values[positionals.pop(0)] = arg
                continue
            kw = options[arg]
            action = kw.get("action")
            if arg in given and action != "append":
                return None
            value = kw.get("const", action == "store_true" or None)  # the flag's, given alone
            if action != "store_true" and i < len(argv) and (argv[i][:1] != "-" or argv[i] == "-"):
                value, i = argv[i], i + 1
                try:
                    value = kw.get("type", str)(value)
                except ValueError:
                    return None
            if value is None or value not in kw.get("choices", (value,)):
                return None
            given[arg] = given.get(arg, []) + [value] if action == "append" else value
        if positionals or any(kw.get("required") and f not in given for f, kw in options.items()):
            return None
        values.update((f[2:].replace("-", "_"), given.get(f, kw.get("default")))
                      for f, kw in options.items())
        if subcommands is None:
            return values if i == len(argv) else None
        dest, table = subcommands
        if i == len(argv) or argv[i] not in table:
            return None
        values[dest], arguments = argv[i], table[argv[i]]
        subcommands = _subcommands(argv[i]) if arguments is None else None
        arguments, i = arguments or (), i + 1


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
    index = np.indices(grid.shape, sparse=True)  # time k's alternative, broadcast along axis k
    target, given = (np.argwhere(np.broadcast_to(index[k] == i, grid.shape))
                     for k, i in ((tk, ti), (gk, gi)))
    p = realms.conditional_probability(grid, target, given, tol_dec=args.tol_dec)
    rep.add_table("conditional probability", [[f"p({t_name}@{t_time:g} | {g_name}@{g_time:g})"]], [p])


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
    names, p = getattr(realms, args.cmd)(sc.grid, name, time, tol_dec=args.tol_dec)
    rep.add_table(f"{args.cmd}ed probabilities given {name}@{time:g}", names, p)


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
    verdict = realms.check_compatibility(sa.grid, sb.grid, tol_dec=args.tol_dec)
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
        rep.add_table("history probabilities (state vector)", spin.names, spin.probabilities)
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
        cg = realms.coarse_report(sc.grid, dec.branches, dec.tol_used, partition, class_ids)
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


# Each command, in help order: its help line, arguments (None: see `_subcommands`), handler.
COMMANDS = {
    "check": ("decoherence verdict for a scenario file", ("scenario",), _cmd_check),
    "prob": ("history probabilities (exit 2 if not decoherent)", ("scenario",), _cmd_check),
    "condition": ("conditional probability of target given data",
                  ("scenario", ("--given", {"required": True, "metavar": "NAME@T"}),
                   ("--target", {"required": True, "metavar": "NAME@T"})), _cmd_condition),
    "retrodict": ("conditional probabilities of past alternatives given the data",
                  ("scenario", _DATA), _cmd_conditioned),
    "predict": ("conditional probabilities of future alternatives given the data",
                ("scenario", _DATA), _cmd_conditioned),
    "coarse": ("coarse-grain by a named partition from the file",
               ("scenario", ("--partition", {"required": True})), _cmd_coarse),
    "compat": ("realm compatibility of two scenario files", ("scenario_a", "scenario_b"),
               _cmd_compat),
    "model": ("built-in scenarios", None, _cmd_model),
    "spacetime": ("causal-structure calculator", None, _cmd_spacetime),
}


def _parse_argv(argv):
    """argv as the reader reads it, else as the full parser parses it (exiting as argparse does)."""
    values = _read_argv(argv)
    if values is not None and math.isfinite(values["tol_dec"]) and values["tol_dec"] >= 0:
        return SimpleNamespace(**values)
    parser = build_parser()
    for word in argv:  # argparse reads `--opt=--` as `--opt` with no value: [], or a const
        if word[:2] == "--" and word.endswith("=--"):
            parser.error(f"argument {word[:-3]}: expected one argument")
    args = parser.parse_args(argv)
    if not (math.isfinite(args.tol_dec) and args.tol_dec >= 0):  # NaN, inf are not JSON
        parser.error(f"argument --tol-dec: must be a finite number >= 0, got {args.tol_dec!r}")
    return args


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse_argv(argv)
    except SystemExit as err:
        return 1 if err.code not in (0, None) else 0
    rep = Report(command="dhq " + " ".join(argv))
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
