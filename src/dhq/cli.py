"""Command-line front end.

Exit codes: 0 success, 1 input or validation error, 2 a probability-style
command was run on a set that fails decoherence (the report is still
emitted so the interference can be inspected).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import models, realms, spacetime
# check_sum_rules is unused, but perfbench/tracing.py rebinds it.
from .decoherence import TOL_DEC_DEFAULT, check_sum_rules, decoherence_functional  # noqa: F401
from .errors import DhqError, NotDecoherent, ParseError, ValidationError
from .histories import enumerate_histories
from .linalg import TOL_ALG
from .report import Report, clean_probability
from .scenario import dump_scenario, locate_alternative, parse_data_ref, parse_scenario


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dhq",
        description="Decoherent-histories engine: probabilities, realm checks, "
        "and special-relativistic causal structure.",
    )
    parser.add_argument("--tol-dec", type=float, default=TOL_DEC_DEFAULT,
                        help="normalized off-diagonal threshold for decoherence")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("check", help="decoherence verdict for a scenario file")
    p.add_argument("scenario")

    p = sub.add_parser("prob", help="history probabilities (exit 2 if not decoherent)")
    p.add_argument("scenario")

    p = sub.add_parser("condition", help="conditional probability of target given data")
    p.add_argument("scenario")
    p.add_argument("--given", required=True, metavar="NAME@T")
    p.add_argument("--target", required=True, metavar="NAME@T")

    for name, help_text in (
        ("retrodict", "conditional probabilities of past alternatives given the data"),
        ("predict", "conditional probabilities of future alternatives given the data"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("scenario")
        p.add_argument("--data", metavar="NAME@T",
                       help="override the scenario's data_projector reference")

    p = sub.add_parser("coarse", help="coarse-grain by a named partition from the file")
    p.add_argument("scenario")
    p.add_argument("--partition", required=True)

    p = sub.add_parser("compat", help="realm compatibility of two scenario files")
    p.add_argument("scenario_a")
    p.add_argument("scenario_b")

    p = sub.add_parser("model", help="built-in scenarios")
    msub = p.add_subparsers(dest="model", required=True)
    m = msub.add_parser("three-box")
    m.add_argument("--realm", choices=models.THREE_BOX_KINDS, default="past_A")
    m.add_argument("--dump", nargs="?", const="-", default=None, metavar="PATH")
    m = msub.add_parser("two-slit")
    m.add_argument("--bins", type=int, default=8)
    m.add_argument("--environment", action="store_true",
                   help="include the which-slit record ancilla")
    m.add_argument("--dump", nargs="?", const="-", default=None, metavar="PATH")
    m = msub.add_parser("spin-env")
    m.add_argument("--n-env", type=int, default=6)
    m.add_argument("--theta", type=float, default=1.5707963267948966)
    m.add_argument("--dump", nargs="?", const="-", default=None, metavar="PATH")

    p = sub.add_parser("spacetime", help="causal-structure calculator")
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
    return parser


def _echo(argv) -> str:
    return "dhq " + " ".join(argv)


def _floats(text: str, flag: str) -> list[float]:
    try:
        return [float(c) for c in text.split(",")]
    except ValueError as err:
        raise ParseError(f"argument {flag}: {err}") from None


def _parse_event(text: str, named: dict, flag: str) -> spacetime.Event:
    if text in named:
        return named[text]
    coords = _floats(text, flag)
    if len(coords) != 4:
        raise ParseError(f"event {text!r} needs 4 coordinates t,x,y,z")
    return spacetime.Event(*coords)


def _load_named_events(path) -> dict[str, spacetime.Event]:
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
        if not (isinstance(coords, list) and len(coords) == 4
                and all(type(c) in (int, float) for c in coords)):  # bools are not numbers
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
    histories = enumerate_histories(grid)
    given = {h for h in histories if h[gk] == gi}
    target = {h for h in histories if h[tk] == ti}
    p = realms.conditional_probability(grid, target, given, tol_dec=args.tol_dec)
    rep.add_table(
        "conditional probability",
        [(f"p({t_name}@{t_time:g} | {g_name}@{g_time:g})", clean_probability(p))],
    )


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
    rows = getattr(realms, args.cmd)(sc.grid, name, time, tol_dec=args.tol_dec)
    rep.add_table(
        f"{args.cmd}ed probabilities given {name}@{time:g}",
        [(label, clean_probability(p)) for _, label, p in rows],
    )


def _cmd_coarse(args, rep: Report) -> None:
    sc = parse_scenario(args.scenario)
    if args.partition not in sc.partitions:
        raise ValidationError(
            f"no partition named {args.partition!r} in scenario "
            f"(available: {sorted(sc.partitions)})",
            "/partitions",
        )
    cg = realms.coarse_grain(sc.grid, sc.partitions[args.partition], tol_dec=args.tol_dec)
    rep.attach_decoherence(cg.report, prefix="coarse")
    rep.scalars["max_sum_rule_violation"] = cg.max_sum_rule_violation


def _cmd_compat(args, rep: Report) -> None:
    sa = parse_scenario(args.scenario_a)
    sb = parse_scenario(args.scenario_b)
    realms.check_join_size(sa.grid, sb.grid)  # before either realm's decoherence pass
    ra = realms.Realm.from_grid(sa.grid, tol_dec=args.tol_dec)
    rb = realms.Realm.from_grid(sb.grid, tol_dec=args.tol_dec)
    verdict = realms.check_compatibility(ra, rb, tol_dec=args.tol_dec)
    rep.verdicts["compatibility"] = verdict.status
    rep.notes.append(verdict.detail)
    if verdict.witness_report is not None:
        rep.attach_decoherence(verdict.witness_report, prefix="join")


def _cmd_model(args, rep: Report) -> None:
    if args.model == "three-box":
        sc = models.three_box(args.realm)
        grid, extras = sc.grid, {}
        data = (sc.data_name, sc.data_time)
        rep.verdicts["realm_kind"] = sc.realm_kind
    elif args.model == "two-slit":
        sc = models.two_slit(args.bins, args.environment)
        grid = sc.grid
        extras = {"merge-slits": sc.slit_merge_partition}
        data = None
        rep.verdicts["with_environment"] = sc.with_environment
    else:
        sc = models.spin_environment(args.n_env, args.theta)
        rep.scalars["predicted_offdiag_normalized"] = sc.predicted_offdiag
        rep.scalars["numeric_offdiag_normalized"] = sc.numeric_offdiag
        rep.add_table(
            "history probabilities (state vector)",
            zip(sc.history_labels, map(clean_probability, sc.probabilities)),
        )
        grid, extras, data = sc.grid if args.dump else None, {}, None
        if args.dump is None:
            return
    if args.dump is not None:
        text = dump_scenario(grid, None if args.dump == "-" else args.dump, extras or None, data)
        if args.dump == "-":
            rep.raw_output = text + "\n"
        else:
            rep.notes.append(f"scenario written to {args.dump}")
        return
    dec = decoherence_functional(grid, tol_dec=args.tol_dec)
    rep.attach_decoherence(dec)
    if args.model == "two-slit":
        cg = realms.coarse_report(grid, dec, sc.slit_merge_partition)
        rep.scalars["max_sum_rule_violation"] = cg.max_sum_rule_violation


def _cmd_spacetime(args, rep: Report) -> None:
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


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not (math.isfinite(args.tol_dec) and args.tol_dec >= 0):  # NaN, inf are not JSON
            parser.error(f"argument --tol-dec: must be a finite number >= 0, got {args.tol_dec!r}")
    except SystemExit as err:
        return 1 if err.code not in (0, None) else 0
    rep = Report(command=_echo(argv))
    rep.tolerances["tol_alg"] = TOL_ALG
    rep.tolerances["tol_dec"] = args.tol_dec
    handlers = {
        "check": _cmd_check,
        "prob": _cmd_check,
        "condition": _cmd_condition,
        "retrodict": _cmd_conditioned,
        "predict": _cmd_conditioned,
        "coarse": _cmd_coarse,
        "compat": _cmd_compat,
        "model": _cmd_model,
        "spacetime": _cmd_spacetime,
    }
    try:
        handlers[args.cmd](args, rep)
    except NotDecoherent as err:
        rep.error = str(err)
        rep.exit_status = 2
        if rep.gram is None and err.report is not None and not rep.verdicts:
            rep.attach_decoherence(err.report)
    except (DhqError, ValueError, KeyError, OSError) as err:
        print(f"dhq: error: {err}", file=sys.stderr)
        rep.error = str(err)
        rep.exit_status = 1
        print(rep.render(args.format), end="")
        return 1
    if rep.raw_output is not None:
        print(rep.raw_output, end="")
    else:
        print(rep.render(args.format), end="")
    return rep.exit_status


if __name__ == "__main__":
    sys.exit(main())
