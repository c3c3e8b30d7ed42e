"""Traced in-process run: per-layer spans and counts, recorded from outside dhq.

The same commands as the end-to-end run go through `dhq.cli.main(argv)` in
this process.  Public functions of each dhq module are wrapped by rebinding
the name where the caller looks it up (e.g. `dhq.histories.evolve_heisenberg`,
`dhq.linalg.hermitian_eig`, `dhq.scenario.json.loads`,
`Projector.__post_init__`).  Each call records a span (name, start, end,
parent, command id) in memory; a layer's self time is its spans' durations
minus their child spans.  Every command also runs once without the wrappers,
so the tracing overhead is measured too.  The spans of the last traced pass are
written out as JSON lines at the end.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import statistics
import subprocess
import sys
import time
import types
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("cli", "scenario", "linalg", "histories", "decoherence", "realms", "report", "models")
STARTUP_REPEATS = 5
LIVE_FLOOR = 1e-14  # dhq's OFFDIAG_FLOOR / PRINT_FLOOR: branches below it are dead

# Per-layer metric -> unit, in the order printed; BENCHMARK.json lists the same.
PER_LAYER = {
    "cli.startup_s": "s",
    "report.render_s": "s", "report.attach_s": "s", "report.bytes_out": "B",
    "scenario.read_s": "s", "scenario.decode_s": "s", "scenario.load_s": "s",
    "scenario.bytes_in": "B", "scenario.decode_MBps": "MB/s",
    "scenario.dump_s": "s", "scenario.bytes_out": "B",
    "models.build_s": "s",
    "linalg.projectors_validated": "count", "linalg.projector_validate_s": "s", "linalg.span_s": "s",
    "linalg.eigh_calls": "count", "linalg.eigh_s": "s",
    "linalg.evolve_calls": "count", "linalg.evolve_s": "s",
    "histories.sets_validated": "count", "histories.set_validate_s": "s",
    "histories.enumerated": "count", "histories.enumerate_s": "s",
    "histories.branch_vectors": "count", "histories.branch_s": "s",
    "histories.branch_passes": "count", "histories.coarse_branch_passes": "count",
    "histories.class_operators": "count", "histories.class_operator_s": "s",
    "histories.live_ratio": "ratio",
    "decoherence.gram_dim": "count", "decoherence.gram_bytes_computed": "B",
    "decoherence.functional_s": "s", "decoherence.offdiag_s": "s",
    "decoherence.report_check_s": "s", "decoherence.sum_rules_s": "s",
    "realms.coarse_s": "s", "realms.join_s": "s", "realms.compat_s": "s",
    "realms.conditioned_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.share": "ratio" for layer in LAYERS},
    "kernel.gram_flops_computed": "flop", "kernel.gram_bytes_computed": "B",
    "kernel.eigh_flops_computed": "flop", "kernel.branch_matvec_flops_computed": "flop",
    "trace.coverage": "ratio", "trace.overhead_frac": "ratio",
    "trace.count_mismatches": "count", "trace.spans": "count", "trace.commands": "count",
}

# Span names whose self time is reported as "<name>_s".
TIMED_SPANS = [k[:-2] for k, u in PER_LAYER.items()
               if u == "s" and k.split(".")[0] in LAYERS and not k.endswith((".self_s", "startup_s"))]


class Tracer:
    """Spans and counters of the command currently running, kept in memory."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, command id]
        self.stack = []
        self.cmd = None
        self.counts = Counter()
        self._undo = []

    def span(self, name, fn, after=None):
        """fn wrapped to record a span while a command runs, then call after()."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.cmd is None:
                return fn(*args, **kwargs)
            rec = [name, time.perf_counter(), 0.0, tracer.stack[-1] if tracer.stack else -1,
                   tracer.cmd]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                tracer.stack.pop()
            if after is not None:
                after(tracer.counts, args, result)
            return result

        return wrapper

    def counter(self, key, fn):
        """fn wrapped to count its calls under key."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def rebind(self, owner, attr, value):
        """Set owner.attr, remembering the old value for restore()."""
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                           else getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap(self, owner, attr, name, after=None, count=None):
        """Rebind owner.attr to a span wrapper (or, with name None, a call counter)."""
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self.rebind(owner, attr, self.counter(count, orig) if name is None
                    else self.span(name, orig, after))

    def restore(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)


def _bump(key, amount=lambda a, r: 1):
    def after(counts, args, result):
        counts[key] += amount(args, result)
    return after


def _branch_after(counts, args, result):
    grid = args[0]
    counts["histories.branch_passes"] += 1
    counts["branch_dim"] = result.shape[1]
    counts["kernel.branch_matvec_flops_computed"] += result.shape[0] * grid.n_times * 8 * grid.dim**2


def _offdiag_after(counts, args, result):
    n, d = args[0].shape[0], counts["branch_dim"]
    counts["decoherence.gram_dim"] = max(counts["decoherence.gram_dim"], n)
    counts["decoherence.gram_bytes_computed"] += 16 * n * n
    counts["kernel.gram_flops_computed"] += 8 * n * n * d
    counts["kernel.gram_bytes_computed"] += 16 * (n * n + 2 * n * d)


def _functional_after(counts, args, result):
    counts["live"] += int((result.probabilities >= LIVE_FLOOR).sum())


def _eigh_after(counts, args, result):
    counts["linalg.eigh_calls"] += 1
    counts["kernel.eigh_flops_computed"] += args[0].dim ** 3


def install(tracer: Tracer):
    """Wrap the public functions of every dhq layer where their callers look them up."""
    from dhq import cli, decoherence, histories, linalg, models, realms, report, scenario

    w = tracer.wrap
    # scenario
    w(cli, "parse_scenario", "scenario.read")
    w(scenario, "scenario_from_dict", "scenario.load")
    w(cli, "dump_scenario", "scenario.dump",
      _bump("scenario.bytes_out", lambda a, r: len(r) + (1 if len(a) > 1 and a[1] else 0)))
    loads = tracer.span("scenario.decode", scenario.json.loads,
                        _bump("scenario.bytes_in", lambda a, r: len(a[0])))
    tracer.rebind(scenario, "json", types.SimpleNamespace(
        loads=loads, dumps=scenario.json.dumps, JSONDecodeError=scenario.json.JSONDecodeError))
    # models
    for fn in ("two_slit", "three_box", "spin_environment"):
        w(models, fn, "models.build")
    w(models.SpinEnvironmentScenario, "_build_grid", "models.build")
    # linalg
    w(linalg.Projector, "__post_init__", "linalg.projector_validate",
      _bump("linalg.projectors_validated"))
    for mod in (scenario, models):
        w(mod, "projector_from_span", "linalg.span")
    w(linalg, "hermitian_eig", "linalg.eigh", _eigh_after)
    w(histories, "evolve_heisenberg", "linalg.evolve", _bump("linalg.evolve_calls"))
    # histories
    w(histories.AlternativeSet, "__post_init__", "histories.set_validate",
      _bump("histories.sets_validated"))
    for mod in (cli, decoherence, realms):
        w(mod, "enumerate_histories", "histories.enumerate",
          _bump("histories.enumerated", lambda a, r: len(r)))
    for mod in (decoherence, realms):
        w(mod, "branch_matrix", "histories.branch", _branch_after)
    w(histories, "branch_vector", None, count="histories.branch_vectors")
    w(realms, "class_operator", "histories.class_operator", _bump("histories.class_operators"))
    # decoherence
    for mod in (cli, realms, decoherence):
        w(mod, "decoherence_functional", "decoherence.functional", _functional_after)
    for mod in (decoherence, realms, models):
        w(mod, "normalized_offdiag", "decoherence.offdiag", _offdiag_after)
    w(cli, "check_sum_rules", "decoherence.sum_rules")
    w(decoherence.DecoherenceReport, "__post_init__", "decoherence.report_check")
    # realms
    w(realms, "coarse_grain", "realms.coarse")
    w(realms, "refine_join", "realms.join")
    w(realms, "check_compatibility", "realms.compat")
    for fn in ("retrodict", "predict", "conditional_probability"):
        w(realms, fn, "realms.conditioned")
    # report
    w(report.Report, "render", "report.render", _bump("report.bytes_out", lambda a, r: len(r)))
    w(report.Report, "attach_decoherence", "report.attach")


def self_times(spans) -> dict:
    """Self time per span name: duration minus the durations of direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name] += end - start - child[i]
    return out


def _run_one(cmd, main, workdir, check, tracer=None, cmd_id=0):
    """Run one command in-process; returns (cmd, wall, counts or None)."""
    cwd = os.getcwd()
    out = io.StringIO()
    os.chdir(workdir)
    try:
        if tracer is not None:
            tracer.counts.clear()
            tracer.cmd = cmd_id
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(["--format", "json", *cmd.argv])
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.cmd = None
        os.chdir(cwd)
    check(cmd, code, out.getvalue())
    return cmd, wall, Counter(tracer.counts) if tracer is not None else None


def _pass_metrics(rows, spans) -> tuple:
    """Per-layer metrics of one traced pass, and the count mismatches found."""
    counts = Counter()
    mismatches = []
    passes, coarse_passes = [], []
    for cmd, _, c in rows:
        for key, want in cmd.counts.items():
            if c[key] != want:
                mismatches.append(f"{cmd.key}: {key} = {c[key]}, expected {want}")
        if c["histories.branch_passes"]:
            passes.append(c["histories.branch_passes"])
        if cmd.kind == "coarse":
            coarse_passes.append(c["histories.branch_passes"])
        gram_dim = max(counts["decoherence.gram_dim"], c["decoherence.gram_dim"])
        counts.update(c)
        counts["decoherence.gram_dim"] = gram_dim
    wall = sum(w for _, w, _ in rows)
    selfs = self_times(spans)
    m = {f"{name}_s": selfs.get(name, 0.0) for name in TIMED_SPANS}
    by_layer = defaultdict(float)
    for name, t in selfs.items():
        by_layer[name.split(".")[0]] += t
    for layer in LAYERS:
        m[f"{layer}.self_s"] = by_layer[layer]
        m[f"{layer}.share"] = by_layer[layer] / wall
    for key in PER_LAYER:
        if PER_LAYER[key] in ("count", "B", "flop") and key.split(".")[0] != "trace":
            m[key] = float(counts[key])
    m["histories.branch_passes"] = statistics.fmean(passes) if passes else 0.0
    m["histories.coarse_branch_passes"] = statistics.fmean(coarse_passes) if coarse_passes else 0.0
    vectors = counts["histories.branch_vectors"]
    m["histories.live_ratio"] = counts["live"] / vectors if vectors else 0.0
    decode = m["scenario.decode_s"]
    m["scenario.decode_MBps"] = counts["scenario.bytes_in"] / decode / 1e6 if decode else 0.0
    m["trace.coverage"] = sum(selfs.values()) / wall
    m["trace.count_mismatches"] = float(len(mismatches))
    m["trace.spans"] = float(len(spans))
    m["trace.commands"] = float(len(rows))
    return m, mismatches


def startup_seconds(root: Path, env: dict) -> float:
    """Median wall time of `python -c "import dhq.cli"` child processes."""
    walls = []
    for _ in range(STARTUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import dhq.cli"], cwd=root, env=env, check=True)
        walls.append(time.perf_counter() - start)
    return statistics.median(walls)


def traced_run(cmds, seconds, root: Path, workdir: Path, env: dict, check, spans_path: Path):
    """Run every command in-process untraced, then traced, pass after pass, for `seconds`.

    `check(cmd, exit_code, stdout)` gates every output.  Returns
    (metrics, samples per metric, notes, commands attempted).
    """
    startup = startup_seconds(root, env)
    if str(root / "src") not in sys.path:
        sys.path.insert(0, str(root / "src"))
    from dhq import cli

    tracer = Tracer()
    main = tracer.span("cli.main", cli.main)
    samples, plain_walls, traced_walls = [], [], []
    start = time.perf_counter()
    while True:
        # Each command runs untraced, then traced, back to back, so machine
        # drift cancels in the overhead ratio.
        tracer.spans.clear()
        rows = []
        for i, cmd in enumerate(cmds):
            plain_walls.append(_run_one(cmd, cli.main, workdir, check)[1])
            install(tracer)
            try:
                rows.append(_run_one(cmd, main, workdir, check, tracer, i))
            finally:
                tracer.restore()
            traced_walls.append(rows[-1][1])
        samples.append(_pass_metrics(rows, tracer.spans))
        if time.perf_counter() - start >= seconds:
            break
    extra = {
        "cli.startup_s": startup,
        "trace.overhead_frac": sum(traced_walls) / sum(plain_walls) - 1,
    }
    metrics = {key: extra[key] if key in extra else statistics.median(s[0][key] for s in samples)
               for key in PER_LAYER}
    mismatches = samples[-1][1]
    for line in mismatches:
        print(f"perfbench: TRACE COUNT MISMATCH {line}", file=sys.stderr)
    spans_path.parent.mkdir(exist_ok=True)
    with open(spans_path, "w") as f:
        for rec in tracer.spans:
            f.write(json.dumps(dict(zip(("name", "start", "end", "parent", "command"), rec))) + "\n")
    by_kind = defaultdict(list)
    for cmd, _, c in rows:
        by_kind[cmd.kind].append(c["histories.branch_passes"])
    notes = {
        "traced_passes": len(samples),
        "commands_per_pass": len(cmds),
        "branch_passes_by_command": {k: statistics.fmean(v) for k, v in sorted(by_kind.items())},
        "count_mismatches": mismatches[:10],
        "computed": "kernel.* are computed from N and d at the wrappers, not measured",
    }
    samples_n = {key: len(samples) for key in PER_LAYER}
    samples_n["cli.startup_s"] = STARTUP_REPEATS
    return metrics, samples_n, notes, 2 * len(samples) * len(cmds)
