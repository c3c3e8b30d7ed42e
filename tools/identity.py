"""Byte-identity differ: run one corpus of dhq commands on two trees and compare the outputs.

    python tools/identity.py --parent REV          # REV from this repository, via `git archive`
    python tools/identity.py --parent-src DIR      # DIR holds the parent's `src/dhq`
    python tools/identity.py --parent REV --only '^model/three-box/' --tol 1e-12
    python tools/identity.py --parent REV --children  # each command as `python -m dhq`
    python tools/identity.py --record FILE         # this tree's outputs, as a record
    python tools/identity.py --against FILE --tol 1e-12  # this tree against a record
    python tools/identity.py --against FILE --blas 2     # this tree with 2 BLAS threads

The change side is this working tree.  The corpus is built once: the three workloads of
`perfbench/workloads.py` at seeds 1 and 2, the built-in models with their dumps and the
commands run on them, `compat` of the three-box dumps and of a three-box against a two-slit
dump, seeded `spacetime` commands (see `_spacetime_cases`), the README's `dhq` lines, the
hostile and broken-partition files the tests refuse, the wide and chain files of the realm
tests (see `_files`), the realm tests' seeded `compat` pairs (see `_pairs`) and the argv
corpus of the parser tests (see `_argvs`).  Each tree runs every case in one child process
through `dhq.cli.main`, in a fresh working directory per case, with BLAS threads 1 (the
change side with N under `--blas N`, so that reports are compared across thread counts);
with `--children`, that process runs each command as its own `python -m dhq` process
instead, so that what a process imports before it parses is run too.
A case is one or more commands run in order; the stdout, stderr and exit code of each and
every file it wrote or changed in its directory are compared.  A record (xz-compressed
JSON) holds those outputs for every case but the `workload/*` ones, which depend on
perfbench's input generator; `--against` compares this tree with a record as `--parent`
compares it with a parent.

A case is `identical`, `numeric` (only number tokens differ; the largest absolute difference
is given) or `differs` (the first differing line is given).  The counts are printed last; the
exit status is 1 when a case differs, or is numeric beyond `--tol` (0, the default, asks
for byte identity).
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import lzma
import math
import os
import re
import shutil
import subprocess
import sys
import tarfile
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2)
FORMATS = {"text": [], "json": ["--format", "json"]}


def _readme_lines() -> list[list[str]]:
    """The `dhq ...` lines of the README's command block, as tests/test_tooling.py reads them."""
    readme = (ROOT / "README.md").read_text()
    block = next(b for b in re.findall(r"```\n(.*?)```", readme, re.S) if b.startswith("dhq "))
    return [line.split("#")[0].split()[1:] for line in block.splitlines()]


def _model_cases():
    """(name, steps) of each built-in model: its report, its dumps and commands on a dump."""
    from dhq.models import THREE_BOX_KINDS, three_box

    models = {}
    for kind in THREE_BOX_KINDS:
        box = three_box(kind)
        first, data = box.grid.sets[0].projectors[0].name, f"Phi@{box.data_time}"
        models[f"three-box/{kind}"] = (["model", "three-box", "--realm", kind], [
            ["check"], ["prob"], ["retrodict"], ["predict", "--data", f"{first}@1.0"],
            ["condition", "--given", data, "--target", f"{first}@1.0"]])
    for bins, env in itertools.product((2, 8, 32), (False, True)):
        models[f"two-slit/{bins}{'/env' if env else ''}"] = (
            ["model", "two-slit", "--bins", str(bins)] + ["--environment"] * env, [
                ["check"], ["prob"], ["coarse", "--partition", "merge-slits"],
                ["retrodict", "--data", "bin0@2.0"], ["predict", "--data", "upper@1.0"],
                ["condition", "--given", "bin0@2.0", "--target", "upper@1.0"]])
    for n in (2, 6):
        models[f"spin-env/{n}"] = (["model", "spin-env", "--n-env", str(n)], [["check"], ["prob"]])
    for name, (model, commands) in models.items():
        for fmt, flag in FORMATS.items():
            yield f"model/{name}/report/{fmt}", [flag + model]
        yield f"model/{name}/dump-stdout", [model + ["--dump", "-"]]
        yield f"model/{name}/dump-bare", [model + ["--dump"]]
        yield f"model/{name}/dump-file", [model + ["--dump", "m.json"]]
        for cmd, (fmt, flag) in itertools.product(commands, FORMATS.items()):
            yield (f"model/{name}/{cmd[0]}/{fmt}",
                   [model + ["--dump", "m.json"], flag + cmd[:1] + ["m.json"] + cmd[1:]])
    pairs = itertools.product(THREE_BOX_KINDS, THREE_BOX_KINDS)
    for (a, b), (fmt, flag) in itertools.product(pairs, FORMATS.items()):
        dumps = [["model", "three-box", "--realm", k, "--dump", f"{k}.json"]
                 for k in dict.fromkeys((a, b))]
        yield f"compat/{a}/{b}/{fmt}", dumps + [flag + ["compat", f"{a}.json", f"{b}.json"]]
    for fmt, flag in FORMATS.items():  # dimensions 3 and 4 differ: refused
        yield f"compat/past_A/two-slit/{fmt}", [
            ["model", "three-box", "--realm", "past_A", "--dump", "a.json"],
            ["model", "two-slit", "--bins", "2", "--dump", "b.json"],
            flag + ["compat", "a.json", "b.json"]]


def _spacetime_cases():
    """(name, steps) of seeded `spacetime` commands, each in text and JSON: `classify` and
    `order` of pairs at generic magnitudes (10^-3 to 10^6) and within 1e-3 of ±TOL_GEO (1-D and
    3-D), boosts and IGUS velocities at speeds near 1, events near 1e150, `present` groups,
    the overflow refusals and a velocity whose |v| rounds to 1.  Every number is passed in an
    `=` form, as its repr."""
    import random

    from dhq.spacetime import TOL_GEO

    rng = random.Random(37)

    def arg(flag, *xs):
        return f"--{flag}={','.join(map(repr, xs))}"

    def unit():
        while True:
            u = [rng.gauss(0.0, 1.0) for _ in range(3)]
            n = math.sqrt(sum(c * c for c in u))
            if n > 1e-3:
                return [c / n for c in u]

    def generic(stretch=1.0):
        """An event at a random magnitude, its time stretched by `stretch`."""
        scale = 10 ** rng.uniform(-3, 6)
        return [rng.uniform(-scale, scale) * f for f in (stretch, 1.0, 1.0, 1.0)]

    def near_null(s2, dims):
        """A pair whose interval is s2 up to about 1e-14, at a separation of order 1."""
        t, *x = (rng.uniform(-5.0, 5.0) for _ in range(4))
        r = rng.uniform(0.5, 3.0)
        dx = [r * c for c in unit()] if dims == 3 else [r, 0.0, 0.0]
        dt = math.copysign(math.sqrt(r * r - s2), rng.uniform(-1, 1))
        return [t, *x], [t + dt, *(p + d for p, d in zip(x, dx))]

    def boost(speed):
        return [speed * c for c in unit()]

    pairs = {}
    for i in range(8):  # odd ones mostly timelike
        a = generic()
        pairs[f"generic-{i}"] = a, [p + q for p, q in zip(a, generic(1 + 9 * (i % 2)))]
    for sign, side, dims in itertools.product((1, -1), ("out", "in"), (1, 3)):
        s2 = sign * TOL_GEO * (1 + 1e-3 if side == "out" else 1 - 1e-3)
        pairs[f"{'+-'[sign < 0]}tol-{side}-{dims}d"] = near_null(s2, dims)
    pairs["same-event"] = ([1.5, -2.0, 0.25, 3.0],) * 2
    pairs["overflow-time"] = ([-1e200, 0.0, 0.0, 0.0], [1e200, 1e200, 0.0, 0.0])
    pairs["overflow-space"] = ([0.0, 0.0, 0.0, 0.0], [0.0, 1e200, -1e200, 1e200])
    commands = {f"classify/{k}": ["classify", arg("a", *a), arg("b", *b)]
                for k, (a, b) in pairs.items()}
    speeds = {"slow": 1e-6, "half": 0.5, "0.999999": 0.999999, "1-1e-9": 1 - 1e-9}
    keys = [k for k in pairs if not k.startswith("overflow")]
    for i, (name, speed) in enumerate(speeds.items()):
        for k in keys[i::len(speeds)]:
            a, b = pairs[k]
            commands[f"order/{k}/{name}"] = ["order", arg("a", *a), arg("b", *b),
                                             arg("v", *boost(speed))]
    o = [0.0, 0.0, 0.0, 0.0]
    commands["order/large"] = ["order", arg("a", *o), arg("b", 1e150, 3e149, -4e149, 5e149),
                               arg("v", *boost(0.999999))]
    commands["order/speed-rounds-to-1"] = ["order", arg("a", *o), arg("b", 0.0, 1.0, 0.0, 0.0),
                                           arg("v", 0.28, 0.96, 0.0)]
    groups = {}
    for i in range(6):
        scale = 10 ** rng.uniform(-4, 3)
        groups[f"generic-{i}"] = [
            [[rng.uniform(-scale, scale) for _ in range(3)], boost(rng.uniform(0.0, 0.006))]
            for _ in range(rng.randint(2, 4))]
    groups["near-c"] = [[[0.0, 0.0, 0.0], boost(1 - 1e-9)], [[1.0, 2.0, 3.0], boost(1 - 1e-9)]]
    groups["overflow-distance"] = [[[1e200, 1e200, 1e200], [0.0] * 3],
                                   [[-1e200, 0.0, 0.0], [0.0] * 3]]
    for k, group in groups.items():
        igus = [f"--igus={','.join(map(repr, p))}:{','.join(map(repr, v))}" for p, v in group]
        commands[f"present/{k}"] = ["present", *igus, "--tau-star", "0.1", "--env-timescale", "10"]
    for (name, argv), (fmt, flag) in itertools.product(commands.items(), FORMATS.items()):
        yield f"spacetime/{name}/{fmt}", [[*flag, "spacetime", *argv]]


def _files() -> dict:
    """{name: (document, {command: argv})} of the files the tests write, FILE in argv standing
    for the file.  HOSTILE_CASES and BROKEN_PARTITIONS files are run by check, prob (`coarse
    --partition other` for a broken partition) and `coarse --partition merge-slits`, as is a
    three-box dump whose initial state, (1, 1, 0), is not normalized.  The wide file (two sets
    of 1,024 `basis` members, 1,022 of them empty) is run by compat with itself, condition and
    predict, and the 12-time chain, with 4,096 live histories, by `coarse --partition first`.
    """
    sys.path.insert(0, str(ROOT / "tests"))
    from test_cli import BROKEN_PARTITIONS, _broken_partition_doc
    from test_realms import chain_doc, wide_doc
    from test_scenario import HOSTILE_CASES, box_dump, replaced

    docs = {f"hostile/{k}": replaced(make(), path, value)
            for k, (make, path, value, _) in HOSTILE_CASES.items()}
    docs["hostile/initial-state-unnormalized"] = replaced(
        box_dump(), ("initial_state",), [[1.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
    docs.update({f"broken-partition/{k}": _broken_partition_doc(k) for k in BROKEN_PARTITIONS})
    files = {}
    for name, doc in docs.items():
        other = (("coarse-other", ["coarse", "FILE", "--partition", "other"]) if "broken" in name
                 else ("prob", ["prob", "FILE"]))
        files[name] = doc, dict([("check", ["check", "FILE"]), other,
                                 ("coarse", ["coarse", "FILE", "--partition", "merge-slits"])])
    files["wide"] = wide_doc(), {
        "compat": ["compat", "FILE", "FILE"],
        "condition": ["condition", "--given", "a@1.0", "--target", "b@2.0", "FILE"],
        "predict": ["predict", "--data", "a@1.0", "FILE"]}
    files["chain12"] = chain_doc(12), {"coarse": ["coarse", "FILE", "--partition", "first"]}
    return files


def _pairs() -> dict:
    """{name: (document a, document b)} of the `compat` pairs of the realm tests: seeded span
    and matrix-form pairs, and the pair whose join names collide (see `compat_pair_docs`)."""
    sys.path.insert(0, str(ROOT / "tests"))
    from test_realms import compat_pair_docs

    return compat_pair_docs()


def _argvs() -> dict:
    """{name: argv} of the parser tests' PARSER_CASES, REFUSED_ARGUMENTS and EQUALS_DASHES
    argvs, and of `--help` for dhq and each command and subcommand."""
    sys.path.insert(0, str(ROOT / "tests"))
    from test_cli import EQUALS_DASHES, PARSER_CASES, REFUSED_ARGUMENTS

    from dhq.cli import COMMANDS, _subcommands

    helps = [[], *([name] for name in COMMANDS)]
    helps += [[name, sub] for name, (_, arguments, _) in COMMANDS.items() if arguments is None
              for sub in _subcommands(name)[1]]
    argvs = [*PARSER_CASES, *(argv for argv, _ in REFUSED_ARGUMENTS.values()), *EQUALS_DASHES,
             *([*words, "--help"] for words in helps)]
    return {f"argv/{' '.join(argv) or '(none)'}": argv for argv in argvs}


def corpus(inputs: Path, only: str | None = None, with_workloads: bool = True) -> list[dict]:
    """Every case as {"name", "inputs" (files copied into its directory), "steps" (argvs)},
    the `workload/*` ones only if `with_workloads`.

    Input files are written under `inputs`, once, and only for the cases `only` selects.
    """
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    keep = re.compile(only or "").search
    inputs.mkdir(parents=True)
    cases = []
    names = sorted(workloads.WORKLOADS) if with_workloads else []
    for name, seed in itertools.product(names, SEEDS):
        if not any(keep(f"workload/{name}/seed{seed}/{fmt}") for fmt in FORMATS):
            continue
        workdir = inputs / f"{name}-{seed}"
        workdir.mkdir()
        steps = [cmd.argv for cmd in workloads.build(name, seed, workdir)]
        files = sorted(workdir.iterdir())
        cases += [{"name": f"workload/{name}/seed{seed}/{fmt}", "inputs": files,
                   "steps": [flag + argv for argv in steps]} for fmt, flag in FORMATS.items()]
    cases += [{"name": n, "inputs": [], "steps": s} for n, s in _model_cases()]
    cases += [{"name": n, "inputs": [], "steps": s} for n, s in _spacetime_cases()]
    cases.append({"name": "readme", "inputs": [], "steps": _readme_lines()})
    cases += [{"name": n, "inputs": [], "steps": [argv]} for n, argv in _argvs().items()]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # so that json.dumps writes every integer literal
    try:
        for name, (doc, commands) in _files().items():
            path = inputs / f"{name.replace('/', '-')}.json"
            picked = [(f"{name}/{c}/{f}", [*flag, *(path.name if a == "FILE" else a for a in argv)])
                      for (c, argv), (f, flag) in itertools.product(commands.items(),
                                                                    FORMATS.items())]
            picked = [(n, argv) for n, argv in picked if keep(n)]
            if picked:
                path.write_text(json.dumps(doc))
            cases += [{"name": n, "inputs": [path], "steps": [argv]} for n, argv in picked]
        for name, docs in _pairs().items():
            picked = [(f"compat-pair/{name}/{f}", flag) for f, flag in FORMATS.items()
                      if keep(f"compat-pair/{name}/{f}")]
            paths = [inputs / f"pair-{name}-{side}.json" for side in "ab"]
            if picked:
                for path, doc in zip(paths, docs):
                    path.write_text(json.dumps(doc))
            argv = ["compat", *(path.name for path in paths)]
            cases += [{"name": n, "inputs": paths, "steps": [flag + argv]} for n, flag in picked]
    finally:
        sys.set_int_max_str_digits(limit)
    return [c for c in cases if keep(c["name"])]


def run_cases(cases_file: Path, workdir: Path, out_file: Path, children: bool = False) -> None:
    """The child: every case through `dhq.cli.main` (or, with `children`, each command as a
    `python -m dhq` process), each in workdir/<index>, results as JSON."""
    import dhq
    from dhq.cli import main

    results = {"dhq": dhq.__file__, "cases": []}
    for i, case in enumerate(json.loads(cases_file.read_text())):
        cwd = workdir / f"{i:04d}"
        cwd.mkdir()
        inputs = {Path(path).name: Path(path).read_bytes() for path in case["inputs"]}
        for name, data in inputs.items():
            (cwd / name).write_bytes(data)
        os.chdir(cwd)
        steps = []
        for argv in case["steps"]:
            if children:
                child = subprocess.run([sys.executable, "-m", "dhq", *argv], capture_output=True,
                                       text=True)
                steps.append([child.returncode, child.stdout, child.stderr])
                continue
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = main(list(argv))
                except Exception:  # noqa: BLE001 - a traceback is an outcome to compare
                    traceback.print_exc()
                    code = "raised"
            steps.append([code, out.getvalue(), err.getvalue()])
        files = {f.relative_to(cwd).as_posix(): f.read_bytes() for f in sorted(cwd.rglob("*"))
                 if f.is_file()}
        written = {f: data.decode(errors="surrogateescape") for f, data in files.items()
                   if inputs.get(f) != data}
        results["cases"].append({"steps": steps, "files": written})
    out_file.write_text(json.dumps(results))


# A number token: not inside a word (t1b0, k12), but right after a digit when signed
# (the imaginary part of a text Gram cell, +1.0e-01+0.0e+00j).
_NUMBER = re.compile(r"(?<![\w.])[-+]?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?"
                     r"|(?<=\d)[-+]\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def _numeric_gap(a: str, b: str) -> float | None:
    """Largest |x - y| over paired number tokens when nothing else differs, else None."""
    if _NUMBER.split(a) != _NUMBER.split(b):
        return None
    gaps = (abs(float(x) - float(y)) for x, y in zip(_NUMBER.findall(a), _NUMBER.findall(b)))
    return max(gaps, default=0.0)


def _first_line(a: str, b: str) -> str:
    """The first differing line of a and b, cut to the neighbourhood of its first difference."""
    lines = itertools.zip_longest(a.splitlines(), b.splitlines(), fillvalue="")
    for n, (x, y) in enumerate(lines, 1):
        if x != y:
            at = next((i for i, (p, q) in enumerate(zip(x, y)) if p != q), min(len(x), len(y)))
            cut = slice(max(at - 40, 0), at + 40)
            return f"line {n}: {x[cut]!r} != {y[cut]!r}"
    return "line endings differ"


def compare(parent: dict, change: dict) -> tuple[str, str, float]:
    """(label, detail, largest numeric gap) of one case: its steps, and the files it wrote."""
    pairs = []
    for k, (p, c) in enumerate(zip(parent["steps"], change["steps"]), 1):
        if p[0] != c[0]:
            return "differs", f"step {k}: exit {p[0]} != {c[0]}", math.inf
        pairs += [(f"step {k} {what}", x, y)
                  for what, x, y in zip(("stdout", "stderr"), p[1:], c[1:])]
    files = [sorted(side["files"]) for side in (parent, change)]
    if files[0] != files[1]:
        return "differs", f"written files {files[0]} != {files[1]}", math.inf
    pairs += [(f"file {f}", parent["files"][f], change["files"][f]) for f in files[0]]
    label, detail, worst = "identical", "", 0.0
    for where, x, y in pairs:
        if x == y:
            continue
        gap = _numeric_gap(x, y)
        if gap is None:
            return "differs", f"{where}, {_first_line(x, y)}", math.inf
        if gap >= worst:
            label, detail, worst = "numeric", f"{where}, max |diff| {gap:.3e}", gap
    return label, detail, worst


def _run(tmp: Path, sides: dict, cases: list, children: bool, blas: int) -> dict | None:
    """{side: its result per case}, each side's tree (its src dir) run in a child of its own,
    the change side's with `blas` BLAS threads; None, said on stderr, when a child fails or
    imports dhq from elsewhere."""
    (tmp / "cases.json").write_text(json.dumps(cases, default=str))
    procs = [_child(src, tmp / "cases.json", tmp / f"run-{s}", tmp / f"{s}.json", children,
                    blas if s == "change" else 1) for s, src in sides.items()]
    if any([proc.wait() for proc in procs]):  # each waited for, before tmp goes
        print("identity: a child failed", file=sys.stderr)
        return None
    runs = {s: json.loads((tmp / f"{s}.json").read_text()) for s in sides}
    for s, src in sides.items():
        if not Path(runs[s]["dhq"]).resolve().is_relative_to(src.resolve()):
            print(f"identity: the {s} child imported {runs[s]['dhq']}", file=sys.stderr)
            return None
    return {s: run["cases"] for s, run in runs.items()}


def _child(tree_src: Path, cases_file: Path, workdir: Path, out_file: Path,
           children: bool, blas: int) -> subprocess.Popen:
    """A child running every case on the tree whose package is tree_src/dhq, with `blas`
    BLAS threads."""
    threads = str(blas)
    env = dict(os.environ, PYTHONPATH=str(tree_src), OPENBLAS_NUM_THREADS=threads,
               OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    workdir.mkdir()
    return subprocess.Popen([sys.executable, __file__, "--run-cases", str(cases_file),
                             str(workdir), str(out_file)] + ["--children"] * children, env=env)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    side = parser.add_mutually_exclusive_group(required=True)
    side.add_argument("--parent", metavar="REV", help="a revision of this repository")
    side.add_argument("--parent-src", metavar="DIR", type=Path,
                      help="a tree whose src/dhq is the parent side")
    side.add_argument("--record", metavar="FILE", type=Path,
                      help="write this tree's outputs of every case but workload/* to FILE")
    side.add_argument("--against", metavar="FILE", type=Path,
                      help="a record written by --record, the parent side")
    side.add_argument("--run-cases", nargs=3, type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--only", metavar="REGEX", help="run only the cases whose name matches")
    parser.add_argument("--tol", type=float, default=0.0,
                        help="largest absolute number difference that passes (default 0)")
    parser.add_argument("--blas", metavar="N", type=int, default=1,
                        help="BLAS threads of the change side (default 1)")
    parser.add_argument("--children", action="store_true",
                        help="run each command as its own `python -m dhq` process")
    args = parser.parse_args(argv)
    if args.blas < 1:
        parser.error(f"argument --blas: must be at least 1, got {args.blas}")
    if args.run_cases:
        run_cases(*args.run_cases, children=args.children)
        return 0
    if args.parent_src and not (args.parent_src / "src" / "dhq").is_dir():
        print(f"identity: {args.parent_src} holds no src/dhq", file=sys.stderr)
        return 1
    tmp = Path(tempfile.mkdtemp(prefix="dhq-identity-"))
    try:
        sides, record = {"change": ROOT / "src"}, None
        if args.parent:
            archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.parent, "src"],
                                     capture_output=True, check=True).stdout
            with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
                tar.extractall(tmp / "parent", filter="data")
            sides = {"parent": tmp / "parent" / "src", **sides}
        elif args.parent_src:
            sides = {"parent": args.parent_src.resolve() / "src", **sides}
        elif args.against:
            record = json.loads(lzma.decompress(args.against.read_bytes()))["cases"]
        with_workloads = not (args.record or args.against)  # they depend on the generator
        cases = corpus(tmp / "inputs", args.only, with_workloads)
        runs = _run(tmp, sides, cases, args.children, args.blas)
        if runs is None:
            return 1
        commands = sum(len(c["steps"]) for c in cases)
        if args.record:
            text = json.dumps({"cases": {c["name"]: r for c, r in zip(cases, runs["change"])}})
            args.record.write_bytes(lzma.compress(text.encode()))
            print(f"identity: {len(cases)} cases, {commands} commands recorded")
            return 0
        if record is not None:
            runs["parent"] = [record.get(c["name"]) for c in cases]
        counts = dict.fromkeys(("identical", "numeric", "differs"), 0)
        failed, worst = 0, 0.0
        keep = re.compile(args.only or "").search
        names = {c["name"] for c in cases}
        for name in (n for n in record or () if keep(n) and n not in names):
            print(f"{'differs':9} {name}: not in the corpus")
            counts["differs"] += 1
            failed += 1
        for i, case in enumerate(cases):
            parent, change = runs["parent"][i], runs["change"][i]
            label, detail, gap = (compare(parent, change) if parent is not None
                                  else ("differs", "not in the record", math.inf))
            counts[label] += 1
            if label == "numeric":
                worst = max(worst, gap)
            if label != "identical":
                print(f"{label:9} {case['name']}: {detail}")
            failed += label != "identical" and not (label == "numeric" and 0 < args.tol >= gap)
        numeric = f" (max |diff| {worst:.3e})" if counts["numeric"] else ""
        print(f"identity: {len(cases)} cases, {commands} commands: "
              f"{counts['identical']} identical, {counts['numeric']} numeric{numeric}, "
              f"{counts['differs']} differs")
        return 1 if failed else 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
