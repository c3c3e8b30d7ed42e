"""Byte-identity differ: run one corpus of dhq commands on two trees and compare the outputs.

    python tools/identity.py --parent REV          # REV from this repository, via `git archive`
    python tools/identity.py --parent-src DIR      # DIR holds the parent's `src/dhq`
    python tools/identity.py --parent REV --only '^model/three-box/' --tol 1e-12

The change side is this working tree.  The corpus is built once: the three workloads of
`perfbench/workloads.py` at seeds 1 and 2, the built-in models with their dumps and the
commands run on them, `compat` of the three-box dumps, the README's `dhq` lines, the
hostile and broken-partition files the tests refuse, and the wide and chain files of the
realm tests (see `_files`).  Each tree runs every case in one child process through
`dhq.cli.main`, in a fresh working directory per case, with BLAS threads 1.  A case is one
or more commands run in order; the stdout, stderr and exit code of each and every file left
in its directory are compared.

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


def corpus(inputs: Path, only: str | None = None) -> list[dict]:
    """Every case as {"name", "inputs" (files copied into its directory), "steps" (argvs)}.

    Input files are written under `inputs`, once, and only for the cases `only` selects.
    """
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    keep = re.compile(only or "").search
    inputs.mkdir(parents=True)
    cases = []
    for name, seed in itertools.product(sorted(workloads.WORKLOADS), SEEDS):
        if not any(keep(f"workload/{name}/seed{seed}/{fmt}") for fmt in FORMATS):
            continue
        workdir = inputs / f"{name}-{seed}"
        workdir.mkdir()
        steps = [cmd.argv for cmd in workloads.build(name, seed, workdir)]
        files = sorted(workdir.iterdir())
        cases += [{"name": f"workload/{name}/seed{seed}/{fmt}", "inputs": files,
                   "steps": [flag + argv for argv in steps]} for fmt, flag in FORMATS.items()]
    cases += [{"name": n, "inputs": [], "steps": s} for n, s in _model_cases()]
    cases.append({"name": "readme", "inputs": [], "steps": _readme_lines()})
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
    finally:
        sys.set_int_max_str_digits(limit)
    return [c for c in cases if keep(c["name"])]


def run_cases(cases_file: Path, workdir: Path, out_file: Path) -> None:
    """The child: every case through `dhq.cli.main`, each in workdir/<index>, results as JSON."""
    import dhq
    from dhq.cli import main

    results = {"dhq": dhq.__file__, "cases": []}
    for i, case in enumerate(json.loads(cases_file.read_text())):
        cwd = workdir / f"{i:04d}"
        cwd.mkdir()
        for path in case["inputs"]:
            shutil.copyfile(path, cwd / Path(path).name)
        os.chdir(cwd)
        steps = []
        for argv in case["steps"]:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = main(list(argv))
                except Exception:  # noqa: BLE001 - a traceback is an outcome to compare
                    traceback.print_exc()
                    code = "raised"
            steps.append([code, out.getvalue(), err.getvalue()])
        results["cases"].append(steps)
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


def compare(parent: list, change: list, dirs: tuple[Path, Path]) -> tuple[str, str, float]:
    """(label, detail, largest numeric gap) of one case: its steps, and the files in `dirs`."""
    pairs = []
    for k, (p, c) in enumerate(zip(parent, change), 1):
        if p[0] != c[0]:
            return "differs", f"step {k}: exit {p[0]} != {c[0]}", math.inf
        pairs += [(f"step {k} {what}", x, y)
                  for what, x, y in zip(("stdout", "stderr"), p[1:], c[1:])]
    files = [sorted(f.relative_to(d).as_posix() for f in d.rglob("*") if f.is_file())
             for d in dirs]
    if files[0] != files[1]:
        return "differs", f"written files {files[0]} != {files[1]}", math.inf
    for f in files[0]:
        x, y = ((d / f).read_bytes() for d in dirs)
        if x != y:
            pairs.append((f"file {f}", x.decode(errors="replace"), y.decode(errors="replace")))
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


def _child(tree_src: Path, cases_file: Path, workdir: Path, out_file: Path) -> subprocess.Popen:
    """A child running every case on the tree whose package is tree_src/dhq."""
    env = dict(os.environ, PYTHONPATH=str(tree_src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    workdir.mkdir()
    return subprocess.Popen([sys.executable, __file__, "--run-cases", str(cases_file),
                             str(workdir), str(out_file)], env=env)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    side = parser.add_mutually_exclusive_group(required=True)
    side.add_argument("--parent", metavar="REV", help="a revision of this repository")
    side.add_argument("--parent-src", metavar="DIR", type=Path,
                      help="a tree whose src/dhq is the parent side")
    side.add_argument("--run-cases", nargs=3, type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--only", metavar="REGEX", help="run only the cases whose name matches")
    parser.add_argument("--tol", type=float, default=0.0,
                        help="largest absolute number difference that passes (default 0)")
    args = parser.parse_args(argv)
    if args.run_cases:
        run_cases(*args.run_cases)
        return 0
    if args.parent_src and not (args.parent_src / "src" / "dhq").is_dir():
        print(f"identity: {args.parent_src} holds no src/dhq", file=sys.stderr)
        return 1
    tmp = Path(tempfile.mkdtemp(prefix="dhq-identity-"))
    try:
        if args.parent:
            archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.parent, "src"],
                                     capture_output=True, check=True).stdout
            with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
                tar.extractall(tmp / "parent", filter="data")
            parent_src = tmp / "parent" / "src"
        else:
            parent_src = args.parent_src.resolve() / "src"
        cases = corpus(tmp / "inputs", args.only)
        (tmp / "cases.json").write_text(json.dumps(cases, default=str))
        sides = {"parent": parent_src, "change": ROOT / "src"}
        children = [_child(src, tmp / "cases.json", tmp / f"run-{s}", tmp / f"{s}.json")
                    for s, src in sides.items()]
        if any([child.wait() for child in children]):  # each waited for, before tmp goes
            print("identity: a child failed", file=sys.stderr)
            return 1
        runs = {s: json.loads((tmp / f"{s}.json").read_text()) for s in sides}
        for s, src in sides.items():
            if not Path(runs[s]["dhq"]).resolve().is_relative_to(src.resolve()):
                print(f"identity: the {s} child imported {runs[s]['dhq']}", file=sys.stderr)
                return 1
        counts = dict.fromkeys(("identical", "numeric", "differs"), 0)
        failed, worst = 0, 0.0
        for i, case in enumerate(cases):
            dirs = (tmp / "run-parent" / f"{i:04d}", tmp / "run-change" / f"{i:04d}")
            label, detail, gap = compare(*(runs[s]["cases"][i] for s in sides), dirs)
            counts[label] += 1
            if label == "numeric":
                worst = max(worst, gap)
            if label != "identical":
                print(f"{label:9} {case['name']}: {detail}")
            failed += label != "identical" and not (label == "numeric" and 0 < args.tol >= gap)
        commands = sum(len(c["steps"]) for c in cases)
        numeric = f" (max |diff| {worst:.3e})" if counts["numeric"] else ""
        print(f"identity: {len(cases)} cases, {commands} commands: "
              f"{counts['identical']} identical, {counts['numeric']} numeric{numeric}, "
              f"{counts['differs']} differs")
        return 1 if failed else 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
