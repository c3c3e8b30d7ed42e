"""dhq benchmark: seeded `dhq --format json` command scripts, timed end to end.

Run from the root of a dhq checkout:

    python3 perfbench/run.py --workload realm-ops --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

--trace 0 runs the workload's commands as child processes in a closed loop
with one client (the next command starts when the previous one exits), checks
every output, and reports the end-to-end metrics.  --trace 1 runs the same
commands in-process through dhq.cli.main, with the public functions of each
dhq module wrapped from outside, and reports the per-layer metrics.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import os

# One fixed BLAS/OpenMP thread count for this process and every child, set
# before numpy loads.  1 <= nproc everywhere and keeps eigh timings steady.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import gate  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
# Inputs are generated at least SETUP_REPEATS times and for SETUP_SECONDS;
# one generation varies by a quarter, and realm-ops' takes 40 ms.
SETUP_REPEATS = 7
SETUP_SECONDS = 3.0
# Median wall time of the calibration child (calibrate.py) on the host the
# benchmark was defined on: 2 vCPUs of a shared Intel Xeon host, Python 3.11,
# numpy 2.4.6 with OpenBLAS 0.3.31, one BLAS thread.  setup_s is scaled to it.
CAL_REF_S = 0.23
LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
# Commands measured per run at least, whatever --seconds says; the tail
# percentile is fixed per workload from this count (see tail_percentile).
MIN_COMMANDS = {"dense-io": 40, "evolve-gram": 40, "realm-ops": 60}
# The calibration child runs after every CAL_EVERY-th command (counted across
# passes): some twenty to forty of them a run, whose median is the run's time
# unit.  Its samples vary by a fifth, so the median needs that many.
CAL_EVERY = {"dense-io": 1, "evolve-gram": 1, "realm-ops": 3}

END_TO_END = {  # name -> unit; *_rel are in units of the calibration child's wall time
    "wall_rel": "ratio", "cmd_p50_rel": "ratio", "cmd_tail_rel": "ratio", "peak_rss_mb": "MB",
    "setup_s": "s",
}


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten of n samples beyond it."""
    ok = [p for p in LADDER if n - math.ceil(p / 100.0 * n) >= 10]
    return max(ok) if ok else 50.0


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(p / 100.0 * len(s)) - 1)]


def environment(seed: int) -> dict:
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
        mem_kb = int(Path("/proc/meminfo").read_text().split()[1])
    except (OSError, ValueError, IndexError):
        mem_kb = 0
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
        "ram_gb": round(mem_kb / 2**20, 2),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(BLAS_THREADS),
        "clients": 1,
        "loop": "closed",
    }


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv, cwd: Path, env: dict, stderr_path: Path):
    """(wall s, max RSS MB, exit code, stdout) of one child process."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=err)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode, out.decode()


def load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text())


def calibrate(workdir: Path, env: dict) -> float:
    """Wall seconds of one calibration child (perfbench/calibrate.py, no dhq code)."""
    wall, _, code, _ = run_child([sys.executable, str(HERE / "calibrate.py")], workdir, env,
                                 workdir / "stderr.txt")
    if code != 0:
        raise RuntimeError(f"calibration child exited {code}: "
                           f"{(workdir / 'stderr.txt').read_text()[-400:]}")
    return wall


def setup(name: str, seed: int, workdir: Path, scale: str, repeats: int = SETUP_REPEATS,
          min_seconds: float = SETUP_SECONDS):
    """Generate the inputs at least `repeats` times and for at least
    `min_seconds`; (commands, seconds of each generation)."""
    times = []
    while len(times) < repeats or sum(times) < min_seconds:
        start = time.perf_counter()
        cmds = workloads.build(name, seed, workdir, scale)
        times.append(time.perf_counter() - start)
    for cmd in cmds:
        cmd.finish()
    return cmds, times


def gate_one(cmd, code, out, reference, failures) -> bool:
    errors = gate.check(cmd, code, out, reference.get(cmd.key) if cmd.fixed else None,
                        workloads.TOL)
    if cmd.fixed and cmd.key not in reference:
        errors.append("no recorded reference for this command")
    if errors:
        failures.append((cmd.key, errors))
    return not errors


def measure(cmds, root: Path, workdir: Path, seconds: float, min_commands: int, cal_every: int,
            reference: dict):
    """Closed loop over whole passes until `seconds` and `min_commands` are reached.

    The calibration child runs after every `cal_every`-th command.  Returns per
    pass the command walls, the calibration walls and the largest command max RSS.
    """
    env = child_env(root)
    base = [sys.executable, "-m", "dhq", "--format", "json"]
    passes, failures = [], []
    attempted = 0
    start = time.perf_counter()
    while True:
        walls, cals, pass_rss = [], [], 0.0
        for cmd in cmds:
            wall, rss, code, out = run_child(base + cmd.argv, workdir, env, workdir / "stderr.txt")
            attempted += 1
            if not gate_one(cmd, code, out, reference, failures):
                failures[-1][1].append((workdir / "stderr.txt").read_text()[-400:])
            walls.append(wall)
            if attempted % cal_every == 0:
                cals.append(calibrate(workdir, env))
            pass_rss = max(pass_rss, rss)
        passes.append((walls, cals, pass_rss))
        if time.perf_counter() - start >= seconds and attempted >= min_commands:
            return passes, attempted, failures


def end_to_end(name, seed, seconds, root, workdir, scale, reference):
    cmds, setup_times = setup(name, seed, workdir, scale)
    full = scale == "full"
    min_commands = MIN_COMMANDS[name] if full else len(cmds)
    passes, attempted, failures = measure(cmds, root, workdir, seconds, min_commands,
                                          CAL_EVERY[name] if full else 1, reference)
    p_tail = tail_percentile(min_commands)
    walls = [x for w, _, _ in passes for x in w]
    cals = [x for _, c, _ in passes for x in c]
    # Each command's median over passes.  Their sum is one pass's wall time,
    # less sensitive to one slow command than a pass sum.  Their median is the
    # typical command: the script's commands differ in cost several-fold, and a
    # median over all samples sits between two of them and swings with the
    # few samples that land at that boundary.
    per_cmd = [statistics.median(w) for w in zip(*(w for w, _, _ in passes))]
    raw = {
        "wall_s": sum(per_cmd),
        "cmd_p50_s": statistics.median(per_cmd),
        "cmd_tail_s": percentile(walls, p_tail),
        "setup_s": statistics.median(setup_times),
        "calibration_s": statistics.median(cals),
    }
    # Times in units of the run's median calibration wall, so that the host's
    # speed drift between runs cancels; setup_s in seconds of a host where the
    # calibration child takes CAL_REF_S.  The raw seconds are printed too.
    unit = raw["calibration_s"]
    metrics = {
        "wall_rel": raw["wall_s"] / unit,
        "cmd_p50_rel": raw["cmd_p50_s"] / unit,
        "cmd_tail_rel": raw["cmd_tail_s"] / unit,
        "peak_rss_mb": statistics.median(r for _, _, r in passes),
        "setup_s": raw["setup_s"] * CAL_REF_S / unit,
    }
    notes = {
        "passes": len(passes),
        "commands_per_pass": len(cmds),
        "commands": len(walls),
        "calibrations": len(cals),
        "cmd_tail_percentile": p_tail,
        "commands_beyond_tail": sum(w > raw["cmd_tail_s"] for w in walls),
        "setup_repeats": len(setup_times),
        "raw": {k: round(v, 6) for k, v in raw.items()},
    }
    samples = {"wall_rel": len(passes), "cmd_p50_rel": len(walls), "cmd_tail_rel": len(walls),
               "peak_rss_mb": len(passes), "setup_s": len(setup_times)}
    return metrics, END_TO_END, samples, notes, attempted, failures


def per_layer(name, seed, seconds, root, workdir, scale, reference):
    import tracing

    cmds, _ = setup(name, seed, workdir, scale, repeats=1, min_seconds=0.0)
    failures = []
    metrics, samples, notes, attempted = tracing.traced_run(
        cmds, seconds, root, workdir, child_env(root),
        lambda cmd, code, out: gate_one(cmd, code, out, reference, failures),
        root / ".perfbench_out" / f"spans-{name}-{seed}.jsonl")
    return metrics, tracing.PER_LAYER, samples, notes, attempted, failures


def run(name, seed, seconds, trace, root: Path, scale="full"):
    """One benchmark run; returns (result line dict, human-readable lines)."""
    work_root = root / ".perfbench_work"
    workdir = work_root / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    reference = load_reference()
    try:
        if trace:
            metrics, units, samples, notes, attempted, failures = per_layer(
                name, seed, seconds, root, workdir, scale, reference)
        else:
            metrics, units, samples, notes, attempted, failures = end_to_end(
                name, seed, seconds, root, workdir, scale, reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    lines = [f"# environment {json.dumps(environment(seed), sort_keys=True)}",
             f"# workload {name}: {workloads.WORKLOADS[name]}",
             f"# run {json.dumps(notes, sort_keys=True)}"]
    for key in metrics:
        n = samples.get(key)
        lines.append(f"# {key} = {metrics[key]:.6g} {units[key]}" + (f" (n={n})" if n else ""))
    for key, value in notes.get("raw", {}).items():
        lines.append(f"# {key} = {value:.6g} s (raw seconds, not in calibration units)")
    lines.append(f"# failed_frac = {len(failures) / attempted:.6g} (n={attempted})")
    for key, errors in failures[:20]:
        lines.append(f"# FAILED {key}: {errors}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, lines


def smoke(root: Path) -> int:
    """Smallest sizes, every workload, both modes: metric names, units and the gate."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    ok = True
    for wl in spec["workloads"]:
        for trace in (0, 1):
            result, lines = run(wl["name"], 1, 0.0, trace, root, scale="smoke")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            problems = []
            if got != want[trace]:
                problems.append(f"metrics differ from BENCHMARK.json: missing "
                                f"{sorted(set(want[trace]) - set(got))}, extra "
                                f"{sorted(set(got) - set(want[trace]))}, units "
                                f"{sorted(k for k in got if k in want[trace] and got[k] != want[trace][k])}")
            if not result["correct"]:
                problems.append(f"{result['failed']} commands failed the gate")
            ok = ok and not problems
            print(f"smoke {wl['name']} trace={trace}: "
                  f"{'ok' if not problems else 'FAIL ' + '; '.join(problems)}")
            if problems:
                print("\n".join(lines))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at the smallest sizes and check the output")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "dhq" / "__init__.py").is_file():
        print("perfbench: run from the root of a dhq checkout (src/dhq not found)", file=sys.stderr)
        return 2
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(root / "src" / "dhq")],
                   check=True, stdout=subprocess.DEVNULL)
    if args.smoke:
        return smoke(root)
    if args.workload is None:
        parser.error("--workload is required")
    result, lines = run(args.workload, args.seed, args.seconds, args.trace, root)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
