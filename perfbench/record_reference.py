"""Record reference.json: outputs of the seed-independent commands at this commit.

Run from the root of a dhq checkout:  python3 perfbench/record_reference.py
The gate then requires every verdict, scalar and table row of those commands
to stay within 1e-12 of the recorded values.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import gate
import run
import workloads


def main() -> int:
    root = Path.cwd()
    workdir = root / ".perfbench_work" / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    env = run.child_env(root)
    reference = {}
    try:
        for scale in workloads.SIZES:
            for name in workloads.WORKLOADS:
                for cmd in workloads.build(name, 1, workdir, scale):
                    argv = [sys.executable, "-m", "dhq", "--format", "json"] + cmd.argv
                    _, _, code, out = run.run_child(argv, workdir, env, workdir / "stderr.txt")
                    if cmd.fixed:
                        if code != cmd.exit_code:
                            raise SystemExit(f"{cmd.key}: exit code {code}")
                        reference[cmd.key] = gate.summary(json.loads(out))
    finally:
        shutil.rmtree(workdir.parent, ignore_errors=True)
    path = Path(__file__).resolve().parent / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(reference)} commands to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
