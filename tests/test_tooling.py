"""Checks on files next to the package: README examples and benchmark hooks."""

import json
import re
from pathlib import Path

from dhq.realms import retrodict
from dhq.scenario import scenario_from_dict

ROOT = Path(__file__).resolve().parent.parent


def test_readme_json_blocks_load():
    blocks = re.findall(r"```json\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert blocks
    for block in blocks:
        sc = scenario_from_dict(json.loads(block))
        if sc.has_data:
            rows = retrodict(sc.grid, sc.data_name, sc.data_time)
            assert abs(sum(p for _, _, p in rows) - 1.0) <= 1e-10


def test_benchmark_trace_hooks_bind(monkeypatch):
    # The traced benchmark run rebinds dhq names from outside; a refactor that
    # unbinds one of them breaks that run, so install and restore here.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing

    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
    finally:
        tracer.restore()
