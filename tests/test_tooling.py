"""Checks on files next to the package: README examples and benchmark hooks."""

import ast
import importlib
import json
import pkgutil
import re
import tomllib
from pathlib import Path

import dhq
from dhq.cli import main
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


def test_readme_module_names_resolve():
    # A constant or function that moves or goes away must not stay named in the README.
    modules = {m.name for m in pkgutil.iter_modules(dhq.__path__)}
    names = re.findall(r"`(\w+)\.(\w+)`", (ROOT / "README.md").read_text())
    named = [(mod, name) for mod, name in names if mod in modules]
    assert named
    missing = [f"{mod}.{name}" for mod, name in named
               if not hasattr(importlib.import_module(f"dhq.{mod}"), name)]
    assert missing == []


def test_readme_cli_lines_exit_zero(capsys, tmp_path, monkeypatch):
    # Every `dhq ...` line of the README's command block, in order, in one directory.
    readme = (ROOT / "README.md").read_text()
    block = next(b for b in re.findall(r"```\n(.*?)```", readme, re.S) if b.startswith("dhq "))
    lines = [line.split("#")[0].split() for line in block.splitlines()]
    assert len(lines) == 13 and all(argv[0] == "dhq" for argv in lines)
    monkeypatch.chdir(tmp_path)
    for argv in lines:
        assert main(argv[1:]) == 0, argv
    capsys.readouterr()


def test_benchmark_trace_hooks_bind(monkeypatch, tmp_path, capsys):
    # The traced benchmark run rebinds dhq names from outside (the scenario
    # module's `json` becomes a proxy holding only loads, dumps and
    # JSONDecodeError); a refactor that unbinds or outgrows one of them breaks
    # that run, so dump and check a scenario through the hooks here.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing

    from dhq.cli import main

    path = tmp_path / "box.json"
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        tracer.cmd = 0
        assert main(["model", "three-box", "--realm", "past_A", "--dump", str(path)]) == 0
        assert main(["check", str(path)]) == 0
        # Screen bins are basis projectors: their validation must still be traced.
        tracer.cmd = 1
        assert main(["model", "two-slit", "--bins", "4"]) == 0
        # Reports built from branch rows, coarse and conditioned, must still be traced.
        tracer.cmd = 2
        assert main(["retrodict", str(path)]) == 0
        assert main(["predict", str(path), "--data", "A@1.0"]) == 0
        assert main(["condition", str(path), "--given", "Phi@2.0", "--target", "A@1.0"]) == 0
        slits = tmp_path / "slits.json"
        assert main(["model", "two-slit", "--bins", "4", "--dump", str(slits)]) == 0
        assert main(["coarse", str(slits), "--partition", "merge-slits"]) == 0
        # The spin-env state-vector figures and its dense grid must still be traced.
        tracer.cmd = 3
        assert main(["model", "spin-env", "--n-env", "2"]) == 0
        spin = tmp_path / "spin.json"
        assert main(["model", "spin-env", "--n-env", "2", "--dump", str(spin)]) == 0
    finally:
        tracer.cmd = None
        tracer.restore()
    capsys.readouterr()
    recorded = {span[0] for span in tracer.spans}
    assert {"scenario.decode", "scenario.load", "scenario.dump", "histories.set_validate",
            "linalg.projector_validate"} <= recorded
    realm_ops = {span[0] for span in tracer.spans if span[4] == 2}
    assert {"decoherence.report_check", "decoherence.offdiag", "realms.coarse",
            "realms.conditioned"} <= realm_ops
    assert [span[0] for span in tracer.spans if span[4] == 2].count("realms.conditioned") >= 3
    two_slit = [span[0] for span in tracer.spans if span[4] == 1]
    assert two_slit.count("linalg.projector_validate") >= 4 + 2
    assert two_slit.count("histories.set_validate") >= 2
    spin_env = [span[0] for span in tracer.spans if span[4] == 3]
    # spin_environment twice and _build_grid once; one off-diagonal per scenario.
    assert spin_env.count("models.build") >= 3
    assert spin_env.count("decoherence.offdiag") >= 2


def test_imports_kept_for_the_tracer_are_rebound(monkeypatch):
    # An import kept only so that perfbench/tracing.py can rebind it is dead once the
    # tracer stops doing so: each must name an attribute `tracing.install` rebinds.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing

    kept = []
    for path in sorted((ROOT / "src" / "dhq").glob("*.py")):
        for line in path.read_text().splitlines():
            if "noqa: F401" in line and "perfbench/tracing.py" in line:
                kept.append((path.stem, re.fullmatch(r"\s*(\w+),\s*#.*", line).group(1)))
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        rebound = {(owner.__name__.rpartition(".")[2], attr) for owner, attr, _ in tracer._undo}
    finally:
        tracer.restore()
    assert [k for k in kept if k not in rebound] == []


def _calls(tree):
    """(enclosing function or None, dotted callee) of every call in a module's tree."""
    found = []

    def visit(node, func):
        if isinstance(node, ast.Call):
            found.append((func, ast.unparse(node.func)))
        for child in ast.iter_child_nodes(node):
            visit(child, child.name if isinstance(child, ast.FunctionDef) else func)

    visit(tree, None)
    return found


def test_every_entry_point_reaches_the_one_exit_function():
    # `dhq`, `python -m dhq` and `cli.py` run as a script all end the process through
    # `cli.run`, and nothing else in the package ends it: a second exit path would
    # either skip the flush before os._exit or bring back the interpreter's teardown.
    src = ROOT / "src" / "dhq"
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    assert scripts == {"dhq": "dhq.cli:run"}
    package_main = ast.parse((src / "__main__.py").read_text())
    assert [ast.unparse(n) for n in package_main.body] == [
        "import gc", "gc.disable()", "from .cli import run", "run()"]
    cli = ast.parse((src / "cli.py").read_text())
    guard = cli.body[-1]
    assert ast.unparse(guard.test) == "__name__ == '__main__'"
    assert [ast.unparse(n) for n in guard.body] == ["run()"]
    exits = [(path.stem, func, callee) for path in sorted(src.glob("*.py"))
             for func, callee in _calls(ast.parse(path.read_text()))
             if callee in ("os._exit", "sys.exit", "exit", "quit", "os.abort")]
    assert exits == [("cli", "run", "os._exit")]


_CACHES = {"cached_property", "cache", "lru_cache"}


def _functools_caches(source: str) -> list[str]:
    """The `functools` caches a module's source names, imported or as attributes."""
    tree = ast.parse(source)
    modules = {a.asname or a.name for n in ast.walk(tree) if isinstance(n, ast.Import)
               for a in n.names if a.name == "functools"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [a.name for a in node.names if a.name in _CACHES]
        elif (isinstance(node, ast.Attribute) and node.attr in _CACHES
              and isinstance(node.value, ast.Name) and node.value.id in modules):
            found.append(node.attr)
    return found


def test_engine_keeps_no_cache():
    # A cache writes a value after its constructor returns, and holds memory no caller
    # asked for; one that comes back must come with a change to this test saying why.
    assert _functools_caches("from functools import reduce, cached_property") == ["cached_property"]
    assert _functools_caches("import functools as f\n@f.lru_cache\ndef g(): pass") == ["lru_cache"]
    assert _functools_caches("import functools\nx = functools.cache") == ["cache"]
    found = [(path.stem, name) for path in sorted((ROOT / "src" / "dhq").glob("*.py"))
             for name in _functools_caches(path.read_text())]
    assert found == []


def test_histories_are_listed_only_by_the_fine_report():
    # Partitions, conditions and checks work on flat indices and masks: only the fine
    # report lists a grid's histories (and the sum-rule oracle may), and no history is
    # held in a frozenset.
    calls = [(path.stem, func, callee.rpartition(".")[2])  # `histories.f(...)` is a call of f
             for path in sorted((ROOT / "src" / "dhq").glob("*.py"))
             for func, callee in _calls(ast.parse(path.read_text()))]
    listing = {(stem, func) for stem, func, callee in calls if callee == "enumerate_histories"}
    assert ("decoherence", "decoherence_functional") in listing
    assert listing <= {("decoherence", "decoherence_functional"),
                       ("decoherence", "check_sum_rules")}
    assert [c for c in calls if c[2] == "frozenset"] == []
    # The scan sees both kinds of call.
    sample = _calls(ast.parse("def f():\n    return frozenset(enumerate_histories(g))"))
    assert sample == [("f", "frozenset"), ("f", "enumerate_histories")]
