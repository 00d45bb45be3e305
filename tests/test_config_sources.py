"""Where ``src/envswitch`` makes an ``EngineConfig``, and which settings it
holds.

An ``EngineConfig`` is made only by ``cli.main``, which builds a run's
config, and ``config.load_config``, which reads one from a file.  No other
code constructs one, and no parameter or dataclass field names it as a
default, so each stack, round and evaluation reads the one config its run
was given.  The sources are read with ``ast``, so nothing is imported.

A field holds only what a run may vary; a fixed constant lives with the
code that reads it, and a test varies it by rebinding it.  ``KEYS`` pins
the ``section.key`` names of ``EngineConfig`` with the reason each stays a
setting, one of

- ``bench: <file>``: the benchmark sets, reads or passes it;
- ``deployment``: each deployment sets its own (a library's capacity and
  identifier salt).

A new setting fails the test until it is listed with its reason, and a
listed one that is gone fails it until its entry leaves.
"""

import ast
import dataclasses
from pathlib import Path

from envswitch.config import EngineConfig

ROOT = Path(__file__).resolve().parent.parent
ALLOWED = {"cli.main", "config.load_config"}

RADIO = "bench: workloads.py passes cfg.radio to make_scenario and generate"
WALKER = "bench: workloads.py passes cfg.walker to make_scenario and generate"
USER = "bench: workloads.py user_config sets it per user"
BASELINE = "bench: workloads.py passes it to baseline_policy"

KEYS = {
    "window.buffer_windows": "bench: run.py reads WindowConfig().buffer_windows",
    "library.capacity": "deployment",
    "library.salt": "deployment",
    "match.band": "bench: workloads.py passes cfg.match.band to MatcherStack",
    "radio.pl0_db": RADIO,
    "radio.exponent_indoor": RADIO,
    "radio.exponent_outdoor": RADIO,
    "radio.wall_db": RADIO,
    "walker.speed_mps": USER,
    "walker.pause_s": WALKER,
    "walker.stride_m": USER,
    "baseline.threshold_dbm": BASELINE,
    "baseline.hysteresis_db": BASELINE,
    "baseline.dwell_s": BASELINE,
    "baseline.assoc_delay_s": BASELINE,
}


def is_engine_config(node) -> bool:
    """``node`` is the name ``EngineConfig`` or an attribute of that name."""
    return ((isinstance(node, ast.Name) and node.id == "EngineConfig")
            or (isinstance(node, ast.Attribute) and node.attr == "EngineConfig"))


def defaults(node):
    """The expressions that ``node`` sets as default values."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        yield from node.args.defaults
        yield from (d for d in node.args.kw_defaults if d is not None)
    elif isinstance(node, ast.keyword) and node.arg in ("default", "default_factory"):
        yield node.value


def config_sources(path: Path):
    """(scope, what) of every place in ``path`` that constructs an
    ``EngineConfig`` or names it in a default; the scope is the module stem
    and the enclosing classes and functions, dotted."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        if isinstance(node, ast.Call) and is_engine_config(node.func):
            found.append((scope, "constructs"))
        if any(is_engine_config(n) for d in defaults(node) for n in ast.walk(d)):
            found.append((scope, "default"))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text()), path.stem)
    return found


def test_only_the_entry_points_make_an_engine_config():
    found = [site for path in sorted((ROOT / "src" / "envswitch").glob("*.py"))
             for site in config_sources(path)]
    assert [site for site in found if site[0] not in ALLOWED] == []
    # the allowed sources are seen, so the guard reads the code as intended
    assert {scope for scope, _ in found} == ALLOWED


def test_the_guard_sees_each_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from dataclasses import dataclass, field\n"
        "from . import config\n"
        "@dataclass\n"
        "class Stack:\n"
        "    cfg: EngineConfig = field(default_factory=EngineConfig)\n"
        "def run(cfg: EngineConfig = None, *, base=EngineConfig):\n"
        "    return replace(cfg)\n"
        "def build(cfg: EngineConfig):\n"
        "    return config.EngineConfig(window=cfg.window)\n")
    assert config_sources(probe) == [("probe.Stack", "default"),
                                     ("probe.run", "default"),
                                     ("probe.build", "constructs")]


def test_the_config_surface_is_pinned():
    keys = {f"{section.name}.{key.name}"
            for section in dataclasses.fields(EngineConfig)
            for key in dataclasses.fields(section.type)}
    assert keys == set(KEYS)
    bad = {key: why for key, why in KEYS.items()
           if not (why == "deployment" or why.startswith("bench: "))}
    assert bad == {}

