"""Where ``src/envswitch`` makes an ``EngineConfig``, and which settings it
holds.

An ``EngineConfig`` is made only by ``cli.main``, which builds a run's
config, and ``config.load_config``, which reads one from a file.  No other
code constructs one, and no parameter or dataclass field names it as a
default, so each stack, round and evaluation reads the one config its run
was given.  The sources are read with ``ast``, so nothing is imported.

A field holds only what a run may vary; a fixed constant lives with the
code that reads it.  ``KEYS`` pins the ``section.key`` names of
``EngineConfig`` with the reason each stays a setting, one of

- ``bench: <file>``: the benchmark sets, reads or passes it;
- ``demo: <file>``: a demo sets or reads it;
- ``deployment``: each deployment sets its own (a library's capacity and
  identifier salt);
- ``tested: <file>::<function>``: that function of ``tests/<file>``
  passes the key, as a keyword argument, to a call whose behaviour stays;
  the test checks that the function exists and makes such a call.

A new setting fails the test until it is listed with its reason, and a
listed one that is gone fails it until its entry leaves.
"""

import ast
import dataclasses
import re
from pathlib import Path

from envswitch.config import EngineConfig

ROOT = Path(__file__).resolve().parent.parent
ALLOWED = {"cli.main", "config.load_config"}

RADIO = "bench: workloads.py passes cfg.radio to make_scenario and generate"
WALKER = "bench: workloads.py passes cfg.walker to make_scenario and generate"
USER = "bench: workloads.py user_config sets it per user"
BASELINE = "bench: workloads.py passes it to baseline_policy"
REWARD = ("tested: test_acceptance.py::test_criterion_5_ppo_correctness passes "
          "RewardConfig(eta=0.0, lam=1.0, gamma_hf=0.0) to ppo_update")
PPO = ("tested: test_acceptance.py::test_criterion_5_ppo_correctness passes another "
       "PpoConfig to ppo_update")
PPO_CLIPPED = ("tested: test_policy.py::TestClippedSurrogate::"
               "test_ppo_passes_no_gradient_through_the_clipped_term passes "
               "another PpoConfig to ppo_update")
REWARD_MODEL = ("tested: test_cloudedge.py::TestRewardModel::"
                "test_constant_target_regression passes another CloudEdgeConfig "
                "to fit_reward_model")

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
    "reward.eta": REWARD,
    "reward.lam": REWARD,
    "reward.gamma_hf": REWARD,
    "ppo.clip_eps": PPO,
    "ppo.discount": PPO_CLIPPED,
    "ppo.entropy_coef": PPO,
    "ppo.value_coef": PPO_CLIPPED,
    "ppo.epochs": PPO,
    "ppo.step_size": PPO,
    "cloudedge.distill_period": ("tested: test_cloudedge.py::TestRunRound::"
                                 "test_distill_period_one_distills_every_round "
                                 "passes it to run_round through small_cfg"),
    "cloudedge.episodes_per_edge": ("tested: test_cloudedge.py::small_cfg sets it "
                                    "for the rounds of test_cloudedge.py"),
    "cloudedge.hf_withheld_fraction": ("tested: test_cloudedge.py::TestRunRound::"
                                       "test_direct_hf_used_verbatim_model_fills_gaps "
                                       "passes it to run_round through small_cfg"),
    "cloudedge.reward_model_epochs": REWARD_MODEL,
    "cloudedge.reward_model_step": REWARD_MODEL,
}
# a ``tested:`` reason names the function that passes the key
TESTED = re.compile(r"tested: (\w+\.py)::([\w:]+) ")


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
           if not (why == "deployment"
                   or why.startswith(("bench: ", "demo: "))
                   or reason_holds(key, why))}
    assert bad == {}


def function_at(module: ast.Module, qualname: str):
    """The function ``qualname`` (``Class::function`` or ``function``)
    defines in ``module``, or None."""
    node = module
    for name in qualname.split("::"):
        node = next((child for child in node.body
                     if isinstance(child, (ast.ClassDef, ast.FunctionDef))
                     and child.name == name), None)
        if node is None:
            return None
    return node if isinstance(node, ast.FunctionDef) else None


def calls_a_config(node) -> bool:
    """``node`` is a call of a ``*Config`` class or of ``replace``."""
    func = getattr(node, "func", None)
    name = (func.id if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute) else "")
    return isinstance(node, ast.Call) and (name.endswith("Config")
                                           or name == "replace")


def forwarders(module: ast.Module) -> set:
    """Names of the module's functions that forward their ``**`` keywords
    into a config call, as ``test_cloudedge.py::small_cfg`` does."""
    names = set()
    for node in module.body:
        if not (isinstance(node, ast.FunctionDef) and node.args.kwarg):
            continue
        rest = node.args.kwarg.arg
        if any(calls_a_config(call) and any(
                kw.arg is None and isinstance(kw.value, ast.Name)
                and kw.value.id == rest for kw in call.keywords)
               for call in ast.walk(node)):
            names.add(node.name)
    return names


def reason_holds(dotted: str, why: str) -> bool:
    """The function a ``tested:`` reason names exists, and a call in it
    passes the key of ``dotted`` as a keyword argument to a ``*Config``
    class, to ``replace``, or to a function of the same module that
    forwards its ``**`` keywords into one of those."""
    named = TESTED.match(why)
    if named is None or not (ROOT / "tests" / named[1]).is_file():
        return False
    module = ast.parse((ROOT / "tests" / named[1]).read_text())
    func = function_at(module, named[2])
    if func is None:
        return False
    key, forwarding = dotted.partition(".")[2], forwarders(module)
    return any(
        (calls_a_config(node) or isinstance(node, ast.Call)
         and isinstance(node.func, ast.Name) and node.func.id in forwarding)
        and any(kw.arg == key for kw in node.keywords)
        for node in ast.walk(func))


def test_a_tested_reason_is_checked_per_key():
    # a reason that names no function, a function that is not there, or one
    # that passes other keys only, is refused
    assert reason_holds("reward.lam", REWARD)
    assert not reason_holds("reward.lam", "tested: test_cloudedge.py passes it")
    assert not reason_holds("reward.lam", "tested: test_policy.py::no_such_test x")
    assert not reason_holds("ppo.value_coef", PPO)


def test_a_keyword_counts_only_on_a_config_call():
    # criterion 5 passes hidden=16 to PolicyModel.from_seed, which is no
    # config: a ``ppo.hidden`` setting would not be pinned by it
    assert not reason_holds("ppo.hidden", PPO)
    # a keyword passed to a helper that forwards it into replace counts
    module = ast.parse((ROOT / "tests" / "test_cloudedge.py").read_text())
    assert "small_cfg" in forwarders(module)
    assert reason_holds("cloudedge.distill_period",
                        KEYS["cloudedge.distill_period"])
