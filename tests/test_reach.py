"""Reachability ratchet: every function in ``src/envswitch`` that the
pipeline never calls is listed in ``UNCALLED`` with the reason it stays.

The test runs ``cli.main`` simulate (one session per site), train (two
rounds) and evaluate (two sessions per site) under ``sys.setprofile``, with a
``--config`` file that sets a default value so ``load_config`` runs, and
records every Python function called.  The functions that the sources define
(read with ``ast``, methods and nested functions included) and that were
never called must equal ``UNCALLED``: a new function the pipeline does not
call fails the test, and so does an entry whose function is now called or
gone.  Each reason is one of

- ``bench: <file/binding>``: the benchmark reads or rebinds the name;
- ``oracle: <test>``: a test compares the pipeline against it;
- ``test/demo helper``: kept for exactly the three ``zeros`` model
  constructors (``HELPERS``), which test fixtures and demo 01 build models
  with.  A second test checks that no other function takes this reason: a
  function that only tests or demos use belongs in ``tests/``.

An entry leaves when its reason ends (its function is then deleted or moved
to ``tests/``), and CHANGES.md says why for any entry added.  There are 24.

A second check works on attributes: every attribute a class in
``src/envswitch`` stores (a dataclass field, a ``__slots__`` entry or a
``self.x = ...`` store in a method) must be read, as ``obj.x``, somewhere in
``src/``, ``bench/`` or ``demos/``.  It matches by name only, so a read of
another class's attribute of the same name counts.

A third check works on parameters: every parameter of every function in
``src/envswitch`` must be read in that function's body (a nested function
reading it counts), except a method's receiver and the entries of
``UNREAD_PARAMETERS``, each listed with the reason it stays.
"""

import ast
import os
import sys
from pathlib import Path

import envswitch
import envswitch.cli as cli

SRC = Path(envswitch.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]

SPANS_TRAIN_METRIC = "bench: spans.py binds envswitch.cli.train_metric, which calls it"
WINDOW_ORACLE = ("oracle: test_sim.py::TestWindowOracle::"
                 "test_fingerprint_at_equals_summarize_window")
FILTER_ORACLE = "oracle: test_acceptance.py::test_criterion_3_filter_properties"
HELPER = "test/demo helper"
HELPERS = {"filters.SelectorModel.zeros", "mlp.TwoLayerNet.zeros",
           "policy.PolicyModel.zeros"}

UNCALLED = {
    "alignment.MetricModel.copy": SPANS_TRAIN_METRIC,
    "alignment.MetricModel.from_seed": "bench: oracle.py MetricModel.from_seed(..., noise=)",
    "alignment.MetricModel.from_vector": SPANS_TRAIN_METRIC,
    "alignment.MetricModel.weights": "bench: oracle.py cell_cost reads metric.weights",
    "alignment.cell_cost": ("oracle: test_alignment.py::TestBatchedDtw::"
                            "test_stacked_kernel_equals_cell_cost"),
    "alignment.cost_matrix": "bench: spans.py binds envswitch.alignment.cost_matrix",
    "alignment.dtw": "bench: oracle.py and spans.py envswitch.alignment.dtw",
    "alignment.margin_loss_grads": ("oracle: test_acceptance.py::"
                                    "test_criterion_4_metric_learning_sanity"),
    "alignment.soft_dtw": "bench: spans.py binds envswitch.alignment.soft_dtw",
    "alignment.train_metric": "bench: spans.py binds envswitch.cli.train_metric",
    "cloudedge.offline_update": "bench: spans.py binds envswitch.cli.offline_update",
    "filters.SelectorModel.zeros": HELPER,
    "filters.apply_elp": FILTER_ORACLE,
    "filters.apply_gaussian": FILTER_ORACLE,
    "filters.apply_kalman": FILTER_ORACLE,
    "fingerprints.FingerprintLibrary.__iter__": ("bench: workloads.py Device.run joins "
                                                 "stack.library's ids into its digest"),
    "fingerprints.RawWindow.duration": WINDOW_ORACLE,
    "fingerprints.cell_features": WINDOW_ORACLE,
    "fingerprints.gnss_features": WINDOW_ORACLE,
    "fingerprints.pdr_features": WINDOW_ORACLE,
    "fingerprints.summarize_window": WINDOW_ORACLE,
    "fingerprints.wifi_features": WINDOW_ORACLE,
    "mlp.TwoLayerNet.zeros": HELPER,
    "policy.PolicyModel.zeros": HELPER,
}

UNREAD_PARAMETERS = {
    "policy.rollout(scenario)": "bench: workloads.py passes the scenario of its trace",
    "sim.make_scenario(radio)": "bench: workloads.py passes cfg.radio positionally",
    "policy.trigger_guide.<locals>.guide(t)": ("the ScriptedPolicy protocol: a "
                                              "guide is called as guide(t, state)"),
}


def defined_functions():
    """``(file, code qualname) -> module.qualname`` of every function and
    method the sources define."""
    out = {}
    for path in sorted(SRC.glob("*.py")):

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    out[(str(path), prefix + child.name)] = (
                        f"{path.stem}.{prefix}{child.name}")
                    walk(child, f"{prefix}{child.name}.<locals>.")
                elif isinstance(child, ast.ClassDef):
                    walk(child, f"{prefix}{child.name}.")

        walk(ast.parse(path.read_text(encoding="utf-8")), "")
    return out


def unread_parameters():
    """``module.qualname(parameter)`` of every parameter of a function or
    lambda in the sources that no ``Name`` in its body reads; the first
    parameter of a method, its receiver, is not counted."""
    out = set()
    for path in sorted(SRC.glob("*.py")):

        def walk(node, prefix, in_class):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    name = prefix + getattr(child, "name", "<lambda>")
                    a = child.args
                    params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
                    params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
                    body = child.body if isinstance(child.body, list) else [child.body]
                    read = {n.id for stmt in body for n in ast.walk(stmt)
                            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                    out.update(f"{path.stem}.{name}({p})"
                               for p in params[1 if in_class else 0:] if p not in read)
                    walk(child, f"{name}.<locals>.", False)
                elif isinstance(child, ast.ClassDef):
                    walk(child, f"{prefix}{child.name}.", True)
                else:
                    walk(child, prefix, False)

        walk(ast.parse(path.read_text(encoding="utf-8")), "", False)
    return out


def _is_dataclass(cls):
    for dec in cls.decorator_list:
        fn = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(fn, "id", getattr(fn, "attr", None)) == "dataclass":
            return True
    return False


def stored_attributes():
    """``attribute -> {module.Class}`` for every attribute a class in the
    sources stores: its dataclass fields, its ``__slots__`` and each
    ``self.x = ...`` (or ``self.x += ...``) in its methods."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(cls, ast.ClassDef):
                continue
            names = []
            for node in cls.body:
                if (isinstance(node, ast.AnnAssign) and _is_dataclass(cls)
                        and isinstance(node.target, ast.Name)):
                    names.append(node.target.id)
                elif isinstance(node, ast.Assign) and any(
                        getattr(t, "id", None) == "__slots__" for t in node.targets):
                    names += [elt.value for elt in node.value.elts]
                elif isinstance(node, ast.FunctionDef) and node.args.args:
                    me = node.args.args[0].arg
                    names += [n.attr for n in ast.walk(node)
                              if isinstance(n, ast.Attribute)
                              and isinstance(n.ctx, ast.Store)
                              and getattr(n.value, "id", None) == me]
            for name in names:
                out.setdefault(name, set()).add(f"{path.stem}.{cls.name}")
    return out


def loaded_attributes():
    """Every attribute name read as ``obj.name`` in ``src/``, ``bench/`` and
    ``demos/``."""
    return {node.attr
            for folder in ("src", "bench", "demos")
            for path in sorted((ROOT / folder).rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def clear_memos():
    """Empty every ``functools.lru_cache`` in the package, so that a value an
    earlier test cached cannot hide a call."""
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("envswitch."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def test_uncalled_functions_are_exactly_the_listed_ones(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("radio.wall_db = 8.0\n")     # the default value
    common = ["--config", str(config)]
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    clear_memos()
    sys.setprofile(profile)
    try:
        cli.main(["simulate", "--sessions", "1", "--out", str(tmp_path / "sim")]
                 + common)
        cli.main(["train", "--rounds", "2", "--out", str(tmp_path / "models")]
                 + common)
        cli.main(["evaluate", "--sessions", "2", "--models",
                  str(tmp_path / "models"), "--out", str(tmp_path / "eval")]
                 + common)
    finally:
        sys.setprofile(None)
    called = {(os.path.realpath(code.co_filename), code.co_qualname)
              for code in codes}
    uncalled = {name for key, name in defined_functions().items()
                if key not in called}
    assert sorted(uncalled - set(UNCALLED)) == [], "called by no pipeline stage"
    assert sorted(set(UNCALLED) - uncalled) == [], "listed but called or gone"


def test_only_the_zeros_constructors_are_test_helpers():
    assert {name for name, why in UNCALLED.items() if why == HELPER} == HELPERS
    for name, why in UNCALLED.items():
        assert why == HELPER or why.startswith(("bench: ", "oracle: ")), name


def test_every_stored_attribute_is_read():
    stored = stored_attributes()
    assert len(stored) > 100        # the scan sees the sources
    unread = {name: sorted(owners) for name, owners in stored.items()
              if name not in loaded_attributes()}
    assert unread == {}, "stored but never read"


def test_every_parameter_is_read():
    unread = unread_parameters()
    assert sorted(unread - set(UNREAD_PARAMETERS)) == [], "a parameter its function never reads"
    assert sorted(set(UNREAD_PARAMETERS) - unread) == [], "listed but read or gone"
