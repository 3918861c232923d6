"""The benchmark's traced run rebinds named attributes of the package; every name it lists
must exist, so that a refactor that drops one fails here rather than only in its self-check."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _constants(*names):
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    found = {
        target.id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id in names
    }
    assert set(found) == set(names)
    return found


def _owner(dotted):
    module, _, cls = dotted.partition(".")
    owner = importlib.import_module(f"clbk.{module}")
    return getattr(owner, cls) if cls else owner


def test_traced_boundaries_resolve():
    found = _constants("BOUNDARIES", "EXPANSION_COUNTER")
    entries = [(owner, attr) for owner, attr, _ in found["BOUNDARIES"]] + [found["EXPANSION_COUNTER"]]
    for owner, attr in entries:
        assert callable(getattr(_owner(owner), attr, None)), f"{owner}.{attr}"
    for name in ("engine.Session.local_run", "engine.subrun", "agents.subrun", "engine.surface_occurrences", "agents.surface_occurrences"):
        assert tuple(name.rsplit(".", 1)) in entries, name
