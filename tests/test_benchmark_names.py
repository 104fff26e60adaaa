"""The benchmark's layer trace names functions of nesth2; a refactor keeps them."""

import ast
import importlib
import pathlib

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _traced():
    """TRACED of perfbench/spans.py, read from its source without running it."""
    tree = ast.parse(SPANS.read_text(), filename=str(SPANS))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED"
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED assignment in {SPANS}")


def test_every_traced_name_resolves():
    traced = _traced()
    assert traced
    missing = []
    for module, names in traced.items():
        home = importlib.import_module(f"nesth2.{module}")
        missing += [f"{module}.{name}" for name in names
                    if not callable(getattr(home, name, None))]
    assert missing == []
