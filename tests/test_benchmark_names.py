"""The benchmark's layer trace names functions of nesth2; a refactor keeps them."""

import ast
import importlib
import inspect
import pathlib

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans_tree():
    """perfbench/spans.py parsed, not run."""
    return ast.parse(SPANS.read_text(), filename=str(SPANS))


def _assigned(tree, name):
    """The value node of the module-level assignment to `name`."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return node.value
    raise AssertionError(f"no {name} assignment in {SPANS}")


def _traced():
    """TRACED of perfbench/spans.py, read from its source without running it."""
    return ast.literal_eval(_assigned(_spans_tree(), "TRACED"))


def _counter_reads():
    """For each span of COMPUTED, the call arguments its work counter reads.

    A counter takes the bound arguments as one dict and reads them by
    subscript with a string key, as in `args["plant"]`.
    """
    tree = _spans_tree()
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    computed = _assigned(tree, "COMPUTED")
    reads = {}
    for key, value in zip(computed.keys, computed.values):
        counter = functions[value.id]
        args = counter.args.args[0].arg
        reads[ast.literal_eval(key)] = {
            node.slice.value for node in ast.walk(counter)
            if isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name) and node.value.id == args
            and isinstance(node.slice, ast.Constant)}
    return reads


def test_every_traced_name_resolves():
    traced = _traced()
    assert traced
    missing = []
    for module, names in traced.items():
        home = importlib.import_module(f"nesth2.{module}")
        missing += [f"{module}.{name}" for name in names
                    if not callable(getattr(home, name, None))]
    assert missing == []


def test_work_counters_read_parameters_that_exist():
    # a renamed parameter would otherwise surface only as a KeyError in a
    # traced benchmark run
    reads = _counter_reads()
    assert set().union(*reads.values()) >= {
        "plant", "Q", "A0", "A", "B", "n_steps", "n_paths"}
    missing = []
    for span, names in reads.items():
        module, name = span.split(".")
        fn = getattr(importlib.import_module(f"nesth2.{module}"), name)
        params = inspect.signature(fn).parameters
        missing += [f"{span}({arg})" for arg in sorted(names)
                    if arg not in params]
    assert missing == []
