"""The benchmark names functions of nesth2, in its layer trace and its
imports; a refactor keeps them."""

import ast
import importlib
import inspect
import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


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


_MISSING = object()


def _lookup(dotted):
    """The object a dotted nesth2 name refers to, or _MISSING.

    As for `from package import name`, an attribute of the parent module is
    tried first and a submodule second.
    """
    module, _, name = dotted.rpartition(".")
    home = importlib.import_module(module)
    if hasattr(home, name):
        return getattr(home, name)
    try:
        return importlib.import_module(dotted)
    except ModuleNotFoundError:
        return _MISSING


def _is_nesth2(module):
    return module == "nesth2" or module.startswith("nesth2.")


def _nesth2_reads(tree):
    """Dotted nesth2 names that a benchmark module uses: every name imported
    from nesth2, and every attribute read on a nesth2 module bound by an
    import."""
    modules, reads = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 \
                and _is_nesth2(node.module or ""):
            for alias in node.names:
                dotted = f"{node.module}.{alias.name}"
                reads.add(dotted)
                if inspect.ismodule(_lookup(dotted)):
                    modules[alias.asname or alias.name] = dotted
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if _is_nesth2(alias.name):
                    # `import a.b` binds a; `import a.b as c` binds a.b
                    bound = alias.asname or alias.name.split(".")[0]
                    modules[bound] = alias.name if alias.asname else bound
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            reads.add(f"{modules[node.value.id]}.{node.attr}")
    return reads


def test_every_imported_name_resolves():
    # perfbench/*.py parsed, not run: a deleted or renamed name would
    # otherwise surface only as a failed benchmark run
    reads = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        reads |= _nesth2_reads(ast.parse(path.read_text(), filename=str(path)))
    assert reads >= {"nesth2.statespace.is_block_lower_tf",
                     "nesth2.linalg.is_hurwitz", "nesth2.statespace.lft_lower",
                     "nesth2.plant.save_plant", "nesth2._kernels.USE_NUMBA",
                     "nesth2.cli.main"}
    assert sorted(name for name in reads if _lookup(name) is _MISSING) == []


def test_verify_reaches_every_traced_validation_function(tmp_path, capsys,
                                                         monkeypatch):
    # the trace swaps each traced name in the module namespaces, so a check
    # that held a function object bound at import would bypass its wrapper
    # and leave that layer's span empty
    from nesth2 import cli, validation
    from nesth2.fixtures import make_random_fixture
    from nesth2.plant import save_plant

    counts = dict.fromkeys(_traced()["validation"], 0)
    for name in counts:
        original = getattr(validation, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(validation, name, counted)
    path = str(tmp_path / "plant.json")
    save_plant(make_random_fixture(), path)
    assert cli.main(["verify", path, "--oracle", "--seed", "7"]) == 0
    capsys.readouterr()
    assert [name for name, count in counts.items() if count < 1] == []


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
