"""Every public function, class and method of the package is used by the
package itself.  A name that only tests load is a second path to keep in
step with the first; it goes, or it is wired in."""
import ast
import pathlib

from qoesim import scenario

# reference oracles: the world step and the path table's fill inline them,
# and tests hold the kernel and the fill to them
ORACLES = {
    "netsim.mean_path_loss",
    "netsim.swipe_rate",
    "netsim.behavior_of_rate",
    "netsim.achievable_rate",
    "netsim.step_playback",
    "harness.recompute_window_ratios",
}


def public_definitions(tree: ast.Module, module: str) -> dict[str, str]:
    """Dotted path -> name of each public top-level function and class, and
    of each public method of a top-level class."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                and not node.name.startswith("_"):
            out[f"{module}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        out[f"{module}.{node.name}.{sub.name}"] = sub.name
    return out


def loaded_names(tree: ast.Module) -> set[str]:
    """Names read as a variable or as an attribute."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
    return out


def test_every_public_name_is_loaded_by_the_package():
    src = pathlib.Path(scenario.__file__).parent
    defined: dict[str, str] = {}
    loaded: set[str] = set()
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined.update(public_definitions(tree, path.stem))
        loaded |= loaded_names(tree)
    unused = sorted(path for path, name in defined.items()
                    if name not in loaded and path not in ORACLES)
    assert unused == []
    # an oracle that the package loads again needs no allowance
    assert sorted(p for p in ORACLES if defined.get(p) in loaded) == []
    assert ORACLES <= set(defined)


# defaulted parameters that every package call passes, kept because callers
# outside the package lean on them
ALWAYS_PASSED_ALLOWED = {
    "harness.run_experiment": "the package's run entry point; tests run it "
                              "without naming a trace level",
    "runner.SchemeRun": "tests build runs without naming slot collection, "
                        "epochs or a policy file",
    "scenario.load_scenario": "a preset file loads as written when no "
                              "overrides are given",
}


def field_arguments(node: ast.ClassDef) -> ast.arguments | None:
    """A class's annotated fields as the positional parameters of its
    generated constructor (a dataclass's or a NamedTuple's), in field
    order; None when it has no fields."""
    fields = [sub for sub in node.body
              if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name)]
    if not fields:
        return None
    return ast.arguments(posonlyargs=[], args=[ast.arg(f.target.id) for f in fields],
                         vararg=None, kwonlyargs=[], kw_defaults=[], kwarg=None,
                         defaults=[f.value for f in fields if f.value is not None])


def callables(tree: ast.Module, module: str):
    """(call name, dotted path, parameters, count of leading implicit
    parameters) of each top-level function, each method of a top-level
    class and each class constructor: its `__init__`'s parameters, or
    without one its fields (None when it has neither)."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, f"{module}.{node.name}", node.args, 0
        elif isinstance(node, ast.ClassDef):
            methods = [sub for sub in node.body if isinstance(sub, ast.FunctionDef)]
            init = next((m.args for m in methods if m.name == "__init__"), None)
            if init is None:
                yield node.name, f"{module}.{node.name}", field_arguments(node), 0
            else:
                yield node.name, f"{module}.{node.name}", init, 1
            for m in methods:
                if m.name != "__init__":
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in m.decorator_list)
                    yield (m.name, f"{module}.{node.name}.{m.name}", m.args,
                           0 if static else 1)


def defaulted(args: ast.arguments, implicit: int) -> list[tuple[str, int | None]]:
    """(name, position or None when keyword-only) of each defaulted parameter."""
    positional = [*args.posonlyargs, *args.args]
    first = len(positional) - len(args.defaults)
    out = [(a.arg, i - implicit) for i, a in enumerate(positional) if i >= first]
    out += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
            if d is not None]
    return out


def passes(call: ast.Call, name: str, position: int | None) -> bool:
    """The call gives the parameter, by keyword or by position (an unpacked
    argument counts as giving it)."""
    if any(k.arg is None or k.arg == name for k in call.keywords):
        return True
    if position is None:
        return False
    return (any(isinstance(a, ast.Starred) for a in call.args)
            or position < len(call.args))


def test_no_default_the_package_always_overrides():
    src = pathlib.Path(scenario.__file__).parent
    trees = []
    found: dict[str, list] = {}
    for path in sorted(src.rglob("*.py")):
        trees.append(ast.parse(path.read_text(encoding="utf-8")))
        for name, *entry in callables(trees[-1], path.stem):
            found.setdefault(name, []).append(entry)
    unique = {name: entries[0] for name, entries in found.items()
              if len(entries) == 1 and entries[0][1] is not None}
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name in unique:
                    calls.setdefault(name, []).append(node)
    always = [(path, param)
              for name, (path, args, implicit) in unique.items() if name in calls
              for param, position in defaulted(args, implicit)
              if all(passes(c, param, position) for c in calls[name])]
    assert sorted(f"{path}({param})" for path, param in always
                  if path not in ALWAYS_PASSED_ALLOWED) == []
    # an allowance the package no longer needs goes
    assert ALWAYS_PASSED_ALLOWED.keys() <= {path for path, _ in always}
