"""Every public function, class and method of the package is used by the
package itself.  A name that only tests use is a second path to keep in
step with the first; it goes, or it is wired in.

What counts as a use depends on what the name is:
  - a top-level function or class: a load of its name, bare or as an
    attribute (`f`, `mod.f`), called or passed on;
  - a plain method (a static method too): a call through an attribute,
    `x.m(...)`; a bound method that is only passed on does not count;
  - a `@property`: a load through an attribute, `x.p`.
The scan knows no types, so a use counts for every definition of that
name in the package.  It cannot tell apart two classes that each define a
method `m` (a call `x.m()` on either counts for both), a method from a
module-level function of the same name (`mod.m()`), or a property from a
field or attribute of the same name (`x.p` on an object that stores p).
In each such pair the one member's use hides the other's disuse.
"""
import ast
import pathlib

from qoesim import scenario


def public_definitions(tree: ast.Module, module: str) -> dict[str, tuple[str, str]]:
    """Dotted path -> (name, kind) of each public top-level function and
    class (kind "name") and of each public method of a top-level class
    (kind "property" for a `@property`, else "method")."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                and not node.name.startswith("_"):
            out[f"{module}.{node.name}"] = (node.name, "name")
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        prop = any(isinstance(d, ast.Name) and d.id == "property"
                                   for d in sub.decorator_list)
                        out[f"{module}.{node.name}.{sub.name}"] = (
                            sub.name, "property" if prop else "method")
    return out


def loaded_names(tree: ast.AST) -> set[str]:
    """Names read as a variable or as an attribute."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
    return out


def uses(tree: ast.AST) -> dict[str, set[str]]:
    """Per kind of definition, the names that the tree uses as that kind:
    every load for a name, attribute loads for a property and attribute
    calls for a method."""
    attributes = {node.attr for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    calls = {node.func.attr for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)}
    return {"name": loaded_names(tree), "property": attributes, "method": calls}


def unused(sources: dict[str, str]) -> list[str]:
    """Dotted paths of the public definitions in the modules (name ->
    source) that no module uses."""
    defined: dict[str, tuple[str, str]] = {}
    used: dict[str, set[str]] = {"name": set(), "property": set(), "method": set()}
    for module, text in sources.items():
        tree = ast.parse(text)
        defined.update(public_definitions(tree, module))
        for kind, names in uses(tree).items():
            used[kind] |= names
    return sorted(path for path, (name, kind) in defined.items()
                  if name not in used[kind])


def test_every_public_name_is_loaded_by_the_package():
    src = pathlib.Path(scenario.__file__).parent
    assert unused({path.stem: path.read_text(encoding="utf-8")
                   for path in sorted(src.rglob("*.py"))}) == []


def test_a_method_counts_only_where_it_is_called():
    source = (
        "class Walker:\n"
        "    def position(self, t): ...\n"
        "    def positions(self, ts): ...\n"
        "    @property\n"
        "    def span(self): ...\n"
        "    @property\n"
        "    def idle(self): ...\n"
        "def helper(): ...\n"
        "def spare(): ...\n"
        "def run(w, station):\n"
        "    return station.position, w.positions([0.0]), w.span, helper\n"
        "run(Walker(), None)\n")
    # a station's `position` attribute is no call of `Walker.position`
    assert unused({"m": source}) == ["m.Walker.idle", "m.Walker.position", "m.spare"]


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


# record fields that no reader loads by name, each read whole
FIELDS_UNREAD_ALLOWED = {
    "harness.BoxStats": "written whole into the summary by `asdict`",
    "netsim.SlotRecord": "its rows go whole to slots_*.csv",
    "qoe.QoEModel.sample_count": "the fit's sample count, which the run "
                                 "summary is to report",
}


def record_fields(tree: ast.Module, module: str) -> dict[str, str]:
    """Dotted path -> name of each annotated field of a top-level dataclass
    or NamedTuple."""
    out = {}
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        marks = {getattr(d.func if isinstance(d, ast.Call) else d, "id", None)
                 for d in node.decorator_list}
        marks |= {getattr(b, "id", None) for b in node.bases}
        if not marks & {"dataclass", "NamedTuple"}:
            continue
        for sub in node.body:
            if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name):
                out[f"{module}.{node.name}.{sub.target.id}"] = sub.target.id
    return out


def test_every_record_field_has_a_reader():
    """A field that the package fills and nobody reads is computed to be
    thrown away.  A read is an attribute load of the field's name (`x.f`)
    anywhere in the package, the benchmark or the tools.  The scan knows no
    types, as the public-names scan above does not: a load of `x.f` counts
    for every field named f and for any attribute of that name, so one
    reader of a name hides the disuse of every other field of that name.
    A record read whole (by `asdict`, by unpacking, by `repr`) loads none
    of its fields by name; it is allowed by name below."""
    src = pathlib.Path(scenario.__file__).parent
    fields: dict[str, str] = {}
    read: set[str] = set()
    for path in sorted(src.rglob("*.py")):
        fields.update(record_fields(ast.parse(path.read_text(encoding="utf-8")), path.stem))
    for root in (src, src.parents[1] / "qoebench", src.parents[1] / "tools"):
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            read |= {node.attr for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    # the allowance key of an unread field: its own path, else its record's
    keys = {path: path if path in FIELDS_UNREAD_ALLOWED else path.rpartition(".")[0]
            for path, name in fields.items() if name not in read}
    assert sorted(path for path, key in keys.items()
                  if key not in FIELDS_UNREAD_ALLOWED) == []
    # an allowance the package no longer needs goes
    assert FIELDS_UNREAD_ALLOWED.keys() <= set(keys.values())
