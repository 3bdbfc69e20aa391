"""Every public function, class and method of the package is used by the
package itself.  A name that only tests load is a second path to keep in
step with the first; it goes, or it is wired in."""
import ast
import pathlib

from qoesim import scenario

# reference oracles: the world step inlines them, and tests hold the
# kernel to them
ORACLES = {
    "netsim.mean_path_loss",
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
