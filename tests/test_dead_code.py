"""Every def, class and module-level constant in the package is used by the
program or the benchmark, or is listed with the reason it stays: code that
only tests call is code nobody runs. A re-export in ``__init__`` is no use, so
a public name that only tests call needs a reason too."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cityregions"

# qualified name: why it stays although nothing in src/ or bench/ refers to it
ALLOWED = {
    "ingest.write_grid_counts": "writes the road-grid file format that load_grid_counts reads",
    "synth.persistent_dtn_trace": "the planted DTN trace behind the DTN acceptance criterion",
    "synth.correlated_grid": "the planted grid pair behind the correlation acceptance criterion",
}


def _definitions(path: Path):
    """(qualified name, name) of every def and class in a module, nested ones
    included, and of every name a module-level statement assigns; dunder
    names are read by Python itself and are left out."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield f"{prefix}.{child.name}", child.name
                yield from walk(child, f"{prefix}.{child.name}")
            else:
                yield from walk(child, prefix)

    module = ast.parse(path.read_text(encoding="utf-8"))
    targets = [target for statement in module.body
               for target in (statement.targets if isinstance(statement, ast.Assign) else
                              [statement.target] if isinstance(statement, ast.AnnAssign) else [])]
    constants = [(f"{path.stem}.{node.id}", node.id) for target in targets
                 for node in ast.walk(target)
                 if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)]
    for qualified, name in [*walk(module, path.stem), *constants]:
        if not (name.startswith("__") and name.endswith("__")):
            yield qualified, name


def _references(paths) -> set[str]:
    """Names read as a name, used as an attribute, an import or an identifier
    string (each part of a dotted one, as ``getattr`` or a tracer takes it).
    An assignment target names itself, so it is no use."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update(node.name.split("."))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.update(p for p in node.value.split(".") if p.isidentifier())
    return names


def _program_references() -> set[str]:
    return _references([*(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py"),
                        *(ROOT / "bench").rglob("*.py")])


def test_every_definition_is_used_or_public():
    used = _program_references()
    unused = sorted(qualified for path in sorted(PACKAGE.glob("*.py"))
                    for qualified, name in _definitions(path)
                    if name not in used and qualified not in ALLOWED)
    assert unused == []


def test_allowed_names_exist_and_are_otherwise_unused():
    """An entry whose name is gone, or now used, is taken off the list."""
    used = _program_references()
    defined = {qualified: name for path in PACKAGE.glob("*.py")
               for qualified, name in _definitions(path)}
    for qualified in ALLOWED:
        assert qualified in defined and defined[qualified] not in used, qualified
