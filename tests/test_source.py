"""Source hygiene checks over src/, with the standard library's ast only."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads; a name listed in the
    module's `__all__` counts as read (a package re-exports it)."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return sorted(imported - used)


def test_no_module_imports_a_name_it_never_uses():
    found = [
        f"{path.relative_to(SRC)}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        for name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert not found, found


def package_imports(path: Path) -> list[tuple[str, int, bool]]:
    """(module, line, at top) of each `interactdiff` import in the module at
    `path`, the module in dotted form.  An import is at the top when only
    imports and the docstring come before it."""
    package = path.relative_to(SRC).parts[:-1]
    tree = ast.parse(path.read_text(encoding="utf-8"))
    top = set()
    for i, node in enumerate(tree.body):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            top.add(id(node))
        elif not (i == 0 and isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)):
            break
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            targets = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level:
            base = ".".join(package[: len(package) - node.level + 1])
            # `from . import numerics` imports a module by its name
            targets = [f"{base}.{a.name}" for a in node.names] if node.module is None \
                else [f"{base}.{node.module}"]
        elif isinstance(node, ast.ImportFrom):
            targets = [node.module]
        else:
            continue
        found += [(t, node.lineno, id(node) in top) for t in targets
                  if t.split(".")[0] == "interactdiff"]
    return found


def test_package_imports_are_at_module_top_and_acyclic():
    """Every `interactdiff` import in src/ sits at the top of its module, and
    the package's modules import one another without a cycle."""
    graph, misplaced = {}, []
    for path in sorted(SRC.rglob("*.py")):
        name = ".".join(path.relative_to(SRC).with_suffix("").parts).removesuffix(".__init__")
        imports = package_imports(path)
        graph[name] = sorted({target for target, _, _ in imports})
        misplaced += [f"{path.relative_to(SRC)}:{line}" for _, line, top in imports if not top]
    assert not misplaced, misplaced
    done, path = set(), []

    def visit(name):
        assert name not in path, "import cycle: " + " -> ".join(path[path.index(name):] + [name])
        if name not in done:
            path.append(name)
            for target in graph.get(name, ()):
                visit(target)
            path.pop()
            done.add(name)

    for name in graph:
        visit(name)


def dataclasses_in_src() -> dict[str, tuple[list[str], list[str]]]:
    """(base names, fields declared in the class body) of each @dataclass
    class in src/, by class name."""
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(
                ast.unparse(d).split("(")[0] == "dataclass" for d in node.decorator_list
            ):
                found[node.name] = (
                    [ast.unparse(b) for b in node.bases],
                    [s.target.id for s in node.body
                     if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)],
                )
    return found


def test_each_config_setting_is_declared_once():
    """RunConfig is built from ModelConfig (itself a SceneConfig) and
    TrainConfig by inheritance, and no dataclass re-declares a field of its
    bases, so each setting has one declaration and one default."""
    classes = dataclasses_in_src()

    def ancestors(name):
        return {a for b in classes[name][0] if b in classes for a in {b} | ancestors(b)}

    assert ancestors("RunConfig") == {"ModelConfig", "SceneConfig", "TrainConfig"}
    redeclared = [f"{name}.{field}" for name, (_, own) in classes.items()
                  for field in own
                  if any(field in classes[base][1] for base in ancestors(name))]
    assert not redeclared, redeclared
