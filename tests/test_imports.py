import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name the module imports and never reads. A name
    read anywhere in the module counts as used; `import a.b` binds `a`."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def third_party_imports(source: str) -> list[tuple[int, str]]:
    """(line, package) of each absolute import, at any depth, of a package
    that is neither in the standard library nor numpy."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, top) for top in (name.split(".")[0] for name in names)
                  if top not in sys.stdlib_module_names and top != "numpy"]
    return found


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os, numpy as np\nimport os.path\nfrom a import b, c as d\n"
              "print(np, d)\n")
    assert unused_imports(source) == [(3, "os"), (4, "b")]


def test_no_module_imports_a_name_it_does_not_use():
    files = [path for folder in ("src", "tests", "demos")
             for path in sorted((ROOT / folder).rglob("*.py"))]
    assert len(files) > 20
    unused = [f"{path.relative_to(ROOT)}:{line}: {name}" for path in files
              for line, name in unused_imports(path.read_text(encoding="utf-8"))]
    assert unused == []


def referenced_names(tree: ast.AST) -> set[str]:
    """The names, attribute names and imported names in a syntax tree."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def dead_private_functions(sources: dict[str, str]) -> list[str]:
    """"file: name" of each module-level private function in sources, a map of
    file name to text, that no statement but its own definition references as
    a name, an attribute or an imported name."""
    statements = [(file, node) for file, source in sources.items()
                  for node in ast.parse(source).body]
    used = [referenced_names(statement) for _, statement in statements]
    return [f"{file}: {node.name}" for i, (file, node) in enumerate(statements)
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
            and not node.name.startswith("__")
            and not any(node.name in names for j, names in enumerate(used) if j != i)]


def test_dead_private_functions_are_found():
    sources = {
        "a.py": ("def _imported():\n    pass\n\ndef _recursive(n):\n    return _recursive(n)\n\n"
                 "def _by_attribute():\n    pass\n\ndef __dunder__():\n    pass\n\n"
                 "def public():\n    pass\n"),
        "b.py": "import a\nfrom a import _imported\nf = a._by_attribute\n",
    }
    assert dead_private_functions(sources) == ["a.py: _recursive"]


def test_every_private_function_of_the_package_has_a_caller():
    files = sorted((ROOT / "src").rglob("*.py"))
    assert len(files) > 5
    sources = {str(path.relative_to(ROOT)): path.read_text(encoding="utf-8") for path in files}
    assert dead_private_functions(sources) == []


def test_third_party_imports_are_found():
    source = ("from __future__ import annotations\nimport os, numpy.linalg\n"
              "from . import models\n"
              "def f():\n    from scipy.special import stdtrit\n    import mpmath as mp\n")
    assert third_party_imports(source) == [(5, "scipy"), (6, "mpmath")]


def test_the_package_imports_only_the_standard_library_and_numpy():
    files = sorted((ROOT / "src").rglob("*.py"))
    assert len(files) > 5
    found = [f"{path.relative_to(ROOT)}:{line}: {name}" for path in files
             for line, name in third_party_imports(path.read_text(encoding="utf-8"))]
    assert found == []
