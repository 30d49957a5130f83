import ast
import builtins
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def read(*folders) -> dict[str, str]:
    """The text of each Python file under the folders of the repository, by
    its path relative to the root."""
    return {str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
            for folder in folders for path in sorted((ROOT / folder).rglob("*.py"))}


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


def defined_names(node: ast.stmt) -> list[str]:
    """The names a module-level statement defines: a function's or a class's
    name, or each plain name an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [n.id for target in targets for n in ast.walk(target)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]


def dead_definitions(sources: dict[str, str], users: dict[str, str], readme: str) -> list[str]:
    """"file: name" of each module-level private function or assignment and
    each public module-level function, class or assignment in sources, a map
    of file name to text, that no statement but its own definition references
    as a name, an attribute or an imported name. A public name also passes
    when a statement of users, another such map, references it or when
    readme names it."""
    statements = [(file, node) for file, source in sources.items()
                  for node in ast.parse(source).body]
    used = [referenced_names(statement) for _, statement in statements]
    public_uses = set(re.findall(r"\w+", readme)).union(
        *(referenced_names(ast.parse(source)) for source in users.values()))

    def checked(node, name) -> bool:
        if name.startswith("__"):
            return False
        if name.startswith("_"):
            return not isinstance(node, ast.ClassDef)
        return name not in public_uses

    return [f"{file}: {name}" for i, (file, node) in enumerate(statements)
            for name in defined_names(node)
            if checked(node, name)
            and not any(name in names for j, names in enumerate(used) if j != i)]


def test_dead_definitions_are_found():
    sources = {
        "a.py": ("def _imported():\n    pass\n\ndef _recursive(n):\n    return _recursive(n)\n\n"
                 "def _by_attribute():\n    pass\n\ndef __dunder__():\n    pass\n\n"
                 "def public():\n    pass\n\nclass Public:\n    pass\n\n"
                 "class _Private:\n    pass\n\ndef used_by_a_user():\n    pass\n\n"
                 "def named_by_the_readme():\n    pass\n\ndef _private_used_by_a_user():\n"
                 "    pass\n\n"
                 "__all__ = []\nUNUSED = 1\n_UNUSED: int = 2\nA, (B, _C) = 1, (2, 3)\n"
                 "_READ = 4\nLIMIT = _READ\nCONSTANT = 5\ntable = {}\ntable[_READ] = 6\n"),
        "b.py": "import a\nfrom a import _imported\nf = a._by_attribute\nprint(a.B)\n",
    }
    users = {"demo.py": "from a import used_by_a_user, _private_used_by_a_user, LIMIT\n"}
    readme = "Call `named_by_the_readme()` first; it reads CONSTANT."
    assert dead_definitions(sources, {}, "") == [
        "a.py: _recursive", "a.py: public", "a.py: Public", "a.py: used_by_a_user",
        "a.py: named_by_the_readme", "a.py: _private_used_by_a_user", "a.py: UNUSED",
        "a.py: _UNUSED", "a.py: A", "a.py: _C", "a.py: LIMIT", "a.py: CONSTANT", "b.py: f"]
    assert dead_definitions(sources, users, readme) == [
        "a.py: _recursive", "a.py: public", "a.py: Public", "a.py: _private_used_by_a_user",
        "a.py: UNUSED", "a.py: _UNUSED", "a.py: A", "a.py: _C", "b.py: f"]


def test_every_definition_of_the_package_has_a_user():
    """Private functions and module-level names need a user in the package;
    public functions, classes and module-level names need one in the package,
    the demos or the benchmark, or a mention in the README."""
    sources = read("src")
    assert len(sources) > 5
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert dead_definitions(sources, read("demos", "bench"), readme) == []


def optional_parameters(node: ast.FunctionDef, method: bool) -> dict[str, int | None]:
    """Each parameter of a function that has a default, mapped to the number of
    positional arguments a call passes it at, or None when only a keyword can;
    a method's calls do not pass its first parameter."""
    positional = node.args.posonlyargs + node.args.args
    bound = 1 if method else 0  # self or cls
    first_default = len(positional) - len(node.args.defaults)
    found = {arg.arg: i + 1 - bound for i, arg in enumerate(positional) if i >= first_default}
    found.update((arg.arg, None) for arg, default in zip(node.args.kwonlyargs,
                                                         node.args.kw_defaults)
                 if default is not None)
    return found


def unpassed_optional_parameters(sources: dict[str, str], users: dict[str, str]) -> list[str]:
    """"file: function(parameter)" of each parameter with a default of a
    function in sources that no call in sources or users passes, by keyword
    or by position. Calls are matched by the name of the called function or
    attribute; a call that unpacks *args passes every positional parameter,
    and one that unpacks **kwargs every parameter."""
    passed = {}  # function name -> (most positional arguments, keywords)
    for source in [*sources.values(), *users.values()]:
        for call in ast.walk(ast.parse(source)):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            most, keywords = passed.get(name, (0, set()))
            starred = any(isinstance(arg, ast.Starred) for arg in call.args)
            keywords = keywords | {kw.arg for kw in call.keywords}
            passed[name] = (max(most, float("inf") if starred else len(call.args)), keywords)

    found = []
    for file, source in sources.items():
        tree = ast.parse(source)
        methods = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for node in cls.body}
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            most, keywords = passed.get(node.name, (0, set()))
            params = optional_parameters(node, id(node) in methods)
            found += [f"{file}: {node.name}({param})" for param, position in params.items()
                      if param not in keywords and None not in keywords
                      and (position is None or most < position)]
    return found


def test_unpassed_optional_parameters_are_found():
    sources = {"a.py": ("def f(a, b=1, *, c=2, d=3):\n    pass\n\n"
                        "def g(a, b=1, c=2):\n    pass\n\n"
                        "def h(a=1, b=2):\n    pass\n\n"
                        "def unused(a=1):\n    pass\n\n"
                        "class C:\n    def m(self, a=1, b=2):\n        pass\n\n"
                        "    def n(self, a=1):\n        pass\n")}
    users = {"b.py": ("import a\na.f(0, c=1)\na.g(0, 1)\nh(*args)\nC().m(1)\n"
                      "a.C.n(**options)\n")}
    assert unpassed_optional_parameters(sources, {}) == [
        "a.py: f(b)", "a.py: f(c)", "a.py: f(d)", "a.py: g(b)", "a.py: g(c)", "a.py: h(a)",
        "a.py: h(b)", "a.py: unused(a)", "a.py: m(a)", "a.py: m(b)", "a.py: n(a)"]
    assert unpassed_optional_parameters(sources, users) == [
        "a.py: f(b)", "a.py: f(d)", "a.py: g(c)", "a.py: unused(a)", "a.py: m(b)"]


def test_every_optional_parameter_of_the_package_is_passed_outside_the_tests():
    """An optional parameter that only the tests pass is an API that only the
    tests call."""
    sources = read("src")
    assert len(sources) > 5
    assert unpassed_optional_parameters(sources, read("demos", "bench")) == []


def exception_classes(sources: dict[str, str]) -> list[str]:
    """"file: name" of each class in sources whose bases lead to Exception:
    a built-in exception, or a class of sources that is one. Bases are
    matched by name, so `errors.Base` is the class Base of any file."""
    bases = {}  # class name -> (file, names of its bases)
    for file, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = (file, [getattr(base, "id", getattr(base, "attr", None))
                                           for base in node.bases])

    def is_exception(name, seen=()) -> bool:
        if name in bases:
            return name not in seen and any(is_exception(base, (*seen, name))
                                            for base in bases[name][1])
        builtin = getattr(builtins, name or "", None)
        return isinstance(builtin, type) and issubclass(builtin, Exception)

    return [f"{file}: {name}" for name, (file, _) in bases.items() if is_exception(name)]


def uncaught_exceptions(sources: dict[str, str]) -> list[str]:
    """"file: name" of each exception class of sources that no except clause
    of sources names, alone or in a tuple, as a name or an attribute."""
    caught = set()
    for source in sources.values():
        for handler in ast.walk(ast.parse(source)):
            if isinstance(handler, ast.ExceptHandler) and handler.type is not None:
                caught |= {getattr(node, "id", getattr(node, "attr", None))
                           for node in ast.walk(handler.type)}
    return [found for found in exception_classes(sources)
            if found.split(": ")[1] not in caught]


def test_uncaught_exceptions_are_found():
    sources = {
        "a.py": ("class Base(Exception):\n    pass\n\nclass Sub(Base):\n    pass\n\n"
                 "class Caught(ValueError):\n    pass\n\nclass InTuple(Exception):\n    pass\n\n"
                 "class ByAttribute(Base):\n    pass\n\nclass Plain:\n    pass\n\n"
                 "class Child(Plain):\n    pass\n\nclass Warned(Warning):\n    pass\n\n"
                 "try:\n    raise Sub('raised, not caught')\nexcept Caught:\n    pass\n"
                 "except (InTuple, OSError):\n    pass\n"
                 "except errors.ByAttribute as err:\n    pass\n"),
        "b.py": "import a\n\nclass Other(a.Sub):\n    pass\n",
    }
    assert exception_classes(sources) == [
        "a.py: Base", "a.py: Sub", "a.py: Caught", "a.py: InTuple", "a.py: ByAttribute",
        "a.py: Warned", "b.py: Other"]
    assert uncaught_exceptions(sources) == [
        "a.py: Base", "a.py: Sub", "a.py: Warned", "b.py: Other"]


def test_every_exception_class_of_the_package_is_caught_in_the_package():
    """An error type that only the tests catch tells apart nothing that the
    package acts on; raise the type that is caught instead."""
    sources = read("src")
    assert len(exception_classes(sources)) >= 3
    assert uncaught_exceptions(sources) == []


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
