"""Every name the package exports, every public method or property of
an exported class, and every dataclass field of one, is used by the
package itself or documented in README's Library section, so no public
name exists only because a test imports it.

Uses are matched by name. A field read only by its own class counts, as
`FlagAssignment.counts` reads `factor_count`. Matching by name cannot
tell fields of one name apart: a read of `traj.t` keeps any field `t`
alive, so a field that shares its name with a field read elsewhere
needs a look by hand.

The same holds for exception types: every `raise` in the package raises
`QGameError`, `InvalidSetting` or `ValidationError` from `qgame.errors`,
or `FileNotFoundError`, and every class `qgame.errors` defines is raised
or caught by name in the package.
"""

import ast
import dataclasses
import re
from pathlib import Path

import qgame

PACKAGE = Path(qgame.__file__).resolve().parent
README = PACKAGE.parent.parent / "README.md"


def exported_names() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def names_used_in_package() -> set[str]:
    """Names and attributes referenced in the package's modules, skipping
    the body of each name's own definition and every import line."""
    used: set[str] = set()

    def visit(node: ast.AST, inside: frozenset) -> None:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name) and node.id not in inside:
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in inside:
            used.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            visit(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    return used


def exported_classes() -> list[type]:
    return [obj for name in exported_names() if isinstance(obj := getattr(qgame, name), type)]


def public_members(cls: type) -> list[str]:
    """Methods and properties that `cls` itself defines, without a leading underscore."""
    return [
        name
        for name, value in vars(cls).items()
        if not name.startswith("_")
        and (callable(value) or isinstance(value, (property, classmethod, staticmethod)))
    ]


def attributes_used_in_package(outside: str | None = None) -> set[str]:
    """Attribute names read in the package's modules outside the body of
    class `outside`: a member only its own class reads is not public use."""
    used: set[str] = set()

    def visit(node: ast.AST) -> None:
        if isinstance(node, ast.ClassDef) and node.name == outside:
            return
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            used.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child)

    for path in PACKAGE.glob("*.py"):
        visit(ast.parse(path.read_text(encoding="utf-8")))
    return used


def readme_library_section() -> str:
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^## Library\n(.*?)(?=^## )", text, re.S | re.M)
    assert match, "README has no Library section"
    return match.group(1)


def test_every_export_is_used_or_documented():
    used = names_used_in_package()
    library = readme_library_section()
    orphans = [
        name
        for name in exported_names()
        if name not in used
        and not re.search(rf"\b{re.escape(name)}\b", library)
    ]
    assert orphans == [], f"exported but neither used in src/qgame nor in README: {orphans}"


def test_every_public_member_is_used_or_documented():
    library = readme_library_section()
    orphans = []
    for cls in exported_classes():
        used = attributes_used_in_package(cls.__name__)
        orphans += [
            f"{cls.__name__}.{member}"
            for member in public_members(cls)
            if member not in used and not re.search(rf"\.{re.escape(member)}\b", library)
        ]
    assert orphans == [], f"public but neither used in src/qgame nor in README: {orphans}"


def test_every_dataclass_field_is_used_or_documented():
    library = readme_library_section()
    used = attributes_used_in_package()
    orphans = [
        f"{cls.__name__}.{f.name}"
        for cls in exported_classes()
        if dataclasses.is_dataclass(cls)
        for f in dataclasses.fields(cls)
        if f.name not in used and not re.search(rf"\.{re.escape(f.name)}\b", library)
    ]
    assert orphans == [], f"fields neither read in src/qgame nor in README: {orphans}"


def test_the_guard_sees_the_exports():
    names = exported_names()
    assert "integrate" in names and "vector_field" in names
    assert "integrate" in names_used_in_package()
    assert "counts" in public_members(qgame.FlagAssignment)
    assert "code" in public_members(qgame.StrategyCode)
    assert {"factor_count", "strategy_labels"} <= attributes_used_in_package()


ALLOWED_RAISES = {"QGameError", "InvalidSetting", "ValidationError", "FileNotFoundError"}


def raised_and_caught(tree: ast.AST) -> tuple[list[tuple[str, int]], set[str]]:
    """The (name, line) of every `raise C(...)` in tree, a helper call
    `raise f(...)` named by the return annotation of its definition in
    tree, and the names of every class an `except` clause catches."""
    returns = {
        node.name: ast.unparse(node.returns)
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.returns is not None
    }
    raised, caught = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
            func = node.exc.func
            name = func.id if isinstance(func, ast.Name) else ast.unparse(func)
            raised.append((returns.get(name, name), node.lineno))
        elif isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            caught |= {ast.unparse(t) for t in types}
    return raised, caught


def package_raises_and_catches() -> tuple[list[tuple[str, str, int]], set[str]]:
    raised, caught = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        r, c = raised_and_caught(ast.parse(path.read_text(encoding="utf-8")))
        raised += [(path.name, name, line) for name, line in r]
        caught |= c
    return raised, caught


def error_classes() -> list[str]:
    tree = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    return [node.name for node in tree.body if isinstance(node, ast.ClassDef)]


def test_every_raise_is_one_of_the_package_exceptions():
    raised, _ = package_raises_and_catches()
    stray = [f"{path}:{line}: {name}" for path, name, line in raised if name not in ALLOWED_RAISES]
    assert stray == [], f"raises outside {sorted(ALLOWED_RAISES)}: {stray}"


def test_every_error_class_is_raised_or_caught_in_the_package():
    raised, caught = package_raises_and_catches()
    used = {name for _, name, _ in raised} | caught
    unused = [name for name in error_classes() if name not in used]
    assert unused == [], f"defined in qgame.errors but never raised or caught in src/qgame: {unused}"


def test_the_raise_guard_sees_raises_helpers_and_catches():
    raised, caught = raised_and_caught(ast.parse(
        "def fault() -> QGameError:\n    return QGameError('x')\n"
        "try:\n    raise Stray('x')\nexcept (KeyError, QGameError):\n    raise fault()\n"
        "raise type(exc)('y')\n"
    ))
    assert sorted(raised, key=lambda r: r[1]) == [("Stray", 4), ("QGameError", 6), ("type(exc)", 7)]
    assert caught == {"KeyError", "QGameError"}
    assert error_classes() == ["QGameError", "InvalidSetting", "ValidationError"]
    names = {name for _, name, _ in package_raises_and_catches()[0]}
    assert {"QGameError", "InvalidSetting", "ValidationError"} <= names


FILE_READS = {"open", "read_text", "read_bytes"}


def file_opens(tree: ast.AST) -> list[tuple[str, int]]:
    """The enclosing function and line of every call in tree to `open` or
    to a method `open`, `read_text` or `read_bytes`."""
    opens = []
    for func in ast.walk(tree):
        if isinstance(func, ast.FunctionDef):
            for node in ast.walk(func):
                if isinstance(node, ast.Call) and (
                    isinstance(node.func, ast.Name) and node.func.id == "open"
                    or isinstance(node.func, ast.Attribute) and node.func.attr in FILE_READS
                ):
                    opens.append((func.name, node.lineno))
    return opens


def test_one_function_reads_every_input_file():
    """Input files are read only by `errors.reading`, which names the file
    in every fault it reports, and output files written only by `cli._write`.
    `cli._parse_split` opens trajectory.csv too, to count its lines and
    hand its byte ranges to forked parsers, but reports no fault: on any
    fault `read_trajectory_csv` reads the file again through `errors.reading`."""
    opens = {
        (path.name, name)
        for path in PACKAGE.glob("*.py")
        for name, _ in file_opens(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert opens == {("errors.py", "reading"), ("cli.py", "_write"), ("cli.py", "_parse_split")}


def test_the_open_guard_sees_every_way_to_read():
    tree = ast.parse(
        "def a():\n    open(p)\n"
        "def b():\n    p.read_text()\n    p.read_bytes()\n"
        "def c():\n    os.open(p)\n    p.write_text()\n"
    )
    assert file_opens(tree) == [("a", 2), ("b", 4), ("b", 5), ("c", 7)]
