"""Every public function, class and method of ``majcert`` has a caller in
the program: ``src/``, ``scripts/`` or ``benchmark/``.  A helper that only
tests read is test scaffolding and belongs in the tests, so this fails on
one unless it is allowlisted below with its reason.  The sources are
parsed with ``ast``; nothing is imported or written."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "majcert"
PROGRAM = (ROOT / "src", ROOT / "scripts", ROOT / "benchmark")

#: public names that tests read and the program does not, with the reason
#: (the tests' own references and fixtures live in ``tests/references.py``)
ALLOWED: dict = {}


def public_definitions() -> dict:
    """``{qualified name: file}`` for the package's public module-level
    functions and classes and the public methods of its classes."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            found[node.name] = path.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        found[f"{node.name}.{item.name}"] = path.name
    return found


def program_references() -> set:
    """Every identifier that a ``Name`` or ``Attribute`` node of the
    program reads."""
    names = set()
    for directory in PROGRAM:
        for path in sorted(directory.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return names


def test_every_public_name_has_a_caller_in_the_program():
    referenced = program_references()
    unused = sorted(f"{qualname} ({path})" for qualname, path in public_definitions().items()
                    if qualname.rpartition(".")[2] not in referenced and qualname not in ALLOWED)
    assert not unused, f"public but read only by tests, if at all: {unused}"


def test_allowlist_names_existing_unreferenced_definitions():
    """An allowlist entry whose name is gone or now has a caller is stale."""
    definitions, referenced = public_definitions(), program_references()
    assert all(name in definitions for name in ALLOWED)
    assert not [name for name in ALLOWED if name.rpartition(".")[2] in referenced]
