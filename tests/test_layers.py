"""The module boundaries, read from the source: no module imports a
private name of another, the permutation groups stand on their own, the
canonical search uses them only through their public names, and one
function of the command line writes stdout."""

import ast
import importlib
import pkgutil

import pg552
from pg552 import cli, groups, symmetry

CHAIN_INTERNALS = {"_chain", "_Chain", "_rebase", "_pad", "_TAIL", "_done"}


def tree(module):
    with open(module.__file__, encoding="utf-8") as f:
        return ast.parse(f.read())


def pg552_imports(module):
    """(pg552 module, names imported from it) for each import of the
    package in ``module``; ``from . import x`` counts as importing x."""
    out = []
    for node in ast.walk(tree(module)):
        if isinstance(node, ast.ImportFrom):
            names = [a.name for a in node.names]
            if node.level and not node.module:
                out += [(name, []) for name in names]
            elif node.level or node.module.split(".")[0] == "pg552":
                out.append((node.module.removeprefix("pg552."), names))
        elif isinstance(node, ast.Import):
            out += [(a.name.removeprefix("pg552."), []) for a in node.names
                    if a.name.split(".")[0] == "pg552"]
    return out


def private(name):
    return name.startswith("_") and not name.endswith("__")


def test_no_module_imports_a_private_name_of_another():
    found = []
    for info in pkgutil.iter_modules(pg552.__path__):
        module = importlib.import_module(f"pg552.{info.name}")
        for mod, names in pg552_imports(module):
            found += [(info.name, mod, name) for name in [*mod.split("."), *names]
                      if private(name)]
    assert found == []


def test_groups_imports_only_bits():
    assert {mod for mod, _ in pg552_imports(groups)} == {"bits"}


def test_symmetry_uses_only_public_group_names():
    imports = pg552_imports(symmetry)
    assert "gf3space" not in {mod for mod, _ in imports}
    from_groups = [names for mod, names in imports if mod == "groups"]
    assert from_groups and all(names for names in from_groups)  # no module alias
    assert not [name for names in from_groups for name in names if name.startswith("_")]
    named = set()
    for node in ast.walk(tree(symmetry)):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
    assert not named & CHAIN_INTERNALS


def test_chain_internals_live_in_groups():
    # the names the test above forbids in symmetry exist in groups, so it
    # cannot pass by looking for names that nothing defines
    names = set()
    for node in ast.walk(tree(groups)):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    assert CHAIN_INTERNALS - {"_done"} <= names


def test_main_is_the_one_writer_of_stdout():
    # each command returns its results, so a refusal inside one ends the
    # run before anything reaches stdout
    emits, writes = [], []
    for fn in ast.walk(tree(cli)):
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Name) and node.id == "_emit":
                emits.append(fn.name)
            elif isinstance(node, ast.Attribute) and node.attr == "stdout":
                writes.append(fn.name)
            elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print"
                  and not any(k.arg == "file" for k in node.keywords)):
                writes.append(fn.name)
    assert emits == ["main"]
    assert writes == ["_emit"]
