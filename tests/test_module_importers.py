"""Every module under ``src/repro`` has an importer outside the tests.

An importer is a ``src/`` module, an example, or a file in
``benchmarks/`` or ``perfbench/``.  Package ``__init__`` files do not
count: a re-export alone keeps a module in the public API without
anything using it.  A name imported through a package (``from
repro.core import DarNetEnsemble``, or ``exp.run_table1`` after ``from
repro import experiments as exp``) counts for the module the package
re-exports it from.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: Run as ``python -m repro``; nothing imports it.
ENTRY_POINTS = {"repro.__main__"}


def module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


MODULES = {module_name(path): path for path in SRC.rglob("*.py")}
PACKAGES = {name for name, path in MODULES.items()
            if path.name == "__init__.py"}


def reexports(package: str) -> dict[str, str]:
    """Name -> the module a package's ``__init__`` imports it from."""
    tree = ast.parse(MODULES[package].read_text(encoding="utf-8"))
    return {alias.asname or alias.name: node.module
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def resolve(package: str, name: str) -> str | None:
    """The module that ``name``, imported from ``package``, comes from."""
    while package in PACKAGES:
        if f"{package}.{name}" in MODULES:
            return f"{package}.{name}"
        source = reexports(package).get(name)
        if source is None:
            return None
        package = source
    return package


def imported_modules(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found, aliases = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                found.add(alias.name)
                if alias.asname:
                    aliases[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.add(node.module)
            for alias in node.names:
                module = resolve(node.module, alias.name)
                found.add(module)
                if module in PACKAGES:
                    aliases[alias.asname or alias.name] = module
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            found.add(resolve(aliases[node.value.id], node.attr))
    return found


def importers() -> dict[Path, str | None]:
    """Every importer file, with its own module name if under ``src/``."""
    sources = {path: module_name(path) for path in SRC.rglob("*.py")
               if path.name != "__init__.py"}
    others = {path: None for folder in ("examples", "benchmarks", "perfbench")
              for path in (ROOT / folder).glob("*.py")}
    return {**sources, **others}


def test_every_module_has_an_importer_outside_package_inits():
    imported = set()
    for path, own in importers().items():
        imported |= imported_modules(path) - {own}
    orphans = sorted(name for name in MODULES
                     if name not in PACKAGES and name not in ENTRY_POINTS
                     and name not in imported)
    assert not orphans, f"modules nothing outside the tests imports: {orphans}"
