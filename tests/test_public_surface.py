"""Every public name has a caller outside `tests/` or a README line that names it.

The public names are `heisenberg_cmc.__all__` and each module's `__all__`.  A caller is a use
in the code of `src/` (a name, an attribute or an import; the package's `__init__`, which is the
export list itself, does not count, nor does a definition or an `__all__` entry), of `demos/` or
of `perfbench/`.  A name that only a test calls belongs in `tests/`.
"""

import ast
import importlib
import pathlib
import re

import heisenberg_cmc

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "heisenberg_cmc"


def public_names():
    names = set(heisenberg_cmc.__all__)
    for path in PACKAGE.glob("*.py"):
        names.update(getattr(importlib.import_module(f"heisenberg_cmc.{path.stem}"), "__all__", ()))
    return names


def used_names(paths):
    """Names, attributes and imported names (and modules) that the code of `paths` refers to."""
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                used.update(part for alias in node.names for part in alias.name.split("."))
                used.update((getattr(node, "module", None) or "").split("."))
    return used


def test_every_public_name_has_a_caller_or_a_readme_line():
    code = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    code += [*(ROOT / "demos").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")]
    used = used_names(code)
    readme = (ROOT / "README.md").read_text()
    orphans = sorted(name for name in public_names()
                     if name not in used and not re.search(rf"\b{re.escape(name)}\b", readme))
    assert not orphans, f"public names that only tests call: {orphans}"
