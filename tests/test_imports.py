"""Every imported name is read: a module under src/ or tests/ that imports a
name it never uses fails, unless the import's line is marked
`# noqa: F401`, as a deliberate re-export is.  No linter is needed: each
module is parsed with `ast`."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/**/*.py")])


def unused_imports(path: Path) -> list:
    """"line name" of each name `path` imports and never reads."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or \
                getattr(node, "module", None) == "__future__":
            continue
        for alias in node.names:
            # `import a.b` binds a
            name = (alias.asname or alias.name).split(".")[0]
            if name != "*" and name not in used \
                    and "# noqa: F401" not in lines[alias.lineno - 1]:
                unused.append(f"{alias.lineno} {name}")
    return unused


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_used(path):
    assert unused_imports(path) == []


def test_unused_and_exempt_imports_are_told_apart(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from __future__ import annotations\n"
                      "import os.path\n"
                      "import json\n"
                      "from math import pi, tau  # noqa: F401\n"
                      "from numpy import (\n"
                      "    inf,\n"
                      "    nan,\n"
                      ")\n"
                      "x: json.JSONDecoder = inf\n")
    assert unused_imports(module) == ["2 os", "7 nan"]
