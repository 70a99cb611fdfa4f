"""numpy is damel's only runtime dependency, and the demos import only
names that damel has."""

import ast
import importlib
import sys
from pathlib import Path

import damel

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_every_absolute_import_is_the_standard_library_or_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    bad = []
    for path in sorted(Path(damel.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            bad += [f"{path}:{node.lineno}: {name}" for name in names
                    if name.split(".")[0] not in allowed]
    assert bad == []


def test_every_name_a_demo_imports_from_damel_exists():
    demos = sorted(DEMOS.glob("*.py"))
    assert demos
    missing = []
    for path in demos:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "damel":
                module = importlib.import_module(node.module)
                missing += [f"demos/{path.name}:{node.lineno}: {node.module}.{alias.name}"
                            for alias in node.names if not hasattr(module, alias.name)]
    assert missing == []
