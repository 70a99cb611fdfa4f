"""numpy is damel's only runtime dependency."""

import ast
import sys
from pathlib import Path

import damel


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
