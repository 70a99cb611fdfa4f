"""The README's library example runs as written, and its configs parse."""

import ast
import json
import re
from pathlib import Path

from damel.experiment import parse_config

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    # The eval model views the averaged weights, and the example prints its group accuracies.
    assert namespace["eval_model"].buffer is namespace["avg"].weights
    group_acc = ast.literal_eval(capsys.readouterr().out)
    assert set(group_acc) == {"many", "medium", "few"}


def test_json_configs_parse():
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for block in blocks:
        parse_config(json.loads(block))
