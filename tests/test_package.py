"""README's examples stay true: the package root exports exactly what its
library example imports, and its complete config loads."""

import ast
import json
import re
from pathlib import Path

import roarsel
from roarsel.codec import encode
from roarsel.config import load_config

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_imports() -> ast.Module:
    """The `from roarsel import ...` statements of README's Python block."""
    (code,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    body = [node for node in ast.parse(code).body
            if isinstance(node, ast.ImportFrom) and node.module == "roarsel"]
    assert body, "README's library example imports nothing from roarsel"
    return ast.Module(body=body, type_ignores=[])


def test_readme_imports_resolve_and_pin_the_package_surface():
    namespace: dict = {}
    exec(compile(readme_imports(), str(README), "exec"), namespace)
    names = {alias.name for node in readme_imports().body for alias in node.names}
    assert all(namespace[name] is getattr(roarsel, name) for name in names)
    assert sorted(roarsel.__all__) == sorted(names | {"load_curve"})
    assert len(set(roarsel.__all__)) == len(roarsel.__all__)


def _within(part, whole) -> bool:
    """Every value of ``part`` appears at the same place in ``whole``."""
    if isinstance(part, dict):
        return all(k in whole and _within(v, whole[k]) for k, v in part.items())
    if isinstance(part, list):
        return len(part) == len(whole) and all(map(_within, part, whole))
    return part == whole


def test_readme_complete_config_loads_and_echoes_its_values(tmp_path):
    (block,) = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    path = tmp_path / "run.json"
    path.write_text(block)
    cfg = load_config(path)
    assert _within(json.loads(block), encode(cfg))
