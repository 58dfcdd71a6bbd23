"""The package root exports exactly what README's library example imports."""

import ast
import re
from pathlib import Path

import roarsel

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
