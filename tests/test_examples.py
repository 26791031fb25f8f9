"""No test runs the demos or the README quick start, so every name they
import from pathrec is checked here: removing or renaming a public name
must not silently break an example."""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def example_sources() -> dict[str, str]:
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(ROOT.glob("demos/*.py"))}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for i, block in enumerate(re.findall(r"```python\n(.*?)```", readme, flags=re.S)):
        sources[f"README.md python block {i}"] = block
    return sources


def pathrec_imports(source: str) -> list[tuple[str, str]]:
    return [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "pathrec"
        for alias in node.names
    ]


def test_every_pathrec_import_of_the_examples_resolves():
    sources = example_sources()
    assert any(name.endswith(".py") for name in sources), "no demos found"
    assert any(name.startswith("README.md") for name in sources), "no README python block"
    missing = []
    for name, source in sources.items():
        imports = pathrec_imports(source)
        assert imports, f"{name} imports nothing from pathrec"
        missing += [
            f"{name}: {module}.{attr}"
            for module, attr in imports
            if not hasattr(importlib.import_module(module), attr)
        ]
    assert missing == []
