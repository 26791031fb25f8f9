"""Every name the demos and the README quick start import from pathrec is
checked here, so removing or renaming a public name cannot silently break an
example. The quick demos (01-03, about 3 s together) also run end to end;
04-06 train the agent for about 28 s, so they are import-checked only."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
QUICK_DEMOS = sorted(p.name for p in ROOT.glob("demos/0[1-3]_*.py"))


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


@pytest.mark.parametrize("name", QUICK_DEMOS)
def test_quick_demo_runs(name, tmp_path):
    # demo 01 writes under a temporary directory; TMPDIR keeps that in
    # tmp_path, where the demo must not leave it behind
    env = {**os.environ, "TMPDIR": str(tmp_path), "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert list(tmp_path.glob("pathrec-demo-*")) == []
