"""What the package promises outside its modules: the README example, the
names the benchmark traces, and one version number."""

import importlib
import importlib.util
import re
from pathlib import Path

import pytest

import curvekit

ROOT = Path(__file__).resolve().parent.parent


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)  # imports only the standard library
    return [(layer, fn) for layer, fns in spans.TRACED.items() for fn in fns]


def test_readme_library_example_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library example\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    # One line per shift-response check, then the P&L.
    assert len(capsys.readouterr().out.splitlines()) == 7


@pytest.mark.parametrize("layer, fn", _traced(), ids=lambda v: v)
def test_every_traced_name_is_a_callable_of_its_layer(layer, fn):
    assert callable(getattr(importlib.import_module(f"curvekit.{layer}"), fn, None))


def test_version_matches_pyproject():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    (version,) = re.findall(r'^version = "([^"]+)"$', pyproject, re.M)
    assert curvekit.__version__ == version
