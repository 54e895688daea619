"""The python blocks of ``README.md`` run, in order, exactly as written.

Each block may use the names an earlier block defined, as a reader
pasting them into one session would.  They run inside ``tmp_path``, so
the serving block's ``regions.l2/`` store lands there.
"""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"

_PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.DOTALL | re.MULTILINE)


def readme_python_blocks() -> list[str]:
    return _PYTHON_BLOCK.findall(README.read_text(encoding="utf-8"))


def test_readme_python_blocks_run_in_order(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    blocks = readme_python_blocks()
    assert len(blocks) >= 2
    namespace: dict = {"__name__": "__readme__"}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)
    assert (tmp_path / "regions.l2").is_dir()
