"""The README's library quick tour runs and prints what its comments say."""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_tour() -> str:
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1, "expected one python block in README.md"
    return blocks[0]


def test_quick_tour_prints_its_comments():
    code = quick_tour()
    expected = [line.split("# ", 1)[1].strip() for line in code.splitlines()
                if line.startswith("print(") and "# " in line]
    assert expected, "the quick tour prints nothing to check"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
