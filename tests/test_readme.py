"""README's code runs as written."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_block(heading):
    text = README.read_text(encoding="utf-8")
    section = text.split(f"## {heading}\n", 1)[1].split("\n## ", 1)[0]
    (code,) = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    return code


def test_library_sketch_runs():
    scope = {}
    exec(_python_block("Library sketch"), scope)
    assert len(scope["branches"]) == 512
    rho = scope["reconstruct"](scope["branches"][0]).to_dense()
    target = np.zeros((8, 8))
    target[7, 7] = 1.0
    assert np.max(np.abs(rho - target)) < 1e-9
