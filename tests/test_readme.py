"""The README's python examples run as written and read the values their comments give."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                      re.MULTILINE | re.DOTALL)


def test_every_python_block_runs():
    blocks = python_blocks()
    assert blocks, "README.md has no python block"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_quickstart_reads_its_commented_values():
    quickstart = next(block for block in python_blocks() if "enumerate_outcomes" in block)
    for expr, comment in [("report.p_sum", "2.64"),
                          ("[r.prob for r in report.records]", "8/33, 17/33, 8/33"),
                          ("report.constant", "8/33")]:
        assert re.search(rf"^{re.escape(expr)} +# {re.escape(comment)}\b", quickstart,
                         re.MULTILINE), expr
    namespace = {}
    exec(compile(quickstart, str(README), "exec"), namespace)
    report = namespace["report"]
    assert report.p_sum == pytest.approx(2.64, rel=1e-15)
    assert [r.prob for r in report.records] == pytest.approx([8 / 33, 17 / 33, 8 / 33],
                                                             rel=1e-15)
    assert report.constant == pytest.approx(8 / 33, rel=1e-15)
    assert report.prob.tolist() == [r.prob for r in report.records]
