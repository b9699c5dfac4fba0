"""README.md's ```python examples, run as a reader would run them."""

import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def test_python_examples_run_in_order_in_one_namespace():
    # the later example reads the names the quickstart defines
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.MULTILINE | re.DOTALL)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["check"].all_passed
    assert [report.pair for report in namespace["checks"]] == [
        namespace["pair"], namespace["pair"].swapped()
    ]
