"""The README's library examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_examples_run():
    # Both blocks share one namespace: the second uses k3, fib and series
    # from the first.
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(block, namespace)
    assert namespace["series"].q_max == 10
