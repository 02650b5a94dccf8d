"""The README's Library example runs and shows what its comments say."""

import re
from fractions import Fraction as F
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_block():
    text = README.read_text()
    block = re.search(r"```python\n(.*?)```", text[text.index("## Library"):], re.S).group(1)
    namespace: dict = {}
    exec(block, namespace)
    # each commented line is an expression; its value is pinned below, in order
    shown = [line.split("#")[0].strip() for line in block.splitlines() if "#" in line]
    values = [eval(expr, namespace) for expr in shown]
    assert len(values) == 5
    partition, base, graphical, facets, edges = values
    assert partition == (2, 2, 2)
    assert base == (F(1), F(1, 2), F(1, 2))
    assert graphical is True
    assert len(facets) == 8
    assert edges == {(1, 2, 3), (1, 2, 4)}
