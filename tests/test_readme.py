"""The README's Python examples run as written and print what they say.

Each ```python block runs in a fresh namespace.  Every line that calls
``print`` carries a ``# ...`` comment, and the printed text must be a
prefix of that comment (the rest of the comment may explain it).
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)


def test_readme_examples_print_their_comments():
    assert BLOCKS
    for block in BLOCKS:
        comments = [
            line.partition("# ")[2] for line in block.splitlines() if line.startswith("print(")
        ]
        printed: list[str] = []
        namespace = {"print": lambda *args: printed.append(" ".join(map(str, args)))}
        exec(compile(block, str(README), "exec"), namespace)
        assert len(printed) == len(comments), block
        for text, comment in zip(printed, comments):
            assert comment.startswith(text), (text, comment)
