"""The Python examples in README's "Library" section run against the package as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_examples_run(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```", section, re.S | re.M)
    assert blocks, "README's Library section has no Python example"
    for block in blocks:
        exec(compile(block, f"{README.name} (Library)", "exec"), {})
    # the first example prints the tour of gen_sts(7): seven edges, closed
    tokens = capsys.readouterr().out.split()
    assert len(tokens) == 15 and tokens[0] == tokens[-1]
