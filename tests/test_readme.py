"""Every ```python block of README.md runs, and each `print(...)  # value`
line prints what its comment says."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                      re.DOTALL | re.MULTILINE)


def expected_outputs(block):
    """The comment of each print line, in order."""
    return [line.split("#", 1)[1].strip() for line in block.splitlines()
            if line.startswith("print(") and "#" in line]


def matches(printed, comment):
    """Whether printed is what comment says: the comment, or the comment
    up to one of its commas (the rest being prose), with each `...`
    standing for any text."""
    cuts = [i for i, ch in enumerate(comment) if ch == ","] + [len(comment)]
    for cut in cuts:
        pattern = ".*".join(re.escape(part)
                            for part in comment[:cut].split("..."))
        if re.fullmatch(pattern, printed):
            return True
    return False


def test_matches_reads_ellipses_and_trailing_prose():
    assert matches("{(): 1}", "{(): 1}, the delta contraction")
    assert matches("{(0, 0): 1, (2, -1): 1, (4, 0): 3}",
                   "{(0, 0): 1, ..., (4, 0): 3}")
    assert not matches("{(): 2}", "{(): 1}, the delta contraction")
    assert not matches("(1) beta(-1)", "(1) beta(-1) c(-1)")


def test_readme_python_blocks_run_and_print_their_comments():
    blocks = python_blocks()
    assert len(blocks) == 3
    checked = 0
    for block in blocks:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), {})
        printed = out.getvalue().splitlines()
        expected = expected_outputs(block)
        assert len(printed) == len(expected), block
        for line, comment in zip(printed, expected):
            assert matches(line, comment), (line, comment)
            checked += 1
    assert checked == 4
