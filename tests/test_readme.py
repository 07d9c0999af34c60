import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.MULTILINE | re.DOTALL)


def test_readme_python_blocks_run_in_order():
    """The quick tour's blocks share one session, as a reader would type
    them; each `print(...)  # value` line must print that value."""
    blocks = python_blocks()
    assert len(blocks) >= 2
    namespace: dict[str, object] = {}
    for block in blocks:
        expected = [
            line.split("#", 1)[1].strip()
            for line in block.splitlines()
            if line.startswith("print(") and "#" in line
        ]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), namespace)
        printed = out.getvalue().splitlines()
        assert len(printed) == len(expected)
        for shown, comment in zip(printed, expected):
            assert comment == shown or comment.startswith(shown + " "), (shown, comment)
