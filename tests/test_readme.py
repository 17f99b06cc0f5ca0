"""The README's library example runs against the package as it is."""
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks, "README.md has no python block"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
