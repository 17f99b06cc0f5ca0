"""The README's library example runs and its code references resolve."""
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks, "README.md has no python block"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_readme_code_references_resolve():
    # every backticked dotted name of a package module, or of TGrid, that
    # README cites (a call's name before its arguments too) names something
    # the package has, so a rename that leaves README behind fails here
    import importlib

    from ptdarboux.closed_form import TGrid

    cited = set(re.findall(r"`((?:numerics|hypergeom|models|darboux|closed_form|verify|cli"
                           r"|TGrid)(?:\.\w+)+)", README.read_text(encoding="utf-8")))
    assert len(cited) >= 20, sorted(cited)
    missing = []
    for name in sorted(cited):
        head, *path = name.split(".")
        obj = TGrid if head == "TGrid" else importlib.import_module(f"ptdarboux.{head}")
        for part in path:
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(name)
    assert not missing, missing
