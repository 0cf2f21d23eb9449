"""The README's library example runs and prints what its comments show."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_prints_its_comments(capsys):
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    shown = re.findall(r"^print\(.*\)\s+# (.*)$", code, re.M)
    exec(compile(code, str(README), "exec"), {})
    assert len(shown) == 2
    assert capsys.readouterr().out.splitlines() == shown
