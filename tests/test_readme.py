"""The README's Python examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_examples_run_in_order(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 2
    namespace = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    capsys.readouterr()
    exec(compile(blocks[1], "README.md", "exec"), namespace)
    assert capsys.readouterr().out == "24\n"
