"""The README's Python API example runs against the package as documented."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_api_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Python API", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, str(README), "exec"), {})
    assert "Mbit/s" in capsys.readouterr().out
