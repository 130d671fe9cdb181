"""The README's Python API example runs against the package as documented,
the README documents the RNG contract the package records, and its Layout
table names the package's modules."""

import re
from pathlib import Path

from mtc_underlay.montecarlo import RNG_CONTRACT

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_readme_python_api_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Python API", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, str(README), "exec"), {})
    assert "Mbit/s" in capsys.readouterr().out


def test_readme_documents_the_recorded_rng_contract():
    # every manifest records RNG_CONTRACT; a stream change that bumps it must
    # bring the README's Reproducibility section along
    assert re.search(rf"\bRNG contract {RNG_CONTRACT}\b", README.read_text(encoding="utf-8"))


def test_readme_layout_lists_exactly_the_package_modules():
    section = README.read_text(encoding="utf-8").split("## Layout", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `mtc_underlay\.(\w+)` \|", section, re.MULTILINE)
    package = ROOT / "src" / "mtc_underlay"
    modules = {p.stem for p in package.glob("*.py")} - {"__init__"}
    assert sorted(listed) == sorted(modules)
