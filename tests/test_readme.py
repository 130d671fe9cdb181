"""The README's Python API example runs against the package as documented,
and the README documents the RNG contract the package records."""

import re
from pathlib import Path

from mtc_underlay.montecarlo import RNG_CONTRACT

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_api_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Python API", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, str(README), "exec"), {})
    assert "Mbit/s" in capsys.readouterr().out


def test_readme_documents_the_recorded_rng_contract():
    # every manifest records RNG_CONTRACT; a stream change that bumps it must
    # bring the README's Reproducibility section along
    assert re.search(rf"\bRNG contract {RNG_CONTRACT}\b", README.read_text(encoding="utf-8"))
