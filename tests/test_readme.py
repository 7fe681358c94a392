"""README.md: its library example runs, and it documents every public name."""
import pathlib
import re

import darbouxflow

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(capsys):
    section = README.read_text().split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    assert float(capsys.readouterr().out) < 1e-14   # the example promises ~1e-16


def test_readme_names_every_public_name():
    text = README.read_text()
    missing = [name for name in darbouxflow.__all__
               if not re.search(rf"`{re.escape(name)}`", text)]
    assert missing == []
