"""The README's library tour runs as written."""

import re
from pathlib import Path


def library_tour():
    """The ``python`` block of the README's "Library tour" section."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("## Library tour", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 1
    return blocks[0]


def test_library_tour_runs(capsys):
    scope = {}
    exec(compile(library_tour(), "README.md (Library tour)", "exec"), scope)
    sol, record = scope["sol"], scope["record"]
    assert record.converged and record.status == "ok"
    assert 0.0 < sol.error < 0.05
    assert capsys.readouterr().out.split() == [str(sol.error),
                                               str(record.speedup)]
