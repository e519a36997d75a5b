import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs_clean(script, capsys):
    runpy.run_path(str(script), run_name="__main__")
    out = capsys.readouterr().out
    assert "model:" in out


def test_readme_library_tour_gives_its_commented_results(monkeypatch):
    readme = (ROOT / "README.md").read_text()
    (tour,) = re.findall(r"## Library tour\n\n```python\n(.*?)```", readme, re.S)
    monkeypatch.chdir(ROOT)  # the tour loads models/sir.model
    scope = {}
    exec(tour, scope)
    assert [s.names() for s in scope["menu"].sets] == [("R",)]
    assessment = scope["assessment"]
    assert (assessment.rank.generic_rank, assessment.n, assessment.observable) == (3, 3, True)
    assert scope["search"].positive_sets() == (("S",), ("I",))
