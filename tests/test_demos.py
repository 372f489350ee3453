"""Every demo prints the stdout recorded in tests/demo_stdout/<stem>.txt.

Each demo runs in its own interpreter with `-W error` and the library's
source directory on PYTHONPATH.  Re-record a file only when a change is
meant to alter what that demo prints.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import rankone

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
RECORDED = Path(__file__).resolve().parent / "demo_stdout"


def test_every_recorded_stdout_has_its_demo():
    assert DEMOS
    assert sorted(p.stem for p in RECORDED.glob("*.txt")) == [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_prints_recorded_stdout(demo, tmp_path):
    src = str(Path(rankone.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-W", "error", str(demo)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (RECORDED / f"{demo.stem}.txt").read_text()


def test_readme_tour_values_match_their_comments():
    # the first python block of the README: each `expr  # text` line must
    # have repr(expr) == text, a tuple's parentheses left out
    readme = (ROOT / "README.md").read_text()
    tour = readme.split("```python\n", 1)[1].split("```", 1)[0]
    namespace, checked = {}, 0
    for line in tour.splitlines():
        code, _, comment = line.partition("  # ")
        if not comment or not code.strip():
            exec(line, namespace)
            continue
        value = eval(code, namespace)
        text = repr(value)[1:-1] if isinstance(value, tuple) else repr(value)
        assert text == comment.strip(), code
        checked += 1
    assert checked == 4
