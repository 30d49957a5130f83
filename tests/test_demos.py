"""Each demo script, and the README's library tour, runs to completion
against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_is_collected():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_0(demo, tmp_path):
    # a dedicated TMPDIR shows whether the demo removes the temporary files it makes
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "TMPDIR": str(tmpdir)}
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert list(tmpdir.iterdir()) == []


def readme_block(heading: str) -> str:
    """The first python code block under a second-level README heading."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split(f"\n## {heading}\n")[1]
    return section.split("```python\n")[1].split("\n```")[0]


def test_the_readme_library_tour_runs(tmp_path, monkeypatch):
    # the bench's audit-boot inputs: an unpenalized outcome fit separates on them
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from workloads import write_inputs

    write_inputs("audit-boot", 1, tmp_path)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", readme_block("Library tour")], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    alpha, *rows = proc.stdout.splitlines()
    assert 0.0 <= float(alpha) <= 1.0
    assert "overall cFNR comparison" in "\n".join(rows)
