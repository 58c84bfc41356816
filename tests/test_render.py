"""EXPERIMENTS.md is what `benchmarks.render` makes of the committed
results/*.json, and the benches that write those artifacts import."""
import os
import subprocess
import sys

from benchmarks.render import ROOT, render


def test_experiments_md_matches_artifacts():
    with open(os.path.join(ROOT, "EXPERIMENTS.md"), encoding="utf-8") as f:
        assert render() == f.read()


def test_benches_collect():
    """Collecting imports every bench and its conftest; no Spark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")])
    )
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q",
         "benchmarks", "-p", "no:cacheprovider"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    items = [ln for ln in out.stdout.splitlines() if "::" in ln]
    assert len(items) == 6, out.stdout
