"""Each quick demo runs to completion with the package from ``src/``.

A demo that calls a deleted or renamed public function fails here.
``04_train_and_evaluate.py`` is left out: it trains two GRU arms for
minutes, and criterion 7 of the acceptance suite runs the same
baseline-vs-augmented comparison at desk scale.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
QUICK_DEMOS = ["01_prepare_corpus.py", "02_candidate_sets.py",
               "03_augmentation_operators.py"]


@pytest.mark.parametrize("demo", QUICK_DEMOS)
def test_demo_runs(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
