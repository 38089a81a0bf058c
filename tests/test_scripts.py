import os
import subprocess
import sys

import elastic_schwarz

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_experiment_set_writes_every_output(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(elastic_schwarz.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, os.path.join(REPO, "scripts", "experiments.py"),
         "--out", str(tmp_path)],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    # 14 files: two sweeps, two Schwarz runs of three files, two spectra
    # and two pairs of histories
    names = {
        "fig1": ["sweep.csv"],
        "error_modes": ["schwarz_history.csv", "schwarz_final.csv", "schwarz_final.bin"],
        "fig2": ["spectrum.csv"],
        "fig3": ["gmres_history.csv", "ras_history.csv"],
    }
    expected = {
        os.path.join(name, sub, file)
        for name, files in names.items() for sub in ("omega1", "omega5") for file in files
    }
    written = {
        os.path.relpath(os.path.join(root, file), tmp_path)
        for root, _, files in os.walk(tmp_path) for file in files
    }
    assert written == expected
