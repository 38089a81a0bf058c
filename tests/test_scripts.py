import os
import subprocess
import sys

import elastic_schwarz

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(name, *args):
    src = os.path.dirname(os.path.dirname(os.path.abspath(elastic_schwarz.__file__)))
    return subprocess.run(
        [sys.executable, os.path.join(REPO, "scripts", name), *args],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
    )


def test_experiment_set_writes_every_output(tmp_path):
    done = run_script("experiments.py", "--out", str(tmp_path))
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


def test_peak_rss_over_the_limit_fails(tmp_path):
    # any interpreter takes more than 1 MB
    done = run_script("peak_rss.py", "1", "sweep", "--k-count", "11", "--out", str(tmp_path))
    assert done.returncode != 0
    assert "MB exceeds 1 MB" in done.stderr
    assert (tmp_path / "sweep.csv").exists()
