#!/usr/bin/env python3
"""The paper's experiment set, each experiment at omega = 1 and 5, written
to OUT/NAME/omega1 and OUT/NAME/omega5:

  fig1         wavenumber sweep of the mode iteration: its stagnant,
               divergent and contractive bands
  error_modes  25 two-subdomain Schwarz sweeps on the 80x40 mesh: the
               error history and the final error field
  fig2         spectrum of the RAS-preconditioned operator on a 40x20 mesh
  fig3         stationary RAS and RAS-preconditioned GMRES histories on
               the 80x40 mesh

Stops at the first command that fails and exits with its status."""
import argparse
import os
import sys

from elastic_schwarz.cli import main

EXPERIMENTS = {
    "fig1": ["sweep"],
    "error_modes": ["schwarz"],
    "fig2": ["spectrum", "--nx", "40", "--ny", "20"],
    "fig3": ["gmres"],
}
OMEGAS = {"omega1": "1.0", "omega5": "5.0"}


def run(out_base: str) -> int:
    for name, argv in EXPERIMENTS.items():
        for sub, omega in OMEGAS.items():
            out = os.path.join(out_base, name, sub)
            code = main(argv + ["--omega", omega, "--out", out])
            if code != 0:
                return code
            print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--out", default="results", help="output directory (default: results)")
    sys.exit(run(parser.parse_args().out))
