#!/usr/bin/env python3
"""Spectrum of the RAS-preconditioned operator on a 40x20 mesh for the
two reference frequencies."""
import argparse
import sys

from elastic_schwarz.cli import main


def run(out_base: str) -> int:
    for omega, sub in ((1.0, "omega1"), (5.0, "omega5")):
        code = main(
            [
                "spectrum",
                "--out", f"{out_base}/{sub}",
                "--omega", str(omega),
                "--nx", "40",
                "--ny", "20",
            ]
        )
        if code != 0:
            return code
        print(f"wrote {out_base}/{sub}/spectrum.csv")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/fig2")
    sys.exit(run(parser.parse_args().out))
