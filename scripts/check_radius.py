#!/usr/bin/env python3
"""Check the spectral radius max|1 - lambda| of the RAS error propagator
read from a `spectrum.csv` against an expected value, to a relative 1e-9.

    python scripts/check_radius.py OUT/spectrum.csv 2.7663091597

Exits 0 when it holds and prints the radius found otherwise."""
import sys

import numpy as np


def radius(path: str) -> float:
    rows = [line for line in open(path) if line[0] != "#"][1:]
    re, im = np.loadtxt(rows, delimiter=",", unpack=True)
    return float(np.abs(1 - re - 1j * im).max())


if __name__ == "__main__":
    path, want = sys.argv[1], float(sys.argv[2])
    r = radius(path)
    sys.exit(None if abs(r - want) <= 1e-9 * want else f"spectral radius {r:.10f}, expected {want}")
