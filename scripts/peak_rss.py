#!/usr/bin/env python3
"""Run one `elastic-schwarz` command in this process and hold it to a
peak resident set size of LIMIT_MB megabytes.

    python scripts/peak_rss.py 400 sweep --k-count 1000001 --omega 5 --out OUT

Prints the peak RSS.  Exits with the command's status when that is not 0,
else with a message when the peak exceeds the limit, else 0."""
import resource
import sys

from elastic_schwarz.cli import main

if __name__ == "__main__":
    limit = float(sys.argv[1])
    status = main(sys.argv[2:])
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak RSS {peak:.0f} MB")
    sys.exit(status or (peak > limit and f"peak RSS {peak:.0f} MB exceeds {limit:g} MB"))
