#!/usr/bin/env python3
"""Sweep every family's closed forms against brute force over the standard
verification ranges and report the flagged alternate forms.

Exit status is non-zero if any confirmed closed form disagrees with the
brute-force oracle.
"""

import sys

from groupzagreb.cli import main

RANGES = [
    ("dihedral", ["--m", "3..30"]),
    ("dicyclic", ["--n", "2..15"]),
    ("quasidihedral", ["--n", "4..7"]),
    ("sd8n", ["--n", "2..8"]),
    ("v8n", ["--n", "1..8"]),
    ("u6n", ["--n", "1..10"]),
    ("m2mn", ["--m", "3..8", "--n", "1..4"]),
    ("pq", ["--p", "2..5", "--q", "3..13"]),
    ("sz2", []),
    ("hanaki_a1", ["--n", "2..4"]),
    ("hanaki_a2", ["--n", "1..2", "--p", "2..5"]),
    ("gl2", ["--q", "3..8"]),
    ("psl2", ["--k", "2..4"]),
]

if __name__ == "__main__":
    worst = 0
    for family, flags in RANGES:
        print(f"== verify {family}")
        worst = max(worst, main(["verify", family] + flags))
    sys.exit(worst)
