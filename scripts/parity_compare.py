"""Compare two outputs of scripts/parity_corpus.py line by line.

    python3 scripts/parity_compare.py A B

Lines pair up by (input, route), which must be the same in both files.  For
every field the script prints how many lines differ and the largest
difference, reading float.hex strings (and lists of them) as numbers.  A NaN
against a number, or two tables of different lengths, counts as inf; a
difference that is not between numbers (a verdict, a list of reasons, None
against a table) prints as "-".  The input of every differing exact line is
listed by name.  It exits 1 if any verdict or count field differs (VERDICT_FIELDS) or if
any exact line (route "exact") differs at all, and 0 otherwise, so last-bit
changes in times and phases pass and are shown.
"""

import json
import math
import sys

VERDICT_FIELDS = (
    "upst", "reasons", "circulant_timing", "spacing_order", "dense", "grid_points",
    "classes", "members",
)


def numbers(value):
    """The floats of a float.hex string or a list of them; None for anything else."""
    try:
        return [float.fromhex(v) for v in (value if isinstance(value, list) else [value])]
    except (TypeError, ValueError):
        return None


def largest_difference(a, b):
    """max |a - b| over two equal-length number lists (NaN equals NaN), inf for
    lists that do not line up or a NaN against a number, None when either side
    is not numeric."""
    x, y = numbers(a), numbers(b)
    if x is None or y is None:
        return None
    if len(x) != len(y):
        return math.inf
    diffs = [0.0 if p == q or (p != p and q != q) else abs(p - q) for p, q in zip(x, y)]
    return max((d if d == d else math.inf for d in diffs), default=0.0)


def read(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old, new = (read(path) for path in argv)
    keys = [[(line["input"], line["route"]) for line in lines] for lines in (old, new)]
    if keys[0] != keys[1]:
        print("the files hold different runs")
        return 1
    counts, largest = {}, {}
    exact_differs = []
    for a, b in zip(old, new):
        if a["route"] == "exact" and a != b:
            exact_differs.append(a["input"])
        for field in dict.fromkeys(f for f in [*a, *b] if f not in ("input", "route")):
            counts.setdefault(field, 0)
            if a.get(field) == b.get(field):
                continue
            counts[field] += 1
            diff = largest_difference(a.get(field), b.get(field))
            if diff is not None:
                largest[field] = max(largest.get(field, 0.0), diff)
    runs = sum(route != "exact" for _, route in keys[0])
    print("%d runs, %d exact lines; %d exact lines differ"
          % (runs, len(old) - runs, len(exact_differs)))
    for name in exact_differs:
        print("exact line differs: %s" % name)
    print("%-18s %6s  %s" % ("field", "lines", "largest"))
    for field, count in counts.items():
        print("%-18s %6d  %s" % (field, count, "%.3g" % largest[field] if field in largest
                                 else "-" if count else "0"))
    verdicts_differ = any(counts.get(field, 0) for field in VERDICT_FIELDS)
    return 1 if verdicts_differ or exact_differs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
