"""Print the sha256 of the bundle `upst generate` writes for each reference
descriptor, unshifted, with --shift 1000000000 and with --shift 7/3: one
`label sha256` line per bundle, 18 in all.

The descriptors are circ3, flat3 and nd6 of tests/test_cli.py, nondense(3,5),
circulant_c(12, ...) and noncirculant(2,2,3).  `upst.cli.main` runs in-process
on whichever `upst` the import path holds, so two checkouts' outputs compare
their bundle bytes: equal lines mean byte-identical bundles.  Exits 1 if any
generate fails.

usage: PYTHONPATH=src python3 scripts/generate_digest.py
"""

import contextlib
import hashlib
import io
import sys

from upst.cli import main as upst_main

DESCRIPTORS = (
    ("circ3", '{"family": "circulant_c", "n": 3, "c": [0, 1, 2]}'),
    ("flat3", '{"family": "circulant_c", "n": 3, "c": [0, 0, 0]}'),
    ("nd6", '{"family": "nondense", "p": 2, "q": 3}'),
    ("nondense(3,5)", '{"family": "nondense", "p": 3, "q": 5}'),
    ("circulant_c(12)", '{"family": "circulant_c", "n": 12, '
                        '"c": [-6, -3, 9, -1, 0, -4, -7, -1, 2, -1, 5, -3]}'),
    ("noncirculant(2,2,3)", '{"family": "noncirculant", "a": 2, "b": 2, "beta": 3}'),
)
SHIFTS = (None, "1000000000", "7/3")


def main() -> int:
    failures = 0
    for label, descriptor in DESCRIPTORS:
        for shift in SHIFTS:
            argv = ["generate", descriptor] + (["--shift", shift] if shift else [])
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = upst_main(argv)
            failures += code != 0
            name = label if shift is None else "%s+%s" % (label, shift)
            print("%-32s %s" % (name, hashlib.sha256(out.getvalue().encode()).hexdigest()))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
