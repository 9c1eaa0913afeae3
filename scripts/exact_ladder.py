"""Cold and warm times of the exact route's layers over a ladder of orders,
one line per rung.

For each rung n = 16, 32, 48, 64, 85, 96 and 128 it times
circulant_from_c(n, c) (c seeded by n, entries in [-9, 9]), the
circulant_eigensystem of that spec, and nondense_circulant(p, q) for the
two-prime order p*q nearest n (85 is one).  Each time is the best of
--repeat runs, in microseconds.  A cold run starts with every functools
lru_cache of the upst package cleared (the per-order tables: Phi_n, R_n, the
Fourier matrix), as the first call of an order in a fresh process does; a
warm run follows a call of the same order.  BLAS runs on one thread, as in
perfbench.  Only upst is imported, so any checkout of the package can be
timed.  Exits 1 unless every eigensystem is exact and rational.

usage: python3 scripts/exact_ladder.py [--max-n N] [--repeat 5]
"""

import argparse
import os
import sys
import time

# One BLAS thread before numpy loads, for times that do not hang on the
# scheduling of BLAS workers.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import numpy as np  # noqa: E402

from upst.constructors import circulant_from_c, nondense_circulant  # noqa: E402
from upst.spectra import circulant_eigensystem  # noqa: E402

RUNGS = ((16, (3, 5)), (32, (3, 11)), (48, (2, 23)), (64, (5, 13)), (85, (5, 17)),
         (96, (5, 19)), (128, (3, 43)))


def clear_caches():
    """Clear every lru_cache of the loaded upst modules."""
    for name, module in list(sys.modules.items()):
        if name == "upst" or name.startswith("upst."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def best_us(call, repeat, cold):
    """The best of repeat timed calls in microseconds, each after clearing
    the caches (cold) or after one untimed call (warm)."""
    if not cold:
        call()
    times = []
    for _ in range(repeat):
        if cold:
            clear_caches()
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return 1e6 * min(times)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=None, help="skip rungs with larger n")
    parser.add_argument("--repeat", type=int, default=5, help="timed runs per cell (>= 1)")
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")

    header = "%5s %11s %11s %11s %11s %9s %11s %11s" % (
        "n", "from_c_cold", "from_c_warm", "eig_cold", "eig_warm",
        "nondense", "nd_cold", "nd_warm")
    print(header)
    print("-" * len(header))
    failed = []
    for n, (p, q) in RUNGS:
        if args.max_n is not None and n > args.max_n:
            continue
        c = [int(v) for v in np.random.default_rng(n).integers(-9, 10, size=n)]
        spec = circulant_from_c(n, c)
        times = [best_us(lambda: circulant_from_c(n, c), args.repeat, cold)
                 for cold in (True, False)]
        times += [best_us(lambda: circulant_eigensystem(spec), args.repeat, cold)
                  for cold in (True, False)]
        times += [best_us(lambda: nondense_circulant(p, q), args.repeat, cold)
                  for cold in (True, False)]
        print("%5d %11.1f %11.1f %11.1f %11.1f %9s %11.1f %11.1f" % (
            n, *times[:4], "%dx%d" % (p, q), *times[4:]))
        for name, s in (("circulant_c(%d)" % n, spec),
                        ("nondense(%d,%d)" % (p, q), nondense_circulant(p, q))):
            if circulant_eigensystem(s).exact_lambdas is None:
                failed.append(name)
    for name in failed:
        print("no exact rational spectrum:", name)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
