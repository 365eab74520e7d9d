#!/usr/bin/env python3
"""Print an ordering witness for every catalog automorphism of F_2 and F_3.

Each map is passed without its inverse, so its automorphy is decided first.
"""

import argparse
import time

from grouporders.catalog import automorphism_catalog
from grouporders.autact import ordering_witness
from grouporders.stdord import TwistedOrdering


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cap", type=int, default=5)
    args = parser.parse_args()
    catalog = automorphism_catalog()
    start = time.perf_counter()
    for name, phi in catalog:
        witness = ordering_witness(phi.forward, args.cap)
        kind = "twisted" if isinstance(witness.ordering, TwistedOrdering) else "standard"
        print(f"{name:28s} word {str(witness.word):18s} "
              f"{witness.sign_before:+d} -> {witness.sign_after:+d}  [{kind}]")
    print(f"\n{len(catalog)} witnesses in {time.perf_counter() - start:.2f}s")


if __name__ == "__main__":
    main()
