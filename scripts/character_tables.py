#!/usr/bin/env python3
"""Print Weyl-module character data for a block shape: tableau counts per
weight, the product expansions, and the LR multiplicities.

    python3 scripts/character_tables.py -m 2,2 -n 3
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from cycloschur.coeff import LaurentRing  # noqa: E402
from cycloschur.combinatorics import Shape, enumerate_multipartitions, size  # noqa: E402
from cycloschur.symfun import char_product_check, weyl_character  # noqa: E402


def fmt_mp(lam):
    return "(" + ",".join("(" + ",".join(map(str, p)) + ")" for p in lam) + ")"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("-m", default="2,2")
    ap.add_argument("-n", type=int, default=3)
    args = ap.parse_args()
    shape = Shape(tuple(int(x) for x in args.m.split(",")))
    ring = LaurentRing(shape.r)

    print(f"shape m = {shape.m}, characters of Weyl modules up to n = {args.n}\n")
    for n in range(args.n + 1):
        for lam in enumerate_multipartitions(n, shape):
            ch = weyl_character(lam, shape, ring)
            one = (0,) * ring.nvars
            weights = ch.grouped()
            dim = sum(int(dict(c.sorted_terms()).get(one, 0)) for c in weights.values())
            print(f"  ch D{fmt_mp(lam)}: {len(weights)} weights, dimension {dim}")
    print("\nproducts with the box character:")
    box = ((1,),) + ((),) * (shape.r - 1)
    for lam in enumerate_multipartitions(min(args.n, 3), shape):
        rep = char_product_check(lam, box, shape, ring)
        rhs = " + ".join(
            (f"{item['coeff']}*" if item["coeff"] != 1 else "")
            + fmt_mp(tuple(tuple(p) for p in item["nu"]))
            for item in rep["lr"]
        )
        flag = "" if rep["verified"] else "   <-- MISMATCH"
        print(f"  {fmt_mp(lam)} * box = {rhs}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
