#!/usr/bin/env python3
"""Survey band projections over rational grids of growing resolution.

For each builtin algebra, enumerate the order idempotents (when there is
an identity), walk the grid {k/N} for increasing N, and count the band
projections certified at each resolution.  In fixtures like upper2 the
count keeps growing with N — band projections can fill whole rays,
unlike the finite OI set — which is the phenomenon this survey plots.

Usage:
    python scripts/bp_grid_survey.py
    python scripts/bp_grid_survey.py --builtin upper2 --max-resolution 6
"""

import argparse
import itertools

import latticealg as la
from latticealg import GridSpec
from latticealg.projections import GRID_POINT_CAP


def survey(name: str, max_resolution: int) -> None:
    alg = la.builtin(name)
    print(f"== {name} (dim {alg.dim}) ==")
    if alg.has_identity():
        oi = la.enumerate_order_idempotents(alg)
        print(f"order idempotents (complete): {len(oi)}")
    else:
        print("order idempotents: no identity")
    previous: set = set()
    at_two = None
    for n in range(1, max_resolution + 1):
        grid = GridSpec.from_resolution(n)
        if grid.size(alg.dim) > GRID_POINT_CAP:
            print(f"  N={n}: grid too large ({grid.size(alg.dim)} points), stopping")
            break
        found = la.search_band_projections(alg, grid)
        if n == 2:
            at_two = found
        coords = {hit.element.coords for hit in found}
        fresh = coords - previous
        previous |= coords
        print(
            f"  N={n}: {len(found)} band projections on the grid"
            f" ({len(fresh)} not seen at coarser N)"
        )
    if at_two is None:
        at_two = la.search_band_projections(alg, GridSpec.from_resolution(2))
    # The hits carry supp L_a and supp R_a, so the two-sided members need no
    # second reading, and the script asks only whether they commute.
    two_sided = [hit.element for hit in at_two if None not in (hit.left, hit.right)]
    commuting = all(
        alg.product_is(a, b, alg.multiply(b, a)) for a, b in itertools.combinations(two_sided, 2)
    )
    print(f"left-and-right members at N=2: {len(two_sided)}, pairwise commuting: {commuting}")
    print()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--builtin", action="append", help="fixture name (repeatable)")
    parser.add_argument("--max-resolution", type=int, default=4)
    args = parser.parse_args()
    names = args.builtin or list(la.BUILTIN_NAMES)
    for name in names:
        survey(name, args.max_resolution)


if __name__ == "__main__":
    main()
