"""Count the contact graphs admissible in system deadlock.

Active pairwise constraints form a connected labeled graph whose edges must
realize exactly the safety distance in the plane while non-edges stay
strictly wider.  The table compares the combinatorial bounds with the
geometric census.  A graph that breaks an exact penny-graph rule (the edge
bound, a K4, or two vertices with three common neighbours) is certified not
admissible; the rest are searched for positions.  The table walks
isomorphism classes: each N's admissible classes grow one vertex at a time
from the (N-1)-vertex ones, each search starts from the parent class's
positions (falling back on deterministic seeded restarts), and a class
counts N!/|Aut| labeled graphs.  The N = 4 breakdown lists labeled graphs,
from `admissible_report`'s verdict on each.

    python demos/census_table.py [--n-max 4] [--attempts 200]
"""

from __future__ import annotations

import argparse
from collections import Counter

from mrdeadlock.graphenum import (
    admissible_report,
    census_table,
    obstruction,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=4)
    parser.add_argument("--attempts", type=int, default=200)
    args = parser.parse_args()

    rows = census_table(n_max=args.n_max, attempts=args.attempts)
    print(f"{'N':>3} {'upper 2^C(N,2)':>15} {'connected':>10} {'admissible':>11} {'lower':>6}")
    for row in rows:
        print(f"{row['n']:>3} {row['upper']:>15} {row['connected']:>10} "
              f"{row['admissible']:>11} {row['lower']:>6}")

    if args.n_max >= 4:
        print("\nN = 4 breakdown by degree sequence (labeled graphs):")
        rep = admissible_report(4, attempts=args.attempts)
        feas = Counter(tuple(sorted(g.degree_sequence())) for g, r in rep if r.feasible)
        infeas = [(g, r) for g, r in rep if not r.feasible]
        names = {
            (1, 1, 2, 2): "path",
            (1, 1, 1, 3): "star",
            (1, 2, 2, 3): "triangle + pendant",
            (2, 2, 2, 2): "4-cycle",
            (2, 2, 3, 3): "diamond",
            (3, 3, 3, 3): "complete K4",
        }
        for deg, count in sorted(feas.items()):
            print(f"  {names.get(deg, str(deg)):<22s} {count:>3} feasible")
        for g, r in infeas:
            deg = tuple(sorted(g.degree_sequence()))
            rule = obstruction(g)
            why = f"certified: {rule}" if rule else f"search failed, best violation {r.max_violation:.3f}"
            print(f"  {names.get(deg, str(deg)):<22s}   1 infeasible ({why})")


if __name__ == "__main__":
    main()
