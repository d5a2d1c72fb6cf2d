"""Walk through the running example digraph end to end.

Prints U_D for D = ([3], {(1,1), (1,3), (3,2)}) in several bases, shows
that every applicable route produces the same function, does the same
for the complement, and finishes with the hook read-offs, the
path-cycle functions, and the Hamiltonian counts.
"""

import argparse
from dataclasses import dataclass

from redeiberge.digraph import complement, digraph
from redeiberge.hamilton import ham_report
from redeiberge.redei import (
    chow_xi,
    chow_xi_hat,
    hook_coefficient,
    routes_agree,
    u_all_routes,
    u_from_chow,
)
from redeiberge.symfun import convert


@dataclass
class DemoConfig:
    bases: tuple = ("p", "mtilde", "s", "h", "e")
    timings: bool = False


def show_u(D, label: str, config: DemoConfig) -> None:
    results = u_all_routes(D)
    ref = routes_agree(results)  # raises DisagreementError if they differ
    print(f"{label}: {len(results)} routes, agree: yes")
    for res in results:
        stamp = f"  [{res.elapsed_ms:.1f} ms]" if config.timings else ""
        print(f"  {res.route:<16} {res.value!r}{stamp}")
    for basis in config.bases:
        print(f"  U in {basis:<7} = {convert(ref, basis)!r}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--timings", action="store_true")
    args = parser.parse_args()
    config = DemoConfig(timings=args.timings)

    D = digraph(3, [(1, 1), (1, 3), (3, 2)])
    print(f"digraph: n={D.n}, edges={D.sorted_edges()}")
    show_u(D, "U_D", config)
    show_u(complement(D), "U of the complement", config)

    print("hook Schur coefficients [s_(i,1^(n-i))] U_D:")
    for i, value in enumerate(hook_coefficient(D), start=1):
        print(f"  i={i}: {value}")
    print("  (i=1 counts Hamiltonian paths of D, i=n those of the complement)")

    print(f"Xi_D      = {chow_xi(D)!r}")
    print(f"Xi_Dbar   = {chow_xi(complement(D))!r}")
    print(f"Xihat_D   = {chow_xi_hat(D)!r}")
    print(f"U from Xi_Dbar at y=0: {u_from_chow(D)!r}")

    report = ham_report(D, cycles=True)
    print(f"ham paths: {report.ham_paths} (routes {report.routes})")
    print(f"ham cycles: {report.ham_cycles} (routes {report.cycle_routes})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
