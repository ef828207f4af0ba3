#!/usr/bin/env python3
"""Gallery: every impossibility proof in the paper, executed.

Walks through the three lower bounds as *runs you can watch*, with the
paper's block diagrams rendered in ASCII:

1. Section 5 (Figures 1, 3, 4): the crash-model construction pr^C
   against Figure 2's protocol beyond its threshold.
2. Section 6.2 (Figure 6): the Byzantine construction with a
   memory-losing two-faced block, against the signed Figure 5 protocol.
3. Section 7 (Figure 7, Proposition 11): the run chain that breaks any
   fast multi-writer candidate.

Run:  python examples/lower_bound_gallery.py
"""

from repro import (
    run_byzantine_lower_bound,
    run_crash_lower_bound,
    run_mwmr_impossibility,
)
from repro.bounds.diagrams import render_block_diagram, render_threshold_frontier
from repro.bounds.mwmr_construction import run_sequential_family


def banner(text: str) -> None:
    print()
    print("=" * 72)
    print(text)
    print("=" * 72)


def main() -> None:
    banner("The feasibility frontier (t = 1, crash failures)")
    print(render_threshold_frontier(S_max=14, t=1, b=0))

    banner("1. Section 5: R >= S/t - 2 kills fast reads (S=4, t=1, R=2)")
    crash = run_crash_lower_bound(S=4, t=1, R=2)
    print(crash.describe())
    print()
    print(render_block_diagram(crash))

    banner("2. Section 6.2: signatures do not save you "
           "(S=7, t=1, b=1, R=2)")
    byz = run_byzantine_lower_bound(S=7, t=1, b=1, R=2)
    print(byz.describe())
    print()
    print(render_block_diagram(byz))

    banner("3. Section 7: no fast multi-writer register (S=4, W=R=2, t=1)")
    chain = run_mwmr_impossibility(S=4)
    print(chain.describe())
    print()
    print("violating history:")
    print(chain.first_violation.history.describe())

    banner("Control: the two-round MWMR baseline survives the same family")
    baseline = run_sequential_family(S=4, protocol="mwmr")
    print(f"runs executed: {len(baseline.outcomes)}, "
          f"violations: {int(baseline.violated)}")

    banner("Bonus: the proofs' indistinguishability chains, executed")
    from repro.bounds import verify_byzantine_chain, verify_crash_chain

    print(verify_crash_chain(S=4, t=1, R=2).describe())
    print()
    print(verify_byzantine_chain(S=7, t=1, b=1, R=2).describe())
    print()
    print("Every pairwise claim (pr_i ~ ◊pr_i, pr^A ~ pr^B, pr^C ~ pr^D) was")
    print("executed as two independent runs whose reader views are compared")
    print("message-by-message — all byte-identical, as the proofs assert.")
    print()
    print("Conclusion: each theorem's bound is witnessed by a concrete,")
    print("checker-certified run — not just a proof on paper.")


if __name__ == "__main__":
    main()
