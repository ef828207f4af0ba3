"""E10 — ablations and the executable proof skeleton.

Two extensions beyond the paper's figures, regenerating the *reasons*
behind the results:

1. **Ablations of Figure 2**: removing the predicate (either way), the
   seen-set reset, or the full write quorum admits a concrete scripted
   atomicity violation that the faithful protocol survives under the
   identical schedule.  Each component is therefore load-bearing.
2. **The Section 5 indistinguishability chain**: every pairwise claim
   of the proof (``pr_i ~ ◊pr_i``, ``pr^A ~ pr^B``, ``pr^C ~ pr^D``) is
   executed as two independent runs and the distinguished reader's ack
   sequences compared message-by-message — a machine-checked transcript
   of the impossibility argument, not just its conclusion.
"""

import pytest

from repro.bounds import verify_crash_chain
from repro.registers.ablations import ABLATIONS
from repro.spec.histories import BOTTOM


@pytest.mark.parametrize("name", sorted(ABLATIONS))
def test_ablation_witness(benchmark, name):
    witness = benchmark(ABLATIONS[name])
    assert witness.demonstrates_necessity, witness.describe()
    benchmark.extra_info["ablation"] = name
    benchmark.extra_info["ablated_verdict"] = witness.ablated_verdict.reason
    benchmark.extra_info["control_ok"] = witness.control_verdict.ok


@pytest.mark.parametrize(
    "S,t,R", [(4, 1, 2), (9, 2, 3), (12, 3, 2)], ids=lambda v: str(v)
)
def test_indistinguishability_chain(benchmark, S, t, R):
    report = benchmark(lambda: verify_crash_chain(S, t, R))
    assert report.all_hold, report.describe()
    assert report.anchored_value == 1
    assert report.final_values == (1, BOTTOM)
    benchmark.extra_info["claims"] = [claim.name for claim in report.claims]
    benchmark.extra_info["chain"] = report.describe()


@pytest.mark.parametrize(
    "S,t,b,R", [(7, 1, 1, 2), (13, 2, 1, 3)], ids=lambda v: str(v)
)
def test_byzantine_indistinguishability_chain(benchmark, S, t, b, R):
    from repro.bounds import verify_byzantine_chain

    report = benchmark(lambda: verify_byzantine_chain(S, t, b, R))
    assert report.all_hold, report.describe()
    assert report.final_values == (1, BOTTOM)
    benchmark.extra_info["claims"] = [claim.name for claim in report.claims]


def test_chain_scales_with_readers(benchmark):
    """Chain length grows linearly with R; every claim keeps holding."""

    def sweep():
        lengths = {}
        for R in (2, 3, 4, 5):
            S, t = R + 2, 1  # exactly the threshold: (R+2)t = S
            report = verify_crash_chain(S, t, R)
            assert report.all_hold
            lengths[R] = len(report.claims)
        return lengths

    lengths = benchmark(sweep)
    assert lengths == {2: 4, 3: 5, 4: 6, 5: 7}
    benchmark.extra_info["claims_by_R"] = lengths
