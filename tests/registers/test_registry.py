"""Tests for the protocol registry."""

import importlib
import pkgutil

import pytest

import repro.registers
from repro.errors import ConfigurationError
from repro.registers import abd, fast_byzantine, fast_crash
from repro.registers.ablations import FLAWS
from repro.registers.base import ClusterConfig, StorageServer
from repro.registers.registry import PROTOCOLS, get_protocol
from repro.sim.latency import ConstantLatency
from repro.workloads import ClosedLoopWorkload, run_workload

#: ``repro protocols`` at the commit before the rows moved into the
#: modules; the derived registry must print the same bytes.
PROTOCOLS_STDOUT = """\
Implemented register protocols
protocol         paper source                                              read RTT  write RTT  atomic  fast
---------------  --------------------------------------------------------  --------  ---------  ------  ----
fast-crash       Figure 2, Section 4                                       1         1          yes     yes 
fast-byzantine   Figure 5, Section 6.1                                     1         1          yes     yes 
abd              [Attiya et al. 1995], Section 1                           2         1          yes     no  
maxmin           Section 1 (sketch)                                        1         1          yes     no  
swsr-fast        Section 1 (sketch)                                        1         1          yes     yes 
regular-fast     Section 8                                                 1         1          no      yes 
semifast         Section 8 trade-off (extension; cf. semifast follow-ups)  1         1          yes     no  
mwmr             [Lynch & Shvartsman 1997], Section 7                      2         2          yes     no  
naive-fast-mwmr  Section 7 (impossibility target)                          1         1          no      yes 
"""


class TestOneDeclarationPerProtocol:
    def test_every_module_with_a_spec_is_registered_and_vice_versa(self):
        declared = {}
        for info in pkgutil.iter_modules(repro.registers.__path__):
            module = importlib.import_module(f"repro.registers.{info.name}")
            if hasattr(module, "SPEC"):
                declared[module.SPEC.name] = module.SPEC
        assert declared.keys() == PROTOCOLS.keys()
        assert all(PROTOCOLS[name] is spec for name, spec in declared.items())

    def test_keys_keep_the_pinned_order(self):
        assert list(PROTOCOLS) == [
            "fast-crash", "fast-byzantine", "abd", "maxmin", "swsr-fast",
            "regular-fast", "semifast", "mwmr", "naive-fast-mwmr",
        ]

    def test_protocols_command_prints_the_same_bytes(self, capsys):
        from repro.cli import main

        assert main(["protocols"]) == 0
        assert capsys.readouterr().out == PROTOCOLS_STDOUT


class TestSwap:
    def test_class_stands_in_for_the_role_it_subclasses(self):
        eager = FLAWS["eager-reader"].automaton
        no_reset = FLAWS["no-seen-reset"].automaton
        spec = fast_crash.SPEC.swap(eager, no_reset)
        assert spec.name == "fast-crash(ablated)"
        assert spec.automata == fast_crash.SPEC.automata._replace(
            reader=eager, server=no_reset
        )
        assert spec.requirement is fast_crash.SPEC.requirement
        assert fast_crash.SPEC.name == "fast-crash"  # the base is untouched

    def test_signed_stays_signed(self):
        gullible = FLAWS["gullible-reader"].automaton
        spec = fast_byzantine.SPEC.swap(gullible)
        cluster = spec.build(ClusterConfig(S=4, t=1, R=2, b=1), enforce=False)
        assert cluster.authority is not None
        assert cluster.protocol == "fast-byzantine(ablated)"
        assert {type(r) for r in cluster.readers} == {gullible}

    @pytest.mark.parametrize("stranger", [StorageServer, int])
    def test_a_class_in_no_role_is_refused(self, stranger):
        with pytest.raises(ConfigurationError, match="subclasses no automaton"):
            fast_crash.SPEC.swap(stranger)

    def test_a_factory_role_matches_no_class(self):
        """abd's server role is a factory, not a class: nothing can
        claim to stand in for it."""
        with pytest.raises(ConfigurationError):
            abd.SPEC.swap(StorageServer)
        assert abd.SPEC.swap(abd.AbdReader).automata == abd.SPEC.automata

#: One S=9 configuration per protocol for the measured-rounds check.
ROUND_CONFIGS = {
    "fast-crash": ClusterConfig(S=9, t=1, R=2),
    "fast-byzantine": ClusterConfig(S=9, t=1, b=1, R=2),
    "abd": ClusterConfig(S=9, t=1, R=2),
    "maxmin": ClusterConfig(S=9, t=1, R=2),
    "swsr-fast": ClusterConfig(S=9, t=1, R=1),
    "regular-fast": ClusterConfig(S=9, t=1, R=2),
    "mwmr": ClusterConfig(S=9, t=1, R=2, W=2),
    "naive-fast-mwmr": ClusterConfig(S=9, t=1, R=2, W=2),
}


class TestRegistry:
    def test_all_expected_protocols_present(self):
        assert set(PROTOCOLS) == {
            "fast-crash",
            "fast-byzantine",
            "abd",
            "maxmin",
            "swsr-fast",
            "regular-fast",
            "semifast",
            "mwmr",
            "naive-fast-mwmr",
        }

    def test_get_protocol_unknown(self):
        with pytest.raises(KeyError, match="unknown protocol"):
            get_protocol("paxos")

    def test_names_match_keys(self):
        for key, spec in PROTOCOLS.items():
            assert spec.name == key

    def test_fast_flags_consistent_with_rounds(self):
        for spec in PROTOCOLS.values():
            if spec.fast_reads:
                assert spec.read_rounds == 1
            if spec.fast_writes:
                assert spec.write_rounds == 1

    @pytest.mark.parametrize("protocol", sorted(ROUND_CONFIGS))
    def test_measured_rounds_match_declared_rounds(self, protocol):
        """Client rounds per operation in a run are the declared ones, and
        the fastness checker agrees with the declared fast flags."""
        spec = PROTOCOLS[protocol]
        result = run_workload(
            protocol,
            ROUND_CONFIGS[protocol],
            workload=ClosedLoopWorkload(reads_per_reader=5, writes_per_writer=5),
            seed=1,
            latency=ConstantLatency(1.0),
        )
        rounds = result.rounds()
        assert set(rounds.get("read", {spec.read_rounds: 0})) == {spec.read_rounds}
        assert set(rounds.get("write", {spec.write_rounds: 0})) == {spec.write_rounds}
        assert result.check_fast().ok == (spec.fast_reads and spec.fast_writes)

    def test_single_writer_protocols_reject_multiwriter_configs(self):
        config = ClusterConfig(S=20, t=1, R=2, W=2)
        for spec in PROTOCOLS.values():
            if not spec.multi_writer:
                assert spec.requirement(config) is not None

    def test_every_spec_buildable_on_generous_config(self):
        for spec in PROTOCOLS.values():
            readers = 1 if spec.name == "swsr-fast" else 2
            config = ClusterConfig(
                S=20, t=1, R=readers, W=2 if spec.multi_writer else 1
            )
            assert spec.requirement(config) is None, spec.name
            cluster = spec.build(config)
            assert len(cluster.servers) == 20
            assert cluster.protocol == spec.name

    def test_metadata_strings_nonempty(self):
        for spec in PROTOCOLS.values():
            assert spec.summary
            assert spec.paper_source
