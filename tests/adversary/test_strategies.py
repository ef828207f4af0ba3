"""The unified adversary model and its reply-corruption strategies."""

import pytest

from repro.adversary import (
    Adversary,
    DEFAULT_MENU,
    DROP,
    STRATEGIES,
    StrategyContext,
    get_strategy,
    resolve_menu,
)
from repro.crypto.signatures import SignatureAuthority
from repro.errors import ConfigurationError
from repro.faults.byzantine import StrategyServer, run_captured
from repro.registers import messages as msg
from repro.registers.base import ClusterConfig
from repro.registers.fast_byzantine import FastByzantineServer
from repro.registers.timestamps import (
    INITIAL_SIGNED_TAG,
    INITIAL_TAG,
    ValueTag,
    sign_tag,
    verify_tag,
)
from repro.sim.ids import reader, server, writer

CONFIG = ClusterConfig(S=6, t=1, b=1, R=2)


@pytest.fixture
def authority():
    auth = SignatureAuthority(seed=7)
    auth.register(writer(1))
    return auth


def signed_ack(authority, ts=3, seen=(writer(1), reader(1))):
    tag = sign_tag(authority, writer(1), ts, f"v{ts}", f"v{ts - 1}")
    return msg.FastReadAck(
        op_id=1, tag=tag, seen=frozenset(seen), r_counter=1
    )


class TestStaleStrategy:
    def test_signed_ack_degrades_to_initial_tag(self, authority):
        stale = get_strategy("stale")
        out = stale.corrupt(signed_ack(authority), StrategyContext())
        assert out.tag == INITIAL_SIGNED_TAG
        assert out.seen == signed_ack(authority).seen  # seen rides along
        assert out.r_counter == 1

    def test_unsigned_ack_degrades_to_initial_value_tag(self):
        stale = get_strategy("stale")
        ack = msg.FastReadAck(
            op_id=1,
            tag=ValueTag(4, "v4", "v3"),
            seen=frozenset({reader(1)}),
            r_counter=2,
        )
        out = stale.corrupt(ack, StrategyContext())
        assert out.tag == INITIAL_TAG

    def test_query_reply_supported(self, authority):
        stale = get_strategy("stale")
        out = stale.corrupt(
            msg.QueryReply(op_id=1, tag=ValueTag(9, "v", "p")),
            StrategyContext(),
        )
        assert out.tag == INITIAL_TAG

    def test_inapplicable_payload_passes_through(self):
        stale = get_strategy("stale")
        assert stale.corrupt(msg.StoreAck(op_id=1, ts=3), StrategyContext()) is None


class TestInflateAndForge:
    def test_inflate_claims_every_client(self, authority):
        inflate = get_strategy("inflate-seen")
        ctx = StrategyContext(clients=tuple(CONFIG.client_ids))
        out = inflate.corrupt(signed_ack(authority, seen=()), ctx)
        assert out.seen == frozenset(CONFIG.client_ids)
        assert out.tag == signed_ack(authority).tag  # tag untouched

    def test_inflate_without_client_population_is_inapplicable(self, authority):
        inflate = get_strategy("inflate-seen")
        assert inflate.corrupt(signed_ack(authority), StrategyContext()) is None

    def test_forged_tag_fails_verification(self, authority):
        forge = get_strategy("forge")
        ctx = StrategyContext(authority=authority, writer=writer(1))
        out = forge.corrupt(signed_ack(authority), ctx)
        assert out.tag.ts == ctx.forged_ts
        assert not verify_tag(authority, writer(1), out.tag)

    def test_silent_drops_everything(self, authority):
        silent = get_strategy("silent")
        assert silent.corrupt(signed_ack(authority), StrategyContext()) is DROP

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown reply strategy"):
            get_strategy("gaslight")


class TestContextOfACluster:
    """``StrategyContext.of`` is the context ``ScheduleDriver`` used to
    compose by hand: the cluster's authority, the one writer, every
    client in config order."""

    @pytest.mark.parametrize(
        "target, b", [("fast-crash", 0), ("fast-byzantine", 1), ("abd", 0)]
    )
    def test_equals_the_hand_composed_context(self, target, b):
        from repro.explore import ExploreScenario
        from repro.explore.driver import ScheduleDriver

        config = ClusterConfig(S=6, t=1, b=b, R=2)
        driver = ScheduleDriver(ExploreScenario(target, config))
        cluster = driver.cluster
        assert (cluster.authority is not None) == (target == "fast-byzantine")
        expected = StrategyContext(
            authority=cluster.authority,
            writer=writer(1),
            clients=tuple(config.client_ids),
        )
        assert StrategyContext.of(cluster) == expected
        assert driver._strategy_ctx == expected


class TestWrappersDelegateToStrategies:
    """The faults/ wrapper servers and the raw strategies must agree:
    one source of truth for every corruption."""

    def _inner(self, authority):
        return FastByzantineServer(server(1), CONFIG, authority)

    def _read(self):
        return msg.FastRead(op_id=2, tag=INITIAL_SIGNED_TAG, r_counter=1)

    def test_stale_wrapper_equals_strategy(self, authority):
        wrapped = run_captured(
            StrategyServer(self._inner(authority), "stale"),
            self._read(),
            reader(1),
            0.0,
        )
        honest = run_captured(self._inner(authority), self._read(), reader(1), 0.0)
        expected = [
            (dst, get_strategy("stale").corrupt(payload, StrategyContext()))
            for dst, payload in honest
        ]
        assert wrapped == expected

    def test_inflate_wrapper_equals_strategy(self, authority):
        clients = CONFIG.client_ids
        wrapped = run_captured(
            StrategyServer(
                self._inner(authority),
                "inflate-seen",
                StrategyContext(clients=tuple(clients)),
            ),
            self._read(),
            reader(1),
            0.0,
        )
        assert all(p.seen == frozenset(clients) for _, p in wrapped)

    def test_forge_wrapper_equals_strategy(self, authority):
        wrapped = run_captured(
            StrategyServer(
                self._inner(authority),
                "forge",
                StrategyContext(authority=authority, writer=writer(1)),
            ),
            self._read(),
            reader(1),
            0.0,
        )
        assert all(p.tag.ts == 1_000_000 for _, p in wrapped)
        assert all(
            not verify_tag(authority, writer(1), p.tag) for _, p in wrapped
        )

    def test_silent_strategy_server_answers_nothing(self, authority):
        silent = StrategyServer(self._inner(authority), "silent")
        assert run_captured(silent, self._read(), reader(1), 0.0) == []


class TestAdversaryModel:
    def test_menu_requires_budget(self):
        with pytest.raises(ConfigurationError, match="requires a Byzantine"):
            Adversary(strategies=("stale",)).validate(CONFIG)

    def test_budgets_respect_model_parameters(self):
        Adversary.byzantine(1, crash_budget=1).validate(CONFIG)
        with pytest.raises(ConfigurationError, match="exceeds the model's b"):
            Adversary.byzantine(2).validate(CONFIG)
        with pytest.raises(ConfigurationError, match="exceeds the model's t"):
            Adversary.crash_only(2).validate(CONFIG)

    def test_default_menu_is_bounded_and_known(self):
        assert set(DEFAULT_MENU) <= set(STRATEGIES)
        menu = Adversary.byzantine(1).menu()
        assert [strategy.name for strategy in menu] == list(DEFAULT_MENU)
        assert Adversary.crash_only(1).menu() == ()
        assert not Adversary.crash_only(1).corrupts
        assert Adversary.byzantine(1).corrupts

    def test_resolve_menu_preserves_order(self):
        names = ("forge", "stale")
        assert tuple(s.name for s in resolve_menu(names)) == names
