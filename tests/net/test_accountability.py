"""Accountability over real sockets and the `repro audit` CLI.

The socket half of the overlay: servers sign replies into the optional
wire-frame statement slot, the client pool verifies and retains them,
shard transcripts merge into an audited load report, and the standalone
`repro audit` command re-verifies artifacts with documented exit codes
(0 = certificates verified, 1 = tampered, 3 = nothing to prove).
"""

import asyncio
import json

import pytest

from repro.accountability import audit_all
from repro.cli import main
from repro.errors import ProtocolError
from repro.net import run_net_workload
from repro.registers.base import ClusterConfig


class TestSocketStatements:
    def test_accountable_run_collects_a_verified_transcript(self):
        result = run_net_workload(
            "fast-crash",
            ClusterConfig(S=5, t=1, R=2),
            reads_per_reader=3,
            writes_per_writer=2,
            seed=3,
            accountable=True,
        )
        assert result.check_atomic().ok
        transcript = result.transcript
        assert transcript is not None
        assert len(transcript) > 0
        assert transcript.rejected == 0
        assert audit_all(transcript) == []
        # one statement per reply the pool consumed, from real servers
        assert {str(pid) for pid in transcript.by_server()} <= {
            f"s{i}" for i in range(1, 6)
        }

    def test_transcript_survives_serialization(self):
        from repro.accountability import TranscriptLog

        result = run_net_workload(
            "abd",
            ClusterConfig(S=3, t=1, R=1),
            reads_per_reader=2,
            writes_per_writer=1,
            seed=1,
            accountable=True,
        )
        payload = json.loads(json.dumps(result.transcript.to_dict()))
        revived = TranscriptLog.from_dict(payload)
        assert revived.to_dict() == result.transcript.to_dict()
        assert audit_all(revived) == []

    def test_transcript_is_serializer_blind(self):
        """The audit input is the same whichever serializer carried it:
        json ships whole statements, binary rebuilds them from the
        envelope plus seq / cause / tag."""
        from repro.net.client import ClientPool
        from repro.net.server import build_net_cluster, start_servers
        from repro.sim.ids import reader, writer

        config = ClusterConfig(S=3, t=0, R=1)

        async def run(serializer):
            servers = await start_servers(
                "abd", config, seed=5, serializer=serializer, accountable=True
            )
            pool = ClientPool(
                {s.pid: s.address for s in servers},
                serializer=serializer,
                collect_statements=True,
                statement_seed=5,
            )
            cluster = build_net_cluster("abd", config, seed=5)
            pool.add_clients([*cluster.readers, *cluster.writers])
            try:
                await pool.connect()
                # t = 0: every round waits for all three replies, so
                # each op's statements are in before the next op starts.
                for step in (1, 2):
                    await pool.run_op(writer(1), "write", value=step, timeout=15)
                    await pool.run_op(reader(1), "read", timeout=15)
            finally:
                await pool.close()
                for srv in servers:
                    await srv.stop()
            payload = pool.transcript.to_dict()
            # arrival order across the three connections is timing
            payload["statements"].sort(key=lambda st: (st["server"], st["seq"]))
            return payload

        as_json = asyncio.run(run("json"))
        as_binary = asyncio.run(run("binary"))
        assert len(as_json["statements"]) == 3 * (2 + 2 * 2)
        assert as_json["rejected"] == 0
        assert as_binary == as_json

    def test_plain_runs_have_no_transcript_and_no_statements(self):
        result = run_net_workload(
            "abd",
            ClusterConfig(S=3, t=1, R=1),
            reads_per_reader=2,
            writes_per_writer=1,
            seed=1,
        )
        assert result.transcript is None


class TestWireStatementHandling:
    def make_pool(self, serializer=None):
        from repro.net.client import ClientPool
        from repro.sim.ids import server

        addrs = {server(i): ("127.0.0.1", 7400 + i) for i in (1, 2, 3)}
        return ClientPool(
            addrs,
            seed=0,
            serializer=serializer,
            collect_statements=True,
            statement_seed=0,
        )

    def signed(self, seed=0):
        """The statement ``s1`` sends ``r1`` about one FastReadAck, signed
        in signing domain ``seed`` (the pool verifies in domain 0)."""
        from repro.accountability import sign_statement
        from repro.crypto.signatures import SignatureAuthority
        from repro.registers import messages as msg
        from repro.registers.timestamps import ValueTag
        from repro.sim.ids import reader, server, writer

        return sign_statement(
            SignatureAuthority(seed=seed),
            server=server(1),
            seq=0,
            client=reader(1),
            op_id=3,
            cause_kind="FastRead",
            reply=msg.FastReadAck(
                op_id=3,
                tag=ValueTag(1, 1),
                seen=frozenset({writer(1)}),
                r_counter=0,
            ),
        )

    def frame_body(self, serializer, stmt):
        from repro.net.codec import HEADER, get_codec

        frame = get_codec(serializer).encode_frame(
            stmt.server, stmt.client, stmt.reply, statement=stmt
        )
        return frame[HEADER.size:]

    def test_forged_statement_rejected_not_fatal(self):
        pool = self.make_pool()
        # signed in the wrong domain: well-formed, but not s1's HMAC here
        pool.handle_frame(self.frame_body(None, self.signed(seed=999)))
        assert len(pool.transcript) == 0
        assert pool.transcript.rejected == 1

    def test_garbage_json_statement_slot_drops_the_frame(self):
        # The "a" slot is parsed at the codec boundary: a slot that does
        # not parse makes the frame undecodable, and the pool drops it
        # like any other garbage — nothing retained, nothing raised.
        from repro.net.codec import get_codec

        record = json.loads(bytes(self.frame_body("json", self.signed())))
        record["a"] = {"server": "s1"}  # missing every other field
        body = json.dumps(record).encode("utf8")
        with pytest.raises(ProtocolError, match="malformed signed statement"):
            get_codec("json").decode_body_full(body)
        pool = self.make_pool()
        pool.handle_frame(body)
        assert len(pool.transcript) == 0

    @pytest.mark.parametrize("sig", [None, "x", {"__k": "signed", "signer": "s1", "payload": None, "tag": "zz"}])
    def test_json_statement_without_a_signature_drops_the_frame(self, sig):
        # used to parse, then kill handle_frame with an AttributeError
        record = json.loads(bytes(self.frame_body("json", self.signed())))
        record["a"]["sig"] = sig
        pool = self.make_pool()
        pool.handle_frame(json.dumps(record).encode("utf8"))
        assert len(pool.transcript) == 0 and pool.transcript.rejected == 0

    def test_honest_frame_is_retained(self):
        for serializer in ("json", "binary"):
            pool = self.make_pool(serializer)
            pool.handle_frame(self.frame_body(serializer, self.signed()))
            assert pool.transcript.statements == [self.signed()]
            assert pool.transcript.rejected == 0

    @pytest.mark.parametrize(
        "what, offset, delta",
        [
            ("src", 3, 1),  # s1 -> s2
            ("dst", 5, 1),  # r1 -> r2
            ("payload op_id", 6, 2),  # zigzag 6 -> 8: op 3 -> op 4
            ("seq", -43, 1),
            ("cause", -41, 1),  # "FastRead" -> "GastRead"
            ("tag", -1, 1),
        ],
    )
    def test_binary_tamper_matrix(self, what, offset, delta):
        """Everything a binary frame implies or states about its
        statement is under the server's HMAC: one flipped byte anywhere
        is a rejection — counted, nothing retained, connection kept."""
        from repro.net.codec import get_codec
        from repro.sim.ids import server

        class Conn:
            closed = False

            def close(self):
                self.closed = True

        honest = bytes(self.frame_body("binary", self.signed()))
        body = bytearray(honest)
        body[offset] += delta
        _, _, _, tampered = get_codec("binary").decode_body_full(bytes(body))
        assert tampered != self.signed(), what
        pool, conn = self.make_pool("binary"), Conn()
        pool.handle_frame(bytes(body), server(1), conn)
        assert pool.transcript.rejected == 1, what
        assert len(pool.transcript) == 0
        assert not conn.closed
        # the connection still works: the honest frame is retained next
        pool.handle_frame(honest, server(1), conn)
        assert len(pool.transcript) == 1 and pool.transcript.rejected == 1

    def test_codec_round_trips_the_statement_slot(self):
        from repro.net.codec import HEADER, get_codec

        codec = get_codec()
        stmt = self.signed()
        src, dst, reply = stmt.server, stmt.client, stmt.reply
        body = self.frame_body(None, stmt)
        assert codec.decode_body_full(body) == (src, dst, reply, stmt)
        # the "a" slot is the statement's own wire dict, nothing else
        assert json.loads(bytes(body))["a"] == stmt.to_wire()
        # the 3-tuple decoder ignores the slot (back-compat)
        assert codec.decode_body(body) == (src, dst, reply)
        # and frames without the slot decode to None
        plain = codec.encode_frame(src, dst, reply)
        assert codec.decode_body_full(plain[HEADER.size:])[3] is None


class TestAuditCommand:
    def write(self, tmp_path, payload):
        path = tmp_path / "artifact.json"
        path.write_text(json.dumps(payload, indent=2) + "\n")
        return str(path)

    def v3_artifact(self):
        from repro.explore import ExploreScenario, explore

        scenario = ExploreScenario(
            "fast-byzantine",
            ClusterConfig(S=3, t=1, R=1, b=1),
            byzantine_budget=1,
        )
        result = explore(scenario, depth=6, max_transitions=100_000)
        return result.counterexamples[0]

    def test_verified_certificate_exits_0(self, capsys, tmp_path):
        ce = self.v3_artifact()
        code = main(["audit", self.write(tmp_path, ce.to_dict())])
        out = capsys.readouterr().out
        assert code == 0
        assert "VERIFIED" in out

    def test_bare_fraud_proof_exits_0(self, capsys, tmp_path):
        ce = self.v3_artifact()
        code = main(["audit", self.write(tmp_path, ce.accountability["proof"])])
        assert code == 0
        assert "VERIFIED" in capsys.readouterr().out

    def test_tampered_certificate_exits_1(self, capsys, tmp_path):
        ce = self.v3_artifact()
        proof = json.loads(json.dumps(ce.accountability["proof"]))
        proof["first"]["seq"] += 1
        code = main(["audit", self.write(tmp_path, proof)])
        assert code == 1
        assert "TAMPERED" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda stmt: stmt["sig"].__setitem__("tag", "zz" + stmt["sig"]["tag"][2:]),
            lambda stmt: stmt.__setitem__("sig", None),
            lambda stmt: stmt.__setitem__("sig", "x"),
            lambda stmt: stmt.__setitem__("seq", "0"),
        ],
        ids=["badhex", "nosig", "strsig", "strseq"],
    )
    def test_malformed_certificate_exits_1_without_a_traceback(self, mutate, capsys, tmp_path):
        ce = self.v3_artifact()
        proof = json.loads(json.dumps(ce.accountability["proof"]))
        mutate(proof["first"])
        code = main(["audit", self.write(tmp_path, proof)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out.startswith("MALFORMED certificate: malformed signed statement")
        assert "Traceback" not in captured.out + captured.err
        # inside a counterexample artifact it is the same verdict
        payload = json.loads(json.dumps(ce.to_dict()))
        payload["accountability"]["proof"] = proof
        assert main(["audit", self.write(tmp_path, payload)]) == 1
        assert "MALFORMED certificate" in capsys.readouterr().out

    def test_pre_v3_counterexample_exits_3(self, capsys, tmp_path):
        ce = self.v3_artifact()
        payload = ce.to_dict()
        payload["format"] = "repro-counterexample/v2"
        del payload["accountability"]
        code = main(["audit", self.write(tmp_path, payload)])
        assert code == 3

    def test_clean_load_report_exits_3(self, capsys, tmp_path):
        payload = {
            "format": "repro-load-report/v1",
            "accountability": {
                "statements": 10,
                "rejected": 0,
                "accusations": [],
                "accused": [],
            },
        }
        code = main(["audit", self.write(tmp_path, payload)])
        assert code == 3
        assert "no proof extractable" in capsys.readouterr().out

    def test_unknown_artifact_exits_2(self, capsys, tmp_path):
        code = main(["audit", self.write(tmp_path, {"format": "bogus/v1"})])
        assert code == 2

    def test_missing_file_exits_2(self, capsys):
        assert main(["audit", "/nonexistent/artifact.json"]) == 2


class TestLoadAudit:
    def test_load_audit_end_to_end(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code = main(
            [
                "load",
                "--protocol", "abd",
                "--servers", "3",
                "--t", "1",
                "--clients", "4",
                "--ops", "2",
                "--workers", "2",
                "--write-interval", "0.02",
                "--audit",
                "--out", str(out_file),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert "accountability" in captured.out
        assert "0 accusation(s)" in captured.out
        payload = json.loads(out_file.read_text())
        accountability = payload["accountability"]
        assert accountability["statements"] > 0
        assert accountability["rejected"] == 0
        assert accountability["accusations"] == []
        # and the saved report feeds straight into `repro audit`
        assert main(["audit", str(out_file)]) == 3

    def test_load_without_audit_reports_none(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code = main(
            [
                "load",
                "--protocol", "abd",
                "--servers", "3",
                "--t", "1",
                "--clients", "2",
                "--ops", "1",
                "--workers", "1",
                "--write-interval", "0.02",
                "--out", str(out_file),
            ]
        )
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert payload["accountability"] is None
        assert "accountability" not in capsys.readouterr().out
