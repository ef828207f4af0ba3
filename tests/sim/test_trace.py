"""Tests for the trace log."""

from dataclasses import dataclass

from repro.sim import trace as tr
from repro.sim.ids import reader, server
from repro.sim.messages import Envelope


@dataclass(frozen=True)
class FakePayload:
    op_id: int


def env(op_id=1, src=None, dst=None):
    return Envelope(src=src or reader(1), dst=dst or server(1), payload=FakePayload(op_id))


class TestRecording:
    def test_records_in_order_with_seq(self):
        log = tr.TraceLog()
        log.record(0.0, tr.INVOKE, reader(1), step_id=1, op_id=1)
        log.record(1.0, tr.SEND, reader(1), step_id=1, cause_step=1, env=env())
        assert [e.seq for e in log.events] == [1, 2]

    def test_disabled_log_records_nothing(self):
        log = tr.TraceLog(enabled=False)
        log.record(0.0, tr.INVOKE, reader(1), step_id=1)
        assert len(log) == 0

    def test_op_id_inferred_from_envelope(self):
        log = tr.TraceLog()
        event = log.record(0.0, tr.SEND, reader(1), 1, 1, env=env(op_id=42))
        assert event.op_id == 42


class TestQueries:
    def make_log(self):
        log = tr.TraceLog()
        request = env(op_id=1, src=reader(1), dst=server(1))
        reply = env(op_id=1, src=server(1), dst=reader(1))
        other = env(op_id=2, src=reader(2), dst=server(1))
        log.record(0.0, tr.INVOKE, reader(1), step_id=1, op_id=1)
        log.record(0.0, tr.SEND, reader(1), step_id=1, cause_step=1, env=request)
        log.record(1.0, tr.DELIVER, server(1), step_id=2, cause_step=1, env=request)
        log.record(1.0, tr.SEND, server(1), step_id=2, cause_step=2, env=reply)
        log.record(2.0, tr.DELIVER, reader(1), step_id=3, cause_step=2, env=reply)
        log.record(2.0, tr.RESPONSE, reader(1), step_id=3, op_id=1)
        log.record(3.0, tr.SEND, reader(2), step_id=4, cause_step=4, env=other)
        return log, request, reply

    def test_for_op(self):
        log, *_ = self.make_log()
        assert len(log.for_op(1)) == 6
        assert len(log.for_op(2)) == 1

    def test_sends_by(self):
        log, *_ = self.make_log()
        assert len(log.sends_by(reader(1))) == 1
        assert len(log.sends_by(server(1), op_id=1)) == 1
        assert log.sends_by(server(1), op_id=2) == []

    def test_send_step_of(self):
        log, request, reply = self.make_log()
        assert log.send_step_of(request) == 1
        assert log.send_step_of(reply) == 2

    def test_message_count(self):
        log, *_ = self.make_log()
        assert log.message_count() == 3
        assert log.message_count(op_id=1) == 2

    def test_render_is_textual(self):
        log, *_ = self.make_log()
        text = log.render(limit=3)
        assert "invoke" in text
        assert "more events" in text
