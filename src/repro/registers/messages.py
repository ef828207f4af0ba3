"""Wire formats of the register protocols.

All messages are frozen dataclasses and carry the ``op_id`` of the
operation that caused them, which lets the trace layer attribute
messages to operations and the fastness checker count rounds without
protocol knowledge.

Message families:

* ``FastRead/FastWrite(+Ack)`` — the fast SWMR protocols of Figures 2
  and 5.  The ``tag`` field holds a :class:`~repro.registers.timestamps.ValueTag`
  in the crash variant and a
  :class:`~repro.registers.timestamps.SignedValueTag` in the Byzantine
  variant; ``seen`` is the server's reader/writer set of Figure 2
  line 25.
* ``Query/QueryReply`` and ``Store/StoreAck`` — the generic
  query/update rounds used by ABD, SWSR, regular and MWMR protocols.
* ``MaxMinRead/MaxMinGossip/MaxMinReadAck`` — the decentralised
  max-min read of the introduction.

Every message class carries explicit ``to_wire``/``from_wire``
round-trip methods (via :class:`WireMessage`): ``to_wire`` produces a
JSON-ready dict stamped with :data:`WIRE_VERSION` and the message type
name, and ``from_wire`` reconstructs an *equal* instance.  A reply in
a transcript or fraud proof travels as this dict and a statement signs
its canonical bytes; the socket codec (:mod:`repro.net.codec`) packs
the same fields as binary instead.  The field annotations are the wire
schema: that codec decodes each field by its declared type, so a
``tag`` is a ``ValueTag`` or ``SignedValueTag`` and a timestamp an int
or an ``MWTimestamp`` before any automaton reads it; only register
values are ``Any``.  The value codec below knows the closed set of
types that appear in message fields (tags, process ids, frozensets,
tuples, signature material).
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable, Dict, FrozenSet, List, Tuple, Union

from repro.crypto.signatures import _CANONICAL, SignedPayload, _canonical
from repro.errors import ProtocolError
from repro.registers.timestamps import MWTimestamp, SignedValueTag, ValueTag
from repro.sim.ids import ProcessId
from repro.spec.histories import parse_pid

#: Version stamp embedded in every ``to_wire`` dict.  Bump on any
#: incompatible change to a message's field set or the value encoding;
#: ``from_wire`` rejects frames from a different version outright —
#: cross-version negotiation is a non-goal for a reproduction.
WIRE_VERSION = 1


def wire_encode_value(value: Any) -> Any:
    """Encode one message-field value as JSON-ready data.

    Scalars pass through; everything else becomes a dict tagged with
    ``"__k"`` naming the constructor.  The closed set of structured
    types is exactly what register-protocol messages may carry
    (looked up by exact type; a subclass adopts its first encodable
    base's encoder on first use).
    """
    return _ENCODERS.get(type(value), _encode_subclass)(value)


def _e_dict(value: dict) -> Dict[str, Any]:
    # Plain (untagged) dicts; items are key-sorted so the encoding is
    # deterministic.
    return {
        "__k": "dict",
        "items": [
            [wire_encode_value(key), wire_encode_value(val)]
            for key, val in sorted(value.items(), key=lambda kv: repr(kv[0]))
        ],
    }


_ENCODERS: Dict[type, Callable[[Any], Any]] = {
    **dict.fromkeys((type(None), bool, int, float, str), lambda value: value),
    ProcessId: lambda value: {"__k": "pid", "id": str(value)},
    ValueTag: lambda value: {
        "__k": "tag",
        "ts": wire_encode_value(value.ts),
        "value": wire_encode_value(value.value),
        "prev": wire_encode_value(value.prev_value),
    },
    SignedValueTag: lambda value: {
        "__k": "stag",
        "ts": value.ts,
        "value": wire_encode_value(value.value),
        "prev": wire_encode_value(value.prev_value),
        "signed": wire_encode_value(value.signed),
    },
    MWTimestamp: lambda value: {"__k": "mwts", "num": value.num, "wid": value.wid},
    SignedPayload: lambda value: {
        "__k": "signed",
        "signer": str(value.signer),
        "payload": wire_encode_value(value.payload),
        "tag": value.tag.hex(),
    },
    frozenset: lambda value: {
        "__k": "fset",
        "items": sorted([wire_encode_value(item) for item in value], key=repr),
    },
    tuple: lambda value: {"__k": "tuple", "items": [wire_encode_value(v) for v in value]},
    list: lambda value: {"__k": "list", "items": [wire_encode_value(v) for v in value]},
    dict: _e_dict,
    bytes: lambda value: {"__k": "bytes", "hex": value.hex()},
}


def _encode_subclass(value: Any) -> Any:
    for base in type(value).__mro__:
        if base in _ENCODERS:
            encode = _ENCODERS[type(value)] = _ENCODERS[base]
            return encode(value)
    raise ProtocolError(
        f"cannot wire-encode {type(value).__name__}: {value!r} is outside "
        "the closed set of register-message field types"
    )


# ----------------------------------------------------------------------
# canonical bytes of the wire form, written directly
#
# An accountability statement signs ``_canonical`` of a tuple holding
# ``reply.to_wire()``; building that dict only to sort and join it again
# was most of what a signature cost.  The writers below produce
# ``_canonical(wire_encode_value(value))`` straight from the value.
# ``_ENCODERS`` and ``_canonical`` stay the specification, and
# tests/registers/test_canonical_wire.py holds the writers to it byte
# for byte.  What a faster-looking writer gets wrong:
#
# * ``True == 1 == 1.0`` (equal, hash-equal) sign as ``bool:True`` /
#   ``int:1`` / ``float:1.0``: dispatch is by exact type, whatever is
#   outside the table goes through the specification, and nothing is
#   cached under a field *value* (``_PID_FORMS`` is consulted only for
#   exact-typed pids);
# * a wire dict's items are in the order of their canonicalised keys
#   (``s10:…`` before ``s2:…``): computed at import, never written down;
# * a frozenset's items are in ``wire_encode_value``'s order, by
#   ``repr`` of their *wire* form (``r1 < r10 < r2``), not by bytes.


def canonical_wire_value(value: Any) -> bytes:
    """``_canonical(wire_encode_value(value))`` without the wire form."""
    return _CANONICAL_WIRE.get(type(value), _cw_specification)(value)


def _cw_specification(value: Any) -> bytes:
    return _canonical(wire_encode_value(value))


def _wire_dict_writer(constants: Dict[str, Any], slots: Dict[str, Any]) -> Tuple[bytes, str]:
    """``(template, args)`` writing the canonical bytes of a wire dict.

    ``constants`` are the items whose value is fixed.  ``slots`` maps
    each remaining key to a Python expression over ``v`` yielding the
    canonical bytes of its value, or to the ``(template, args)`` of a
    nested wire dict.  ``template % (args)`` is then ``_canonical`` of
    the whole dict, its items in ``_c_dict`` order.  (Keys, kind and
    class names are identifiers: no ``%`` to escape.)
    """
    parts = {_canonical(key): (_canonical(val), "") for key, val in constants.items()}
    for key, slot in slots.items():
        parts[_canonical(key)] = (b"%b", slot + ", ") if isinstance(slot, str) else slot
    ordered = sorted(parts)
    items = [key + b"=" + parts[key][0] for key in ordered]
    template = b"d%d{" % len(items) + b",".join(items) + b"}"
    return template, "".join([parts[key][1] for key in ordered])


def _compile_writer(template: bytes, args: str) -> Callable[[Any], bytes]:
    return eval(f"lambda v: {template!r} % ({args})", _WRITER_GLOBALS)  # noqa: S307


def _struct_writer(kind: str, **slots: str) -> Callable[[Any], bytes]:
    return _compile_writer(*_wire_dict_writer({"__k": kind}, slots))


def _c_listed(parts: List[bytes]) -> bytes:
    return b"l%d[" % len(parts) + b",".join(parts) + b"]"


#: ``(repr, canonical bytes)`` of a pid's wire form, both taken from the
#: specification.  ``r1 == ProcessId("reader", True)`` and they hash
#: alike, so ``_cw_fset_items`` looks here only after checking the exact
#: types; bounded because peers choose the pids.
_PID_FORMS: Dict[ProcessId, Tuple[str, bytes]] = {}


def _pid_forms(pid: ProcessId) -> Tuple[str, bytes]:
    forms = _PID_FORMS.get(pid)
    if forms is None:
        wire = wire_encode_value(pid)
        forms = repr(wire), _canonical(wire)
        if len(_PID_FORMS) < 4096:
            _PID_FORMS[pid] = forms
    return forms


def _cw_fset_items(value: frozenset) -> bytes:
    keyed = []
    for item in value:
        if type(item) is ProcessId and type(item[1]) is int and type(item[0]) is str:
            keyed.append(_pid_forms(item))
        else:
            wire = wire_encode_value(item)
            keyed.append((repr(wire), _canonical(wire)))
    keyed.sort(key=itemgetter(0))
    return _c_listed([form for _, form in keyed])


_WRITER_GLOBALS: Dict[str, Any] = {
    "_w": canonical_wire_value,
    "_c": _canonical,
    "_str": _CANONICAL[str],
    "_listed": _c_listed,
    "_fset_items": _cw_fset_items,
}

#: A writer per ``_ENCODERS`` entry that real replies carry (a plain
#: dict goes through the specification): ``_w`` where the encoder
#: recurses through ``wire_encode_value``, ``_c`` where it passes the
#: attribute on as it is, ``_str`` where it stores a string it made.
_CANONICAL_WIRE: Dict[type, Callable[[Any], bytes]] = {
    **{kind: _CANONICAL[kind] for kind in (type(None), bool, int, float, str)},
    ProcessId: _struct_writer("pid", id="_str(str(v))"),
    ValueTag: _struct_writer("tag", ts="_w(v.ts)", value="_w(v.value)", prev="_w(v.prev_value)"),
    SignedValueTag: _struct_writer(
        "stag", ts="_c(v.ts)", value="_w(v.value)", prev="_w(v.prev_value)", signed="_w(v.signed)"
    ),
    MWTimestamp: _struct_writer("mwts", num="_c(v.num)", wid="_c(v.wid)"),
    SignedPayload: _struct_writer(
        "signed", signer="_str(str(v.signer))", payload="_w(v.payload)", tag="_str(v.tag.hex())"
    ),
    frozenset: _struct_writer("fset", items="_fset_items(v)"),
    tuple: _struct_writer("tuple", items="_listed([_w(i) for i in v])"),
    list: _struct_writer("list", items="_listed([_w(i) for i in v])"),
    bytes: _struct_writer("bytes", hex="_str(v.hex())"),
}

_MESSAGE_WRITERS: Dict[type, Callable[[Any], bytes]] = {}


def _compile_message_writer(cls: type) -> Callable[[Any], bytes]:
    """The writer of ``_canonical(message.to_wire())`` for one class,
    derived from the field table ``to_wire`` itself walks."""
    fields = _wire_dict_writer({}, {name: f"_w(v.{name})" for name in cls.__dataclass_fields__})
    frame = _wire_dict_writer({"v": WIRE_VERSION, "t": cls.__name__}, {"f": fields})
    writer = _MESSAGE_WRITERS[cls] = _compile_writer(*frame)
    return writer


#: Deepest ``"__k"`` nesting :func:`wire_decode_value` follows.  The
#: deepest honest value is 3 levels (a Byzantine reply's tag: ``stag`` >
#: ``signed`` > ``tuple``); hostile JSON nested a few hundred levels would
#: otherwise end in a ``RecursionError``, here or in whatever re-encodes it.
MAX_WIRE_DEPTH = 32


def wire_decode_value(data: Any, depth: int = MAX_WIRE_DEPTH) -> Any:
    """Inverse of :func:`wire_encode_value`, for at most ``depth`` levels."""
    if not isinstance(data, dict):
        if isinstance(data, list):  # never encoded: a list travels as "__k": "list"
            raise ProtocolError("cannot wire-decode an untagged list")
        return data
    if depth <= 0:
        raise ProtocolError(f"wire value nests deeper than {MAX_WIRE_DEPTH} levels")
    decode = _DECODERS.get(data.get("__k"))
    if decode is None:
        raise ProtocolError(f"cannot wire-decode value tagged {data.get('__k')!r}")
    return decode(data, depth - 1)


_DECODERS: Dict[str, Callable[[Dict[str, Any], int], Any]] = {
    "pid": lambda data, d: parse_pid(data["id"]),
    "tag": lambda data, d: ValueTag(
        ts=wire_decode_value(data["ts"], d),
        value=wire_decode_value(data["value"], d),
        prev_value=wire_decode_value(data["prev"], d),
    ),
    "stag": lambda data, d: SignedValueTag(
        ts=wire_decode_value(data["ts"], d),
        value=wire_decode_value(data["value"], d),
        prev_value=wire_decode_value(data["prev"], d),
        signed=wire_decode_value(data["signed"], d),
    ),
    "mwts": lambda data, d: MWTimestamp(
        num=wire_decode_value(data["num"], d), wid=wire_decode_value(data["wid"], d)
    ),
    "signed": lambda data, d: SignedPayload(
        signer=parse_pid(data["signer"]),
        payload=wire_decode_value(data["payload"], d),
        tag=bytes.fromhex(data["tag"]),
    ),
    "fset": lambda data, d: frozenset([wire_decode_value(v, d) for v in data["items"]]),
    "tuple": lambda data, d: tuple([wire_decode_value(v, d) for v in data["items"]]),
    "list": lambda data, d: [wire_decode_value(v, d) for v in data["items"]],
    "dict": lambda data, d: {
        wire_decode_value(key, d): wire_decode_value(val, d) for key, val in data["items"]
    },
    "bytes": lambda data, d: bytes.fromhex(data["hex"]),
}


class WireMessage:
    """Mixin giving every message dataclass a versioned wire round-trip."""

    def to_wire(self) -> Dict[str, Any]:
        """JSON-ready dict: version stamp, type name, encoded fields."""
        # ``__dataclass_fields__`` is the field table ``fields()`` would
        # re-filter on every call; no message declares pseudo-fields.
        values = self.__dict__
        return {
            "v": WIRE_VERSION,
            "t": type(self).__name__,
            "f": {name: wire_encode_value(values[name]) for name in self.__dataclass_fields__},
        }

    def canonical_wire(self) -> bytes:
        """``_canonical(self.to_wire())``, written without the dict: the
        bytes an accountability statement signs for this message."""
        cls = type(self)
        return (_MESSAGE_WRITERS.get(cls) or _compile_message_writer(cls))(self)

    @classmethod
    def from_wire(cls, data: Dict[str, Any]) -> "WireMessage":
        """Rebuild an instance from :meth:`to_wire` output (equal by ==)."""
        if data.get("v") != WIRE_VERSION:
            raise ProtocolError(
                f"wire version mismatch: got {reprlib.repr(data.get('v'))}, "
                f"this build speaks {WIRE_VERSION}"
            )
        name = data.get("t")
        if name != cls.__name__:
            raise ProtocolError(
                f"{cls.__name__}.from_wire got a {name!r} frame; "
                "use decode_message for type dispatch"
            )
        decoded = {
            key: wire_decode_value(value) for key, value in data["f"].items()
        }
        return cls(**decoded)


def decode_message(data: Dict[str, Any]) -> "WireMessage":
    """Type-dispatching inverse of :meth:`WireMessage.to_wire`."""
    try:
        cls = MESSAGE_TYPES[data["t"]]
    except (KeyError, TypeError):
        raise ProtocolError(
            f"unknown wire message type {reprlib.repr(data.get('t'))}"
        ) from None
    return cls.from_wire(data)

# ----------------------------------------------------------------------
# fast SWMR protocols (Figures 2 and 5)


@dataclass(frozen=True)
class FastRead(WireMessage):
    """Reader -> servers.  ``tag`` is the reader's current ``maxTS``
    tag, written back in-band (Figure 2 lines 13-14)."""

    op_id: int
    tag: Union[ValueTag, SignedValueTag]
    r_counter: int


@dataclass(frozen=True)
class FastWrite(WireMessage):
    """Writer -> servers.  ``r_counter`` is always 0 at the writer."""

    op_id: int
    tag: Union[ValueTag, SignedValueTag]
    r_counter: int = 0


@dataclass(frozen=True)
class FastReadAck(WireMessage):
    """Server -> reader: current tag, seen set and echoed counter."""

    op_id: int
    tag: Union[ValueTag, SignedValueTag]
    seen: FrozenSet[ProcessId]
    r_counter: int


@dataclass(frozen=True)
class FastWriteAck(WireMessage):
    """Server -> writer."""

    op_id: int
    tag: Union[ValueTag, SignedValueTag]
    seen: FrozenSet[ProcessId]
    r_counter: int


# ----------------------------------------------------------------------
# generic query/store rounds (ABD, SWSR, regular, MWMR)


@dataclass(frozen=True)
class Query(WireMessage):
    """Client -> servers: request the current tag."""

    op_id: int


@dataclass(frozen=True)
class QueryReply(WireMessage):
    """Server -> client: the server's current tag."""

    op_id: int
    tag: Union[ValueTag, SignedValueTag]


@dataclass(frozen=True)
class Store(WireMessage):
    """Client -> servers: adopt this tag if newer (write or write-back)."""

    op_id: int
    tag: Union[ValueTag, SignedValueTag]


@dataclass(frozen=True)
class StoreAck(WireMessage):
    """Server -> client: acknowledges a Store, echoing its timestamp."""

    op_id: int
    ts: Union[int, MWTimestamp]


# ----------------------------------------------------------------------
# decentralised max-min read (introduction)


@dataclass(frozen=True)
class MaxMinRead(WireMessage):
    """Reader -> servers: triggers the server-to-server round."""

    op_id: int
    r_counter: int


@dataclass(frozen=True)
class MaxMinGossip(WireMessage):
    """Server -> servers: the sender's current tag for one read."""

    op_id: int
    reader: ProcessId
    r_counter: int
    tag: Union[ValueTag, SignedValueTag]


@dataclass(frozen=True)
class MaxMinReadAck(WireMessage):
    """Server -> reader: max tag over the server's gossip pool."""

    op_id: int
    tag: Union[ValueTag, SignedValueTag]
    r_counter: int


CLIENT_REQUESTS = (FastRead, FastWrite, Query, Store, MaxMinRead)
SERVER_REPLIES = (FastReadAck, FastWriteAck, QueryReply, StoreAck, MaxMinReadAck)

#: Wire-type registry: every message the codec can frame, by class name.
MESSAGE_TYPES = {
    cls.__name__: cls for cls in (*CLIENT_REQUESTS, *SERVER_REPLIES, MaxMinGossip)
}

#: One-byte kind codes of the binary serializer (``repro-bin/v2``): the
#: registry sorted by class name, numbered from 1.  Kind byte 0 is
#: reserved, and bytes >= 0x80 never name a kind — JSON bodies start at
#: ``{`` (0x7B is below 0x80 but is also never a kind because the table
#: stops at ``len(MESSAGE_TYPES)``) and the
#: connection preamble at 0xA5, so the first body byte identifies the
#: framing unambiguously.  Renaming or adding a message type re-numbers
#: the table: that is a wire-format change and must bump
#: :data:`WIRE_VERSION`.
WIRE_KIND_BYTES: Dict[str, int] = {
    name: index for index, name in enumerate(sorted(MESSAGE_TYPES), start=1)
}
