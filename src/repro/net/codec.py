"""Length-prefixed wire codec for register-protocol messages.

A frame on the socket is ``4-byte big-endian length || body``.  Three
body serializers are available, negotiated per connection by a preamble
frame (see :func:`encode_preamble`):

* ``binary`` — the hand-rolled ``repro-bin/v2`` struct codec and the
  default of the CLI entry points (:func:`default_serializer`).  The
  body is ``kind byte || flags || src pid || dst pid || fields``
  (plus, under flag ``0x02``, the ``seq || cause || tag`` of the
  server's accountability statement about this reply), with
  per-message-type pack/unpack functions generated from the
  :data:`~repro.registers.messages.MESSAGE_TYPES` registry — no
  intermediate dict is built on either side.
* ``json`` — always available (stdlib), compact separators, UTF-8; the
  body is the dict ``{"s": src, "d": dst, "p": payload.to_wire()}``
  with an optional ``"a"`` slot holding ``SignedStatement.to_wire()``.

Both sides of a connection must use the same serializer; the preamble
makes a mismatch loud instead of a silent decode storm.  Frames larger
than :data:`MAX_FRAME` indicate a desynchronised or hostile peer and
raise.  The byte-level layout is documented in the README's
"Wire format" section.
"""

from __future__ import annotations

import json
import struct
from dataclasses import fields
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.accountability.statements import SignedStatement
from repro.crypto.signatures import SignedPayload
from repro.errors import ProtocolError
from repro.registers.messages import MESSAGE_TYPES, WIRE_KIND_BYTES, decode_message
from repro.registers.timestamps import MWTimestamp, SignedValueTag, ValueTag
from repro.sim.ids import ProcessId
from repro.spec.histories import parse_pid

HEADER = struct.Struct(">I")

#: Upper bound on one frame body.  Honest frames are tiny (a tag, a seen
#: set); anything near this size means framing desync or garbage input.
MAX_FRAME = 16 * 1024 * 1024

#: Name under which the hand-rolled struct codec is selected.
BINARY_SERIALIZER = "binary"

#: Format label of the binary body layout; bump on incompatible change.
BINARY_FORMAT = "repro-bin/v2"


def _json_dumps(obj: Any) -> bytes:
    return json.dumps(
        obj, separators=(",", ":"), ensure_ascii=False, sort_keys=True
    ).encode("utf8")


def _json_loads(body: Any) -> Any:
    return json.loads(str(body, "utf8"))


SERIALIZERS: Dict[str, Tuple[Callable[[Any], bytes], Callable[[bytes], Any]]] = {
    "json": (_json_dumps, _json_loads),
}


def available_serializers() -> Tuple[str, ...]:
    """Every serializer this build can speak, ``binary`` first."""
    return (BINARY_SERIALIZER, *sorted(SERIALIZERS))


def default_serializer() -> str:
    """The serializer the CLI entry points speak unless told otherwise.

    Always ``"binary"``: the hand-rolled struct codec needs no optional
    package and is the fast path the ledger's ``net-*`` workloads measure.
    Library call sites that pass no serializer keep getting ``json``
    from :func:`get_codec` for compatibility with recorded fixtures.
    """
    return BINARY_SERIALIZER


# ----------------------------------------------------------------------
# binary value codec (repro-bin/v2)
#
# Varints are LEB128; signed ints are zigzag-mapped first.  Every value
# is a one-byte type tag followed by its payload, except in positions
# where the message schema fixes the type (int fields, pid fields, the
# fixed slots of tags/signatures) — those are written raw, saving the
# tag byte.  Collections are canonically ordered (frozensets and dict
# items sort by their encoded bytes) so equal values encode to equal
# bytes, which keeps digests and goldens deterministic.

_F64 = struct.Struct(">d")

_T_NONE = 0x00
_T_FALSE = 0x01
_T_TRUE = 0x02
_T_INT = 0x03
_T_FLOAT = 0x04
_T_STR = 0x05
_T_BYTES = 0x06
_T_PID = 0x07
_T_VTAG = 0x08
_T_STAG = 0x09
_T_MWTS = 0x0A
_T_SIGNED = 0x0B
_T_FSET = 0x0C
_T_TUPLE = 0x0D
_T_LIST = 0x0E
_T_DICT = 0x0F

_ROLE_CODE = {"server": 0, "reader": 1, "writer": 2}
_ROLE_KIND = ("server", "reader", "writer")

#: Bit 0x01 was the self-contained statement section of ``repro-bin/v1``;
#: it stays unassigned so a v1 peer's accountable frames fail loudly.
_FLAG_STATEMENT = 0x02


# The writers and readers below carry explicit single-byte fast paths:
# virtually every varint on this wire (indices, lengths, small ints)
# fits in one byte, and the branch is much cheaper than the loop.


def _w_uvar(buf: bytearray, n: int) -> None:
    if n < 0x80:
        buf.append(n)
        return
    while n >= 0x80:
        buf.append((n & 0x7F) | 0x80)
        n >>= 7
    buf.append(n)


def _w_int(buf: bytearray, n: int) -> None:
    n = (n << 1) if n >= 0 else ((-n << 1) - 1)
    if n < 0x80:
        buf.append(n)
        return
    while n >= 0x80:
        buf.append((n & 0x7F) | 0x80)
        n >>= 7
    buf.append(n)


def _w_str(buf: bytearray, s: str) -> None:
    raw = s.encode("utf8")
    n = len(raw)
    if n < 0x80:
        buf.append(n)
    else:
        _w_uvar(buf, n)
    buf += raw


def _w_bytes(buf: bytearray, b: bytes) -> None:
    n = len(b)
    if n < 0x80:
        buf.append(n)
    else:
        _w_uvar(buf, n)
    buf += b


#: Encoded-pid interning (mirror of the decode-side ``_PID_CACHE``):
#: bounded by the process population actually seen, which is tiny.
_PID_ENC_CACHE: Dict[ProcessId, bytes] = {}


def _w_pid(buf: bytearray, pid: ProcessId) -> None:
    enc = _PID_ENC_CACHE.get(pid)
    if enc is None:
        tmp = bytearray()
        tmp.append(_ROLE_CODE[pid.kind])
        index = pid.index
        if index < 0x80:
            tmp.append(index)
        else:
            _w_uvar(tmp, index)
        enc = _PID_ENC_CACHE[pid] = bytes(tmp)
    buf += enc


def _value_bytes(value: Any) -> bytes:
    tmp = bytearray()
    _w_value(tmp, value)
    return bytes(tmp)


def _wv_none(buf: bytearray, v: Any) -> None:
    buf.append(_T_NONE)


def _wv_bool(buf: bytearray, v: bool) -> None:
    buf.append(_T_TRUE if v else _T_FALSE)


def _wv_int(buf: bytearray, v: int) -> None:
    buf.append(_T_INT)
    n = (v << 1) if v >= 0 else ((-v << 1) - 1)
    if n < 0x80:
        buf.append(n)
    else:
        _w_uvar(buf, n)


def _wv_float(buf: bytearray, v: float) -> None:
    buf.append(_T_FLOAT)
    buf += _F64.pack(v)


def _wv_str(buf: bytearray, v: str) -> None:
    buf.append(_T_STR)
    raw = v.encode("utf8")
    n = len(raw)
    if n < 0x80:
        buf.append(n)
    else:
        _w_uvar(buf, n)
    buf += raw


def _wv_bytes(buf: bytearray, v: bytes) -> None:
    buf.append(_T_BYTES)
    _w_bytes(buf, v)


def _wv_pid(buf: bytearray, v: ProcessId) -> None:
    buf.append(_T_PID)
    _w_pid(buf, v)


def _wv_vtag(buf: bytearray, v: ValueTag) -> None:
    buf.append(_T_VTAG)
    _w_value(buf, v.ts)
    _w_value(buf, v.value)
    _w_value(buf, v.prev_value)


def _wv_stag(buf: bytearray, v: SignedValueTag) -> None:
    buf.append(_T_STAG)
    _w_int(buf, v.ts)
    _w_value(buf, v.value)
    _w_value(buf, v.prev_value)
    _w_value(buf, v.signed)


def _wv_mwts(buf: bytearray, v: MWTimestamp) -> None:
    buf.append(_T_MWTS)
    _w_int(buf, v.num)
    _w_int(buf, v.wid)


def _wv_signed(buf: bytearray, v: SignedPayload) -> None:
    buf.append(_T_SIGNED)
    _w_pid(buf, v.signer)
    _w_value(buf, v.payload)
    _w_bytes(buf, v.tag)


def _wv_fset(buf: bytearray, v: frozenset) -> None:
    buf.append(_T_FSET)
    _w_uvar(buf, len(v))
    for enc in sorted(_value_bytes(item) for item in v):
        buf += enc


def _wv_tuple(buf: bytearray, v: tuple) -> None:
    buf.append(_T_TUPLE)
    _w_uvar(buf, len(v))
    for item in v:
        _w_value(buf, item)


def _wv_list(buf: bytearray, v: list) -> None:
    buf.append(_T_LIST)
    _w_uvar(buf, len(v))
    for item in v:
        _w_value(buf, item)


def _wv_dict(buf: bytearray, v: dict) -> None:
    buf.append(_T_DICT)
    _w_uvar(buf, len(v))
    for key_enc, val_enc in sorted(
        (_value_bytes(key), _value_bytes(val)) for key, val in v.items()
    ):
        buf += key_enc
        buf += val_enc


_VALUE_WRITERS: Dict[type, Callable[[bytearray, Any], None]] = {
    type(None): _wv_none,
    bool: _wv_bool,
    int: _wv_int,
    float: _wv_float,
    str: _wv_str,
    bytes: _wv_bytes,
    ProcessId: _wv_pid,
    ValueTag: _wv_vtag,
    SignedValueTag: _wv_stag,
    MWTimestamp: _wv_mwts,
    SignedPayload: _wv_signed,
    frozenset: _wv_fset,
    tuple: _wv_tuple,
    list: _wv_list,
    dict: _wv_dict,
}


def _w_value(buf: bytearray, value: Any) -> None:
    writer = _VALUE_WRITERS.get(type(value))
    if writer is None:
        raise ProtocolError(
            f"cannot binary-encode {type(value).__name__}: {value!r} is "
            "outside the closed set of register-message field types"
        )
    writer(buf, value)


class _Reader:
    """Cursor over one frame body (bytes or memoryview)."""

    __slots__ = ("buf", "pos")

    def __init__(self, buf: Any) -> None:
        self.buf = buf
        self.pos = 0


def _r_uvar(r: _Reader) -> int:
    buf = r.buf
    pos = r.pos
    b = buf[pos]
    pos += 1
    if b < 0x80:
        r.pos = pos
        return b
    result = b & 0x7F
    shift = 7
    while True:
        b = buf[pos]
        pos += 1
        result |= (b & 0x7F) << shift
        if b < 0x80:
            break
        shift += 7
    r.pos = pos
    return result


def _r_int(r: _Reader) -> int:
    zz = r.buf[r.pos]
    if zz < 0x80:
        r.pos += 1
    else:
        zz = _r_uvar(r)
    return (zz >> 1) if not (zz & 1) else -((zz + 1) >> 1)


def _r_str(r: _Reader) -> str:
    buf = r.buf
    pos = r.pos
    n = buf[pos]
    if n < 0x80:
        pos += 1
    else:
        n = _r_uvar(r)
        pos = r.pos
    end = pos + n
    if end > len(buf):
        raise ValueError(f"section of {n} bytes runs past the frame end")
    r.pos = end
    return str(buf[pos:end], "utf8")


def _r_bytes(r: _Reader) -> bytes:
    buf = r.buf
    pos = r.pos
    n = buf[pos]
    if n < 0x80:
        pos += 1
    else:
        n = _r_uvar(r)
        pos = r.pos
    end = pos + n
    if end > len(buf):
        raise ValueError(f"section of {n} bytes runs past the frame end")
    r.pos = end
    return bytes(buf[pos:end])


#: Decoded-pid interning: clusters are small and pids recur in every
#: frame, so a dict hit beats constructing a fresh NamedTuple.
_PID_CACHE: Dict[int, ProcessId] = {}


def _r_pid(r: _Reader) -> ProcessId:
    buf = r.buf
    pos = r.pos
    role = buf[pos]
    index = buf[pos + 1]
    if index < 0x80:
        r.pos = pos + 2
    else:
        r.pos = pos + 1
        index = _r_uvar(r)
    if role < 3 and index < 0x10000:
        key = role << 16 | index
        pid = _PID_CACHE.get(key)
        if pid is None:
            pid = _PID_CACHE[key] = ProcessId(_ROLE_KIND[role], index)
        return pid
    if role >= len(_ROLE_KIND):
        raise ValueError(f"unknown pid role code {role:#04x}")
    return ProcessId(_ROLE_KIND[role], index)


def _rv_float(r: _Reader) -> float:
    v = _F64.unpack_from(r.buf, r.pos)[0]
    r.pos += 8
    return v


# The _rv_* readers below build the frozen dataclasses the way pickle
# does — ``__new__`` plus a direct ``__dict__`` update — skipping the
# per-field ``object.__setattr__`` calls of the generated ``__init__``.
# Safe because none of these classes define ``__post_init__`` or slots;
# measurably faster because decode constructs one per tagged value.


def _rv_vtag(r: _Reader) -> ValueTag:
    tag = ValueTag.__new__(ValueTag)
    tag.__dict__.update(
        ts=_r_value(r), value=_r_value(r), prev_value=_r_value(r)
    )
    return tag


def _rv_stag(r: _Reader) -> SignedValueTag:
    tag = SignedValueTag.__new__(SignedValueTag)
    tag.__dict__.update(
        ts=_r_int(r),
        value=_r_value(r),
        prev_value=_r_value(r),
        signed=_r_value(r),
    )
    return tag


def _rv_mwts(r: _Reader) -> MWTimestamp:
    ts = MWTimestamp.__new__(MWTimestamp)
    ts.__dict__.update(num=_r_int(r), wid=_r_int(r))
    return ts


def _rv_signed(r: _Reader) -> SignedPayload:
    sig = SignedPayload.__new__(SignedPayload)
    sig.__dict__.update(signer=_r_pid(r), payload=_r_value(r), tag=_r_bytes(r))
    return sig


def _rv_fset(r: _Reader) -> frozenset:
    return frozenset(_r_value(r) for _ in range(_r_uvar(r)))


def _rv_tuple(r: _Reader) -> tuple:
    return tuple(_r_value(r) for _ in range(_r_uvar(r)))


def _rv_list(r: _Reader) -> list:
    return [_r_value(r) for _ in range(_r_uvar(r))]


def _rv_dict(r: _Reader) -> dict:
    out: Dict[Any, Any] = {}
    for _ in range(_r_uvar(r)):
        key = _r_value(r)
        out[key] = _r_value(r)
    return out


_VALUE_READERS: Tuple[Optional[Callable[[_Reader], Any]], ...] = (
    lambda r: None,  # _T_NONE
    lambda r: False,  # _T_FALSE
    lambda r: True,  # _T_TRUE
    _r_int,  # _T_INT
    _rv_float,  # _T_FLOAT
    _r_str,  # _T_STR
    _r_bytes,  # _T_BYTES
    _r_pid,  # _T_PID
    _rv_vtag,  # _T_VTAG
    _rv_stag,  # _T_STAG
    _rv_mwts,  # _T_MWTS
    _rv_signed,  # _T_SIGNED
    _rv_fset,  # _T_FSET
    _rv_tuple,  # _T_TUPLE
    _rv_list,  # _T_LIST
    _rv_dict,  # _T_DICT
)


def _r_value(r: _Reader) -> Any:
    tag = r.buf[r.pos]
    r.pos += 1
    # Inline dispatch for the three tags that dominate real traffic
    # (string values, int timestamps, absent prev-values).
    if tag == _T_STR:
        return _r_str(r)
    if tag == _T_INT:
        return _r_int(r)
    if tag == _T_NONE:
        return None
    if tag >= len(_VALUE_READERS):
        raise ValueError(f"unknown value tag {tag:#04x}")
    return _VALUE_READERS[tag](r)


# ----------------------------------------------------------------------
# per-message-type packers, generated from the registry
#
# Each message kind compiles to a flat pack/unpack pair: fields whose
# declared type is ``int`` or ``ProcessId`` are written raw (no tag
# byte); everything else goes through the tagged value codec.  The
# functions are built once at import and cached in the dispatch tables
# below — the hot path is one dict lookup plus straight-line calls.


def _compile_message_codec(name: str, cls: type) -> Tuple[Callable, Callable]:
    pack_lines: List[str] = []
    unpack_calls: List[str] = []
    for field in fields(cls):
        if field.type == "int":
            pack_lines.append(f"    _w_int(buf, m.{field.name})")
            unpack_calls.append("_r_int(r)")
        elif field.type == "ProcessId":
            pack_lines.append(f"    _w_pid(buf, m.{field.name})")
            unpack_calls.append("_r_pid(r)")
        else:
            pack_lines.append(f"    _w_value(buf, m.{field.name})")
            unpack_calls.append("_r_value(r)")
    # Unpack builds the frozen dataclass pickle-style (``__new__`` plus
    # one ``__dict__.update``): keyword evaluation order is the field
    # read order, and the generated ``__init__``'s per-field
    # ``object.__setattr__`` calls — pure overhead on the decode hot
    # path — never run.  Safe: no registered message defines
    # ``__post_init__`` or slots.
    init_items = ", ".join(
        f"{field.name}={call}"
        for field, call in zip(fields(cls), unpack_calls)
    )
    source = (
        f"def _pack_{name}(buf, m):\n"
        + ("\n".join(pack_lines) if pack_lines else "    pass")
        + f"\ndef _unpack_{name}(r):\n"
        + "    m = _cls.__new__(_cls)\n"
        + f"    m.__dict__.update({init_items})\n"
        + "    return m\n"
    )
    namespace = {
        "_w_int": _w_int,
        "_w_pid": _w_pid,
        "_w_value": _w_value,
        "_r_int": _r_int,
        "_r_pid": _r_pid,
        "_r_value": _r_value,
        "_cls": cls,
    }
    exec(source, namespace)  # noqa: S102 - trusted, registry-derived source
    return namespace[f"_pack_{name}"], namespace[f"_unpack_{name}"]


_BINARY_PACK: Dict[type, Tuple[int, Callable]] = {}
_BINARY_UNPACK: Dict[int, Callable] = {}
_KIND_NAME_BY_BYTE: Dict[int, str] = {}
for _name, _kind_byte in WIRE_KIND_BYTES.items():
    _pack, _unpack = _compile_message_codec(_name, MESSAGE_TYPES[_name])
    _BINARY_PACK[MESSAGE_TYPES[_name]] = (_kind_byte, _pack)
    _BINARY_UNPACK[_kind_byte] = _unpack
    _KIND_NAME_BY_BYTE[_kind_byte] = _name
del _name, _kind_byte, _pack, _unpack


def _w_statement(
    buf: bytearray, src: ProcessId, dst: ProcessId, payload: Any, stmt: SignedStatement
) -> None:
    """Append the statement section: what the envelope does not say."""
    if (
        stmt.server != src
        or stmt.client != dst
        or stmt.signature.signer != src
        or stmt.op_id != getattr(payload, "op_id", None)
        or (stmt.reply is not payload and stmt.reply != payload)
    ):
        raise ProtocolError(
            f"statement {stmt.describe()} (op {stmt.op_id}) does not describe "
            f"the frame {src} -> {dst} {type(payload).__name__} that carries it"
        )
    _w_uvar(buf, stmt.seq)
    _w_str(buf, stmt.cause_kind)
    _w_bytes(buf, stmt.signature.tag)


def _r_statement(
    r: _Reader, src: ProcessId, dst: ProcessId, payload: Any
) -> SignedStatement:
    return SignedStatement.from_envelope(
        src, dst, payload, seq=_r_uvar(r), cause_kind=_r_str(r), tag=_r_bytes(r)
    )


def _encode_binary_frame(
    src: ProcessId,
    dst: ProcessId,
    payload: Any,
    statement: Optional[SignedStatement],
    scratch: bytearray,
) -> bytes:
    entry = _BINARY_PACK.get(type(payload))
    if entry is None:
        raise ProtocolError(
            f"cannot binary-encode {type(payload).__name__}: not a "
            "registered wire message type"
        )
    buf = scratch
    del buf[:]
    buf += b"\x00\x00\x00\x00"  # header placeholder, patched below
    buf.append(entry[0])
    buf.append(_FLAG_STATEMENT if statement is not None else 0)
    _w_pid(buf, src)
    _w_pid(buf, dst)
    entry[1](buf, payload)
    if statement is not None:
        _w_statement(buf, src, dst, payload, statement)
    body_len = len(buf) - HEADER.size
    if body_len > MAX_FRAME:
        raise ProtocolError(f"frame body of {body_len} bytes exceeds MAX_FRAME")
    HEADER.pack_into(buf, 0, body_len)
    return bytes(buf)


def _decode_binary_body(
    body: Any,
) -> Tuple[ProcessId, ProcessId, Any, Optional[SignedStatement]]:
    r = _Reader(body)
    try:
        kind_byte = body[0]
        unpack = _BINARY_UNPACK.get(kind_byte)
        if unpack is None:
            r.pos = 1  # the offending byte has been consumed
            raise ValueError("not a registered kind byte")
        flags = body[1]
        r.pos = 2
        if flags and flags != _FLAG_STATEMENT:
            raise ValueError(
                f"flags byte {flags:#04x} has bits {BINARY_FORMAT} does not define"
            )
        src = _r_pid(r)
        dst = _r_pid(r)
        payload = unpack(r)
        statement = _r_statement(r, src, dst, payload) if flags else None
        if r.pos != len(body):
            raise ValueError(f"{len(body) - r.pos} trailing bytes after message")
    except ProtocolError:
        raise
    except Exception as exc:
        first = body[0] if len(body) else None
        kind = (
            _KIND_NAME_BY_BYTE.get(first, "unknown") if first is not None else "empty"
        )
        shown = f"{first:#04x}" if first is not None else "none"
        raise ProtocolError(
            f"undecodable binary frame body (kind byte {shown} [{kind}], "
            f"offset {r.pos} of {len(body)}): {exc}"
        ) from exc
    return src, dst, payload, statement


# ----------------------------------------------------------------------
# connection preamble

#: First body byte 0xA5 collides with no serializer: JSON bodies start
#: at ``{``, binary bodies at a kind byte <= len(MESSAGE_TYPES).
PREAMBLE_MAGIC = b"\xa5repro-wire/1\x00"


def encode_preamble(serializer: str) -> bytes:
    """One magic frame naming the sender's serializer.

    Each side sends it as the first frame on a new connection; the frame
    is recognisable under *any* serializer (see :data:`PREAMBLE_MAGIC`),
    so a mismatched peer still reads the name and can fail loudly
    instead of surfacing a decode storm.  Preambles bypass chaos
    injection and accountability signing — they are connection plumbing,
    not protocol traffic, and must not perturb decision streams.
    """
    body = PREAMBLE_MAGIC + serializer.encode("ascii")
    return HEADER.pack(len(body)) + body


def preamble_serializer(body: Any) -> Optional[str]:
    """The serializer named by a preamble body, or ``None`` if ``body``
    is an ordinary message frame."""
    n = len(PREAMBLE_MAGIC)
    if len(body) < n or bytes(body[:n]) != PREAMBLE_MAGIC:
        return None
    try:
        return str(body[n:], "ascii")
    except UnicodeDecodeError:
        return None


class Codec:
    """Frames ``(src, dst, message)`` triples onto and off a byte stream."""

    __slots__ = ("serializer", "_dumps", "_loads", "_scratch")

    def __init__(self, serializer: str = "json") -> None:
        if serializer == BINARY_SERIALIZER:
            self._dumps = self._loads = None
            # Reusable encode buffer: frames are built in place and only
            # the final immutable copy escapes.  Safe because encoding
            # is synchronous and the event loop is single-threaded.
            self._scratch: Optional[bytearray] = bytearray()
        elif serializer in SERIALIZERS:
            self._dumps, self._loads = SERIALIZERS[serializer]
            self._scratch = None
        else:
            available = ", ".join(available_serializers())
            raise ProtocolError(
                f"unknown serializer {serializer!r}; available: {available}"
            )
        self.serializer = serializer

    def encode_frame(
        self,
        src: ProcessId,
        dst: ProcessId,
        payload: Any,
        statement: Optional[SignedStatement] = None,
    ) -> bytes:
        """Frame one message; ``statement`` optionally attaches the
        server's :class:`~repro.accountability.statements.SignedStatement`
        about this very reply.  json ships its ``to_wire()`` dict
        under the ``"a"`` key; binary ships only ``seq``, ``cause_kind``
        and the signature tag, because the envelope already says the
        rest — so a statement about some other frame is a
        :class:`ProtocolError` there."""
        if self._scratch is not None:
            return _encode_binary_frame(src, dst, payload, statement, self._scratch)
        record = {"s": str(src), "d": str(dst), "p": payload.to_wire()}
        if statement is not None:
            record["a"] = statement.to_wire()
        body = self._dumps(record)
        if len(body) > MAX_FRAME:
            raise ProtocolError(f"frame body of {len(body)} bytes exceeds MAX_FRAME")
        return HEADER.pack(len(body)) + body

    def decode_body(self, body: Any) -> Tuple[ProcessId, ProcessId, Any]:
        return self.decode_body_full(body)[:3]

    def decode_body_full(
        self, body: Any
    ) -> Tuple[ProcessId, ProcessId, Any, Optional[SignedStatement]]:
        """Like :meth:`decode_body`, also surfacing the frame's optional
        accountability statement (``None`` when absent; parsed, *not*
        verified).  ``body`` may be ``bytes`` or a ``memoryview`` from
        :class:`FrameBuffer`."""
        if self._scratch is not None:
            return _decode_binary_body(body)
        try:
            record = self._loads(body)
            src = parse_pid(record["s"])
            dst = parse_pid(record["d"])
            payload = decode_message(record["p"])
            statement = record.get("a")
            if statement is not None:
                statement = SignedStatement.from_wire(statement)
        except ProtocolError:
            raise
        except Exception as exc:  # malformed body: report, don't crash the loop
            raise ProtocolError(f"undecodable frame body: {exc}") from exc
        return src, dst, payload, statement


class FrameBuffer:
    """Incremental length-prefix parser: feed bytes, get frame bodies.

    One buffer per connection; ``feed`` returns zero or more complete
    bodies and retains any partial tail for the next read.  Bodies are
    ``memoryview`` slices into the fed data (zero-copy on the whole-
    frames fast path); they stay valid indefinitely — the backing blob
    is immutable ``bytes`` — but callers should decode and drop them
    promptly so the blob can be released.
    """

    __slots__ = ("_pending",)

    def __init__(self) -> None:
        self._pending = b""

    def feed(self, data: Any) -> List[memoryview]:
        if self._pending:
            blob = self._pending + data
            self._pending = b""
        elif isinstance(data, bytes):
            blob = data
        else:
            blob = bytes(data)
        bodies: List[memoryview] = []
        view = memoryview(blob)
        total = len(blob)
        offset = 0
        header_size = HEADER.size
        while total - offset >= header_size:
            (length,) = HEADER.unpack_from(blob, offset)
            if length > MAX_FRAME:
                raise ProtocolError(
                    f"frame of {length} bytes exceeds MAX_FRAME: "
                    "stream desynchronised or hostile"
                )
            start = offset + header_size
            if total - start < length:
                break
            bodies.append(view[start : start + length])
            offset = start + length
        if offset < total:
            self._pending = blob[offset:]  # copies only the partial tail
        return bodies

    @property
    def pending_bytes(self) -> int:
        return len(self._pending)


def get_codec(serializer: Optional[str] = None) -> Codec:
    """Codec for ``serializer``; ``None`` selects ``json``.

    The ``None`` default is the *library* compatibility default — it
    never auto-selects binary.  CLI entry points pass
    :func:`default_serializer` (``binary``) explicitly.
    """
    return Codec(serializer or "json")
