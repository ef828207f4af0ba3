"""Length-prefixed wire codec for register-protocol messages.

A frame on the socket is ``4-byte big-endian length || body``, and the
body is always ``repro-bin/v2``: ``kind byte || flags || src pid || dst
pid || fields`` (plus, under flag ``0x02``, the ``seq || cause || tag``
of the server's accountability statement about this reply), with
per-message-type pack/unpack functions built at import from the field
annotations of the :data:`~repro.registers.messages.MESSAGE_TYPES`
dataclasses — no intermediate dict is built on either side.  The
annotations are the schema: a field holding a type its annotation does
not admit is refused at its tag byte, before any automaton runs.

Each side's first frame is :data:`PREAMBLE`, which names the body
format; a peer that names another (an older build's ``json``) is
refused instead of surfacing as a decode storm.  Frames larger than
:data:`MAX_FRAME` indicate a desynchronised or hostile peer and raise.
A captured body reads back as text through ``Codec().decode_body_full``
plus the message's ``to_wire()``.  The byte-level layout is documented
in the README's "Wire format" section.
"""

from __future__ import annotations

import struct
from dataclasses import fields
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple, Union
from typing import get_args, get_origin, get_type_hints

from repro.accountability.statements import SignedStatement
from repro.crypto.signatures import SignedPayload
from repro.errors import ProtocolError
from repro.registers.messages import MESSAGE_TYPES, WIRE_KIND_BYTES
from repro.registers.timestamps import MWTimestamp, SignedValueTag, ValueTag
from repro.sim.ids import ProcessId

HEADER = struct.Struct(">I")

#: Upper bound on one frame body.  Honest frames are tiny (a tag, a seen
#: set); anything near this size means framing desync or garbage input.
MAX_FRAME = 16 * 1024 * 1024

#: The one body format's name, as the preamble announces it.
BINARY_SERIALIZER = "binary"

#: Format label of the binary body layout; bump on incompatible change.
BINARY_FORMAT = "repro-bin/v2"


def require_binary(serializer: str) -> None:
    """Refuse any body format but ``binary``: the check behind the
    ``serializer`` parameters kept for callers that still name it."""
    if serializer != BINARY_SERIALIZER:
        raise ProtocolError(
            f"unknown serializer {serializer!r}; available: {BINARY_SERIALIZER}"
        )


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


def _w_bytes(buf: bytearray, b: bytes) -> None:
    _w_uvar(buf, len(b))
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


#: Tagged-value bytes of a pid, for the seen sets every ack carries.
_PID_VALUE_CACHE: Dict[ProcessId, bytes] = {}


def _wv_fset(buf: bytearray, v: frozenset) -> None:
    buf.append(_T_FSET)
    _w_uvar(buf, len(v))
    encoded = []
    for item in v:
        # ``type() is``, not a dict probe alone: a plain tuple equal to a
        # pid hashes and compares equal to it, yet encodes as a tuple.
        if type(item) is ProcessId:
            enc = _PID_VALUE_CACHE.get(item)
            if enc is None:
                enc = _PID_VALUE_CACHE[item] = _value_bytes(item)
        else:
            enc = _value_bytes(item)
        encoded.append(enc)
    encoded.sort()
    buf += b"".join(encoded)


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


def _rv_fset(r: _Reader) -> frozenset:
    return frozenset([_r_value(r) for _ in range(_r_uvar(r))])


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
# typed slots: the dataclass annotations are the schema
#
# A field declared ``int``, ``ProcessId`` or ``bytes`` is written raw
# (no tag byte), and ``Any`` (register values, signed payloads: the
# caller's) is the generic value codec.  Every other field is a tagged
# value whose annotation -- a ``Union`` of, or a ``FrozenSet`` of, types
# in ``_TYPE_BYTE`` -- names the tag bytes it admits: a tag slot only
# ``ValueTag``/``SignedValueTag``, a timestamp slot only an int or an
# ``MWTimestamp``, a seen set only pids.  Anything else is refused at
# that byte, so an automaton never sees a field of a type it does not
# declare.  An annotation outside this table fails at import.

_RAW: Dict[Any, Tuple[Callable, Callable]] = {
    int: (_w_int, _r_int),
    ProcessId: (_w_pid, _r_pid),
    bytes: (_w_bytes, _r_bytes),
    Any: (_w_value, _r_value),
}

_TYPE_BYTE: Dict[Any, int] = {
    type(None): _T_NONE,
    int: _T_INT,
    ProcessId: _T_PID,
    ValueTag: _T_VTAG,
    SignedValueTag: _T_STAG,
    MWTimestamp: _T_MWTS,
    SignedPayload: _T_SIGNED,
}


def _refused(r: _Reader, shown: str) -> ValueError:
    return ValueError(f"value tag {r.buf[r.pos]:#04x} in a slot declared {shown}")


def _admitting(shown: str, admitted: FrozenSet[int]) -> Callable[[_Reader], Any]:
    """Reader of a tagged value whose tag byte is in ``admitted``."""

    def read(r: _Reader) -> Any:
        tag = r.buf[r.pos]
        if tag not in admitted:
            raise _refused(r, shown)
        r.pos += 1
        return _VALUE_READERS[tag](r)

    return read


def _slot(hint: Any) -> Tuple[Callable, Callable]:
    """``(writer, reader)`` of a field declared ``hint``.  Writers check
    nothing new: the sender is not the trust boundary."""
    if hint in _RAW:
        return _RAW[hint]
    args = get_args(hint)
    if all(arg in _TYPE_BYTE for arg in args):
        shown = ", ".join(arg.__name__ for arg in args)
        if get_origin(hint) is Union:
            return _w_value, _admitting(f"Union[{shown}]", frozenset(_TYPE_BYTE[a] for a in args))
        if get_origin(hint) is frozenset:
            read_item = _admitting(shown, frozenset([_TYPE_BYTE[args[0]]]))

            def read_set(r: _Reader) -> frozenset:
                if r.buf[r.pos] != _T_FSET:
                    raise _refused(r, f"FrozenSet[{shown}]")
                r.pos += 1
                return frozenset([read_item(r) for _ in range(_r_uvar(r))])

            return _w_value, read_set
    raise TypeError(f"the wire codec has no slot for {hint}")


def _schema(cls: type) -> Tuple[Tuple[str, ...], Tuple[Tuple[Callable, Callable], ...]]:
    """Field names of ``cls`` and the slot of each, by its annotation."""
    hints = get_type_hints(cls)
    names = tuple(field.name for field in fields(cls))
    return names, tuple(_slot(hints[name]) for name in names)


def _packer(cls: type, type_byte: Optional[int] = None) -> Callable[[bytearray, Any], None]:
    """Writes the fields in declaration order, after ``type_byte`` when
    ``cls`` travels as a tagged value."""
    names, slots = _schema(cls)
    pairs = tuple((name, slot[0]) for name, slot in zip(names, slots))
    prefix = b"" if type_byte is None else bytes([type_byte])

    def pack(buf: bytearray, m: Any) -> None:
        buf += prefix
        values = m.__dict__
        for name, write in pairs:
            write(buf, values[name])

    return pack


def _unpacker(cls: type) -> Callable[[_Reader], Any]:
    """Reads the fields in declaration order into a ``cls`` built the
    way pickle does (``__new__``, then each field straight into
    ``__dict__``): the generated ``__init__``'s per-field
    ``object.__setattr__`` calls never run.  Safe: no schema class
    defines ``__post_init__`` or slots."""
    names, slots = _schema(cls)
    pairs = tuple((name, slot[1]) for name, slot in zip(names, slots))
    new = cls.__new__

    def unpack(r: _Reader) -> Any:
        obj = new(cls)
        values = obj.__dict__
        for name, read in pairs:
            values[name] = read(r)
        return obj

    return unpack


_VALUE_WRITERS: Dict[type, Callable[[bytearray, Any], None]] = {
    type(None): _wv_none,
    bool: _wv_bool,
    int: _wv_int,
    float: _wv_float,
    str: _wv_str,
    bytes: _wv_bytes,
    ProcessId: _wv_pid,
    ValueTag: _packer(ValueTag, _T_VTAG),
    SignedValueTag: _packer(SignedValueTag, _T_STAG),
    MWTimestamp: _packer(MWTimestamp, _T_MWTS),
    SignedPayload: _packer(SignedPayload, _T_SIGNED),
    frozenset: _wv_fset,
    tuple: _wv_tuple,
    list: _wv_list,
    dict: _wv_dict,
}

_VALUE_READERS: Tuple[Callable[[_Reader], Any], ...] = (
    lambda r: None,  # _T_NONE
    lambda r: False,  # _T_FALSE
    lambda r: True,  # _T_TRUE
    _r_int,  # _T_INT
    _rv_float,  # _T_FLOAT
    _r_str,  # _T_STR
    _r_bytes,  # _T_BYTES
    _r_pid,  # _T_PID
    _unpacker(ValueTag),  # _T_VTAG
    _unpacker(SignedValueTag),  # _T_STAG
    _unpacker(MWTimestamp),  # _T_MWTS
    _unpacker(SignedPayload),  # _T_SIGNED
    _rv_fset,  # _T_FSET
    _rv_tuple,  # _T_TUPLE
    _rv_list,  # _T_LIST
    _rv_dict,  # _T_DICT
)

_BINARY_PACK: Dict[type, Tuple[int, Callable]] = {
    MESSAGE_TYPES[name]: (kind, _packer(MESSAGE_TYPES[name]))
    for name, kind in WIRE_KIND_BYTES.items()
}
_BINARY_UNPACK = {kind: _unpacker(MESSAGE_TYPES[name]) for name, kind in WIRE_KIND_BYTES.items()}
_KIND_NAME_BY_BYTE = {kind: name for name, kind in WIRE_KIND_BYTES.items()}


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
    _w_bytes(buf, stmt.cause_kind.encode("utf8"))
    _w_bytes(buf, stmt.signature.tag)


def _r_statement(
    r: _Reader, src: ProcessId, dst: ProcessId, payload: Any
) -> SignedStatement:
    return SignedStatement.from_envelope(
        src, dst, payload, seq=_r_uvar(r), cause_kind=_r_str(r), tag=_r_bytes(r)
    )


# ----------------------------------------------------------------------
# connection preamble

#: First body byte 0xA5 is no kind byte (those are <= len(MESSAGE_TYPES))
#: and no older build's json ``{``, so every build recognises a preamble.
PREAMBLE_MAGIC = b"\xa5repro-wire/1\x00"

_PREAMBLE_BODY = PREAMBLE_MAGIC + BINARY_SERIALIZER.encode("ascii")

#: The frame each side writes first on a new connection, naming the body
#: format.  It guards against version skew: a peer announcing anything
#: else is refused.  Preambles bypass chaos injection and accountability
#: signing — connection plumbing, not protocol traffic, and they must not
#: perturb decision streams.
PREAMBLE = HEADER.pack(len(_PREAMBLE_BODY)) + _PREAMBLE_BODY


def preamble_serializer(body: Any) -> Optional[str]:
    """The body format a preamble names, or ``None`` if ``body`` is an
    ordinary message frame."""
    n = len(PREAMBLE_MAGIC)
    # The first-byte test spares every message frame the slice copy.
    if len(body) < n or body[0] != 0xA5 or bytes(body[:n]) != PREAMBLE_MAGIC:
        return None
    try:
        return str(body[n:], "ascii")
    except UnicodeDecodeError:
        return None


class Codec:
    """Frames ``(src, dst, message)`` triples onto and off a byte stream."""

    __slots__ = ("_scratch",)

    def __init__(self) -> None:
        # Reusable encode buffer: frames are built in place and only the
        # final immutable copy escapes.  Safe because encoding is
        # synchronous and the event loop is single-threaded.
        self._scratch = bytearray()

    def encode_frame(
        self,
        src: ProcessId,
        dst: ProcessId,
        payload: Any,
        statement: Optional[SignedStatement] = None,
    ) -> bytes:
        """Frame one message; ``statement`` optionally attaches the
        server's :class:`~repro.accountability.statements.SignedStatement`
        about this very reply.  Only its ``seq``, ``cause_kind`` and
        signature tag travel, because the envelope already says the
        rest — so a statement about some other frame is a
        :class:`ProtocolError`."""
        entry = _BINARY_PACK.get(type(payload))
        if entry is None:
            raise ProtocolError(
                f"cannot binary-encode {type(payload).__name__}: not a "
                "registered wire message type"
            )
        buf = self._scratch
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

    def decode_body(self, body: Any) -> Tuple[ProcessId, ProcessId, Any]:
        return self.decode_body_full(body)[:3]

    def decode_body_full(
        self, body: Any
    ) -> Tuple[ProcessId, ProcessId, Any, Optional[SignedStatement]]:
        """Like :meth:`decode_body`, also surfacing the frame's optional
        accountability statement (``None`` when absent; parsed, *not*
        verified).  ``body`` may be ``bytes`` or a ``memoryview`` from
        :class:`FrameBuffer`."""
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


class FrameBuffer:
    """Incremental length-prefix parser: feed bytes, get frame bodies.

    One buffer per connection.  Bodies slice immutable ``bytes`` (the fed
    data itself when whole frames arrive; decode and drop them promptly);
    a partial tail grows in place, so each byte is copied O(1) times.
    """

    __slots__ = ("_pending",)

    def __init__(self) -> None:
        self._pending = bytearray()

    def feed(self, data: Any) -> List[memoryview]:
        pending = self._pending
        if pending:
            pending += data  # in place: the prefix is not copied again
            if len(pending) < HEADER.size or (
                len(pending) - HEADER.size < HEADER.unpack_from(pending)[0] <= MAX_FRAME
            ):
                return []  # its first frame is still partial
            blob, self._pending = bytes(pending), bytearray()
        else:
            blob = data if isinstance(data, bytes) else bytes(data)
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
            self._pending = bytearray(view[offset:])  # copies only the partial tail
        return bodies

    @property
    def pending_bytes(self) -> int:
        return len(self._pending)
