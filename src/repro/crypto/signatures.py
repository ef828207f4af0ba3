"""Simulated unforgeable digital signatures.

The Byzantine algorithm of Figure 5 relies on exactly two properties of
signatures (Section 6.1):

* **Authentication** — readers can check that a timestamp returned by a
  server was in fact produced by the writer.
* **Unforgeability** — nobody but the writer can produce a valid
  signature over a new timestamp.

We realise both with HMAC-SHA256 under per-signer secrets held by a
:class:`SignatureAuthority`.  The honest code path signs through the
authority; Byzantine code may *construct* arbitrary
:class:`SignedPayload` objects, but verification recomputes the MAC with
the true secret and rejects anything the signer did not produce — the
executable analogue of unforgeability.  (We simulate asymmetric
signatures with a trusted verifier rather than implement RSA; the
algorithms only ever call ``sign`` and ``verify``.)
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import Any, Callable, Dict

from repro.errors import SignatureError
from repro.sim.ids import ProcessId


def _canonical(data: Any) -> bytes:
    """Stable, injective byte encoding of signable payloads.

    Two properties matter for a signing encoder:

    * **determinism** — equal payloads must produce equal bytes
      (frozensets and dicts are encoded in sorted element order); and
    * **injectivity** — distinct payloads must never produce equal
      bytes, or a signature over one value would verify for another.

    Injectivity is achieved by making the encoding decodable: strings
    and bytes are length-prefixed (their content can contain any
    delimiter), every container states its element count and uses a
    distinct type letter, and scalar atoms carry their type name.  The
    accountability layer signs full reply statements, so lists and
    (string-or-scalar-keyed) dicts are supported alongside the tuples
    the register protocols sign.

    A :class:`~repro.sim.ids.ProcessId` is a ``NamedTuple`` and is
    signed as the 2-tuple it is (``t2(s6:server,int:1)``); there is no
    pid-specific form, and every signature ever made depends on that.
    Encoders are looked up by exact type; a subclass adopts its first
    encodable base's on first use, its scalars named by the subclass.

    This function is the *specification* of the signed bytes.  A hot
    path that signs one fixed shape many times (accountability
    statements) hands :meth:`SignatureAuthority.sign` a
    :class:`CanonicalPayload` that writes the same bytes directly; such
    a writer is pinned to ``_canonical(payload.expand())`` by
    differential test, never trusted on its own.
    """
    return _CANONICAL.get(type(data), _c_subclass)(data)


def _c_scalar(data: Any) -> bytes:
    return f"{type(data).__name__}:{data!r}".encode("utf8")


def _c_str(data: str) -> bytes:
    raw = data.encode("utf8")
    return b"s%d:" % len(raw) + raw


def _c_frozenset(data: frozenset) -> bytes:
    parts = sorted([_canonical(item) for item in data])
    return b"f%d{" % len(parts) + b",".join(parts) + b"}"


def _c_dict(data: dict) -> bytes:
    items = sorted([(_canonical(key), _canonical(val)) for key, val in data.items()])
    body = b",".join([key + b"=" + val for key, val in items])
    return b"d%d{" % len(items) + body + b"}"


def _c_subclass(data: Any) -> bytes:
    for base in type(data).__mro__:
        if base in _CANONICAL:
            encode = _c_scalar if base in (int, float) else _CANONICAL[base]
            _CANONICAL[type(data)] = encode
            return encode(data)
    raise SignatureError(f"cannot canonicalise {type(data).__name__} for signing")


class CanonicalPayload:
    """A payload that writes its own canonical bytes.

    Stands for the plain payload :meth:`expand` returns; the contract is
    ``canonical_bytes() == _canonical(expand())``.  Signing or verifying
    one is therefore signing or verifying what it stands for — the HMAC
    is still computed and compared in :class:`SignatureAuthority` only.
    """

    __slots__ = ()

    def canonical_bytes(self) -> bytes:
        raise NotImplementedError

    def expand(self) -> Any:
        raise NotImplementedError


_CANONICAL: Dict[type, Callable[[Any], bytes]] = {
    CanonicalPayload: lambda data: data.canonical_bytes(),
    tuple: lambda data: b"t%d(" % len(data) + b",".join([_canonical(i) for i in data]) + b")",
    int: lambda data: b"int:%d" % data,
    bool: lambda data: b"bool:True" if data else b"bool:False",
    float: _c_scalar,
    type(None): lambda data: b"NoneType:None",
    str: _c_str,
    bytes: lambda data: b"b%d:" % len(data) + data,
    frozenset: _c_frozenset,
    list: lambda data: b"l%d[" % len(data) + b",".join([_canonical(i) for i in data]) + b"]",
    dict: _c_dict,
}


@dataclass(frozen=True)
class SignedPayload:
    """A payload together with a claimed signer and a signature tag.

    Instances are inert data: validity is established only by
    :meth:`SignatureAuthority.verify`.
    """

    signer: ProcessId
    payload: Any
    tag: bytes

    def describe(self) -> str:
        return f"<{self.payload!r} signed by {self.signer} tag={self.tag[:6].hex()}>"


class SignatureAuthority:
    """Holds signer secrets; the trusted root of the signature scheme.

    One authority is created per cluster.  Honest processes receive a
    reference for signing/verifying.  Byzantine behaviours in
    :mod:`repro.faults.byzantine` are written against the same interface
    but never learn secrets, so their forgeries fail verification.
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed
        self._secrets: Dict[ProcessId, bytes] = {}

    @property
    def seed(self) -> int:
        """The signing-domain seed.  Secrets derive deterministically
        from it, so recording the seed (as transcripts and fraud proofs
        do) suffices for an independent verifier to rebuild this
        authority — the trusted-verifier analogue of distributing
        public keys."""
        return self._seed

    def register(self, signer: ProcessId) -> None:
        """Provision a secret for a signer (idempotent)."""
        if signer not in self._secrets:
            material = f"secret/{self._seed}/{signer.kind}/{signer.index}"
            self._secrets[signer] = hashlib.sha256(material.encode("utf8")).digest()

    def _secret(self, signer: ProcessId) -> bytes:
        try:
            return self._secrets[signer]
        except KeyError:
            raise SignatureError(f"{signer} is not a registered signer") from None

    def sign(self, signer: ProcessId, payload: Any) -> SignedPayload:
        """Produce a valid signature; only the library's honest code
        paths call this with a given signer identity."""
        tag = hmac.new(self._secret(signer), _canonical(payload), hashlib.sha256)
        return SignedPayload(signer=signer, payload=payload, tag=tag.digest())

    def verify(self, signed: SignedPayload) -> bool:
        """True iff ``signed`` was produced by :meth:`sign` for its
        claimed signer and payload.  Byzantine code may hand this
        anything shaped like a :class:`SignedPayload`: a tag that is not
        ``bytes``, an unknown signer or a payload that cannot be
        canonicalised (so never signed) is a rejection, not an exception."""
        if not isinstance(signed, SignedPayload) or not isinstance(signed.tag, bytes):
            return False
        try:
            secret = self._secrets.get(signed.signer)
        except TypeError:  # unhashable signer
            return False
        if secret is None:
            return False
        try:
            canonical = _canonical(signed.payload)
        except SignatureError:
            return False
        expected = hmac.new(secret, canonical, hashlib.sha256).digest()
        return hmac.compare_digest(expected, signed.tag)

    def forge(self, claimed_signer: ProcessId, payload: Any) -> SignedPayload:
        """Construct an *invalid* signature, as a Byzantine process would.

        Provided so attack code and tests never accidentally touch real
        secrets: the tag is a hash of the payload without any secret and
        will not verify (except with negligible probability, which for
        HMAC-SHA256 is zero in practice).
        """
        fake_tag = hashlib.sha256(b"forged:" + _canonical(payload)).digest()
        return SignedPayload(signer=claimed_signer, payload=payload, tag=fake_tag)


__all__ = ["CanonicalPayload", "SignatureAuthority", "SignedPayload"]
