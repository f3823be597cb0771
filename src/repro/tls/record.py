"""TLS records.

A record's 5-byte header — content type, version, length — travels in
the clear; this is the only thing (besides sizes and timing) the
adversary reads, via the ``ssl.record.content_type == 23`` filter.
"""

from __future__ import annotations

import itertools
from typing import Any

from repro.tls.cipher import AES_128_GCM_TLS12, CipherSpec

#: Record header: content type (1) + version (2) + length (2).
TLS_RECORD_HEADER_BYTES = 5

#: Maximum plaintext bytes per record (RFC 8446 §5.1).
MAX_PLAINTEXT_FRAGMENT = 16384

# Content types (RFC 5246 / RFC 8446).
CHANGE_CIPHER_SPEC = 20
ALERT = 21
HANDSHAKE = 22
APPLICATION_DATA = 23
_CONTENT_TYPES = frozenset(
    (CHANGE_CIPHER_SPEC, ALERT, HANDSHAKE, APPLICATION_DATA)
)

_record_ids = itertools.count(1)


def padded_length(length: int, block: int) -> int:
    """Plaintext length after padding ``length`` up to a ``block`` boundary.

    The padding-defense contract (relied on by both the live
    :class:`~repro.tls.session.TLSSession` padding path and the analytic
    observation model in :mod:`repro.infer`):

    * never below the original length;
    * an exact multiple of ``block`` (for ``block > 1``);
    * ``block <= 1`` (or 0) disables padding entirely.

    Callers enforcing the record-size ceiling must pick a ``block`` that
    divides :data:`MAX_PLAINTEXT_FRAGMENT`, so a maximal fragment stays
    representable after padding.
    """
    if length < 0:
        raise ValueError(f"length must be non-negative, got {length}")
    if block <= 1:
        return length
    return length + (-length % block)


class TLSRecord:
    """One TLS record: cleartext header plus opaque encrypted payload.

    A slotted class with one plain ``__init__`` (one per record a trial
    sends).  Records compare by identity; ids are drawn in construction
    order, before the arguments are checked.

    Attributes:
        content_type: cleartext record type (23 = application data).
        plaintext_length: bytes of plaintext protected by this record.
        cipher: the suite determining ciphertext expansion.
        payload: the plaintext object (an HTTP/2 frame) — opaque to any
            on-path observer, used only by the receiving endpoint and by
            ground-truth accounting.
        record_id: unique id for bookkeeping.
        wire_length: total bytes this record occupies in the transport
            stream (header plus ciphertext), computed once.

    Raises:
        ValueError: for a plaintext length outside
            ``(0, MAX_PLAINTEXT_FRAGMENT]`` or an unknown content type.
    """

    __slots__ = (
        "content_type", "plaintext_length", "cipher", "payload",
        "record_id", "wire_length",
    )

    def __init__(
        self,
        content_type: int,
        plaintext_length: int,
        cipher: CipherSpec = AES_128_GCM_TLS12,
        payload: Any = None,
    ) -> None:
        self.content_type = content_type
        self.plaintext_length = plaintext_length
        self.cipher = cipher
        self.payload = payload
        self.record_id = next(_record_ids)
        if not (0 < plaintext_length <= MAX_PLAINTEXT_FRAGMENT):
            raise ValueError(
                f"plaintext length {plaintext_length} outside "
                f"(0, {MAX_PLAINTEXT_FRAGMENT}]"
            )
        if content_type not in _CONTENT_TYPES:
            raise ValueError(f"unknown content type {content_type}")
        self.wire_length = TLS_RECORD_HEADER_BYTES + cipher.ciphertext_length(
            plaintext_length
        )

    @property
    def is_application_data(self) -> bool:
        return self.content_type == APPLICATION_DATA

    def __repr__(self) -> str:
        return (
            f"TLSRecord(#{self.record_id} type={self.content_type} "
            f"pt={self.plaintext_length} wire={self.wire_length})"
        )
