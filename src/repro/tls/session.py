"""TLS sessions over a simulated transport connection.

The session performs a size-realistic handshake (ClientHello,
ServerHello + certificate chain, Finished messages), then carries
application payloads — HTTP/2 frames — each wrapped in one or more
records of at most :data:`~repro.tls.record.MAX_PLAINTEXT_FRAGMENT`
plaintext bytes.

Duplicate deliveries from the TCP quirk (retransmitted request
segments) are passed through with a ``duplicate=True`` flag so the
HTTP/2 server model can reproduce the paper's re-serving behaviour.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, List, Optional

from repro.simkernel.trace import TraceLog
from repro.transport.base import Transport
from repro.tls.cipher import AES_128_GCM_TLS12, CipherSpec
from repro.tls.record import (
    APPLICATION_DATA,
    HANDSHAKE,
    MAX_PLAINTEXT_FRAGMENT,
    TLSRecord,
    padded_length,
)

#: Size-realistic handshake message lengths (bytes of plaintext).
CLIENT_HELLO_BYTES = 320
SERVER_HELLO_BYTES = 3100  # ServerHello + certificate chain + key share
CLIENT_FINISHED_BYTES = 90
SERVER_FINISHED_BYTES = 90

#: Trace field names of the ``tls.send`` and ``tls.chaff`` rows.
_SEND_KEYS = ("role", "records", "plaintext")
_CHAFF_KEYS = ("role", "plaintext")


class TLSRole(enum.Enum):
    CLIENT = "client"
    SERVER = "server"


class _HandshakeMessage:
    """Opaque payload object for handshake records."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return f"_HandshakeMessage({self.name})"


class _ChaffMessage:
    """Opaque payload of a defense chaff record.

    The receiving session discards these before the HTTP/2 layer ever
    sees them — to the application, chaff does not exist; to the
    on-path observer, it is indistinguishable application data.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return "_ChaffMessage()"


class TLSSession:
    """One endpoint of a TLS channel layered on a transport.

    Callbacks:
        on_handshake_complete: the channel is ready for application data.
        on_application_record(payload, duplicate): a full application
            record arrived; ``payload`` is the opaque object the peer
            sent (an HTTP/2 frame).

    Defense knobs:
        pad_block: pad every application fragment's plaintext up to this
            block boundary before sealing the record (0 disables) — the
            per-record padding defense.  Must divide the plaintext
            ceiling so a maximal fragment stays legal.
        ``send_chaff()`` emits dummy application records the peer's
        session silently discards (counted, never delivered upward).
    """

    def __init__(
        self,
        connection: Transport,
        role: TLSRole,
        cipher: CipherSpec = AES_128_GCM_TLS12,
        trace: Optional[TraceLog] = None,
        pad_block: int = 0,
    ) -> None:
        if pad_block < 0:
            raise ValueError("pad_block must be non-negative")
        if pad_block > 1 and MAX_PLAINTEXT_FRAGMENT % pad_block:
            raise ValueError(
                f"pad_block {pad_block} must divide {MAX_PLAINTEXT_FRAGMENT}"
            )
        self._connection = connection
        self._sim = connection.sim
        self.role = role
        self.cipher = cipher
        self._trace = trace
        self.pad_block = pad_block
        #: Defense cost/volume accounting (integers).
        self.padding_bytes_sent = 0
        self.chaff_records_sent = 0
        self.chaff_records_received = 0
        self.handshake_complete = False
        self.on_handshake_complete: Optional[Callable[[], None]] = None
        self.on_application_record: Optional[Callable[[Any, bool], None]] = None

        self._sent_hello = False
        self._sent_finished = False
        connection.on_message = self._on_tcp_message
        previous_established = connection.on_established
        if role is TLSRole.CLIENT:
            def start_handshake() -> None:
                if previous_established:
                    previous_established()
                self._send_client_hello()
            connection.on_established = start_handshake

    @property
    def connection(self) -> Transport:
        return self._connection

    # Sending ------------------------------------------------------------

    def send_application(self, payload: Any, length: int) -> List[TLSRecord]:
        """Encrypt-and-send ``payload`` (``length`` plaintext bytes).

        Fragments into records of at most the maximum plaintext size;
        every fragment references the same payload object, and only the
        final fragment marks payload completion for the receiver.

        Returns the records written, in order.
        """
        if not self.handshake_complete:
            raise RuntimeError("application data before handshake completion")
        if length <= 0:
            raise ValueError(f"payload length must be positive, got {length}")
        records = []
        remaining = length
        while remaining > 0:
            fragment = min(remaining, MAX_PLAINTEXT_FRAGMENT)
            remaining -= fragment
            sealed = padded_length(fragment, self.pad_block)
            self.padding_bytes_sent += sealed - fragment
            record = TLSRecord(
                content_type=APPLICATION_DATA,
                plaintext_length=sealed,
                cipher=self.cipher,
                payload=payload if remaining == 0 else _Fragment(payload),
            )
            records.append(record)
            self._connection.send_message(record, record.wire_length)
        if self._trace is not None:
            self._trace.record(
                self._sim.now,
                "tls.send",
                _SEND_KEYS,
                (self.role.value, len(records), length),
            )
        return records

    def send_chaff(self, length: int) -> TLSRecord:
        """Emit one dummy application record (the chaff defense).

        The plaintext length is padded like real traffic; the peer's
        session counts and drops it before the application layer.
        """
        if not self.handshake_complete:
            raise RuntimeError("chaff before handshake completion")
        if length <= 0:
            raise ValueError(f"chaff length must be positive, got {length}")
        sealed = padded_length(
            min(length, MAX_PLAINTEXT_FRAGMENT), self.pad_block
        )
        record = TLSRecord(
            content_type=APPLICATION_DATA,
            plaintext_length=sealed,
            cipher=self.cipher,
            payload=_ChaffMessage(),
        )
        self.chaff_records_sent += 1
        self._connection.send_message(record, record.wire_length)
        if self._trace is not None:
            self._trace.record(
                self._sim.now,
                "tls.chaff",
                _CHAFF_KEYS,
                (self.role.value, sealed),
            )
        return record

    # Handshake ----------------------------------------------------------

    def _send_handshake_record(self, name: str, length: int) -> None:
        remaining = length
        while remaining > 0:
            fragment = min(remaining, MAX_PLAINTEXT_FRAGMENT)
            remaining -= fragment
            record = TLSRecord(
                content_type=HANDSHAKE,
                plaintext_length=fragment,
                cipher=self.cipher,
                payload=_HandshakeMessage(name),
            )
            self._connection.send_message(record, record.wire_length)

    def _send_client_hello(self) -> None:
        if self._sent_hello:
            return
        self._sent_hello = True
        self._send_handshake_record("ClientHello", CLIENT_HELLO_BYTES)

    def _on_tcp_message(self, message: Any, duplicate: bool) -> None:
        if not isinstance(message, TLSRecord):
            raise TypeError(f"non-TLS message on TLS session: {message!r}")
        if message.content_type == HANDSHAKE:
            if not duplicate:
                self._on_handshake_record(message)
            return
        if message.content_type == APPLICATION_DATA:
            if not self.handshake_complete:
                # Early data is not modelled; treat as protocol error.
                raise RuntimeError("application data before handshake finished")
            payload = message.payload
            if isinstance(payload, _ChaffMessage):
                self.chaff_records_received += 1
                return  # Chaff never reaches the application layer.
            if isinstance(payload, _Fragment):
                return  # Only the final fragment completes the payload.
            if self.on_application_record:
                self.on_application_record(payload, duplicate)

    def _on_handshake_record(self, record: TLSRecord) -> None:
        name = getattr(record.payload, "name", "")
        if self.role is TLSRole.SERVER:
            if name == "ClientHello":
                self._send_handshake_record("ServerHello", SERVER_HELLO_BYTES)
            elif name == "Finished" and not self._sent_finished:
                self._sent_finished = True
                self._send_handshake_record("Finished", SERVER_FINISHED_BYTES)
                self._complete_handshake()
        else:
            if name == "ServerHello" and not self._sent_finished:
                self._sent_finished = True
                self._send_handshake_record("Finished", CLIENT_FINISHED_BYTES)
            elif name == "Finished":
                self._complete_handshake()

    def _complete_handshake(self) -> None:
        if self.handshake_complete:
            return
        self.handshake_complete = True
        if self.on_handshake_complete:
            self.on_handshake_complete()


class _Fragment:
    """Marker payload for non-final fragments of a large application
    payload; carries the original for ground-truth accounting."""

    __slots__ = ("original",)

    def __init__(self, original: Any) -> None:
        self.original = original

    def __repr__(self) -> str:
        return f"_Fragment({self.original!r})"
