"""HTTP/2 frames (RFC 7540 §4, §6) with exact wire sizes.

Frames are Python objects rather than byte strings, but every frame
knows its exact ``wire_length`` (9-byte frame header plus payload), so
TLS records and TCP segments carrying them have realistic sizes.  DATA
frame payloads are symbolic: a byte count plus a reference to the
response being served, which ground-truth accounting uses and the
adversary cannot see.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, Optional, Tuple

from repro.h2.errors import H2ErrorCode
from repro.hpack.codec import HeaderBlock

#: Every frame starts with a 9-octet header (RFC 7540 §4.1).
FRAME_HEADER_BYTES = 9

_frame_ids = itertools.count(1)


@dataclass(slots=True)
class Frame:
    """Base frame: stream 0 means connection-scoped.

    ``type_name`` is a class attribute, the class name without
    ``Frame`` in upper case (``DataFrame`` → ``"DATA"``), set once per
    class: the trace reads it for every frame written and received.
    """

    type_name: ClassVar[str] = ""

    stream_id: int = 0
    frame_id: int = field(default_factory=lambda: next(_frame_ids), init=False)

    def __init_subclass__(cls) -> None:
        # No ``super()``: ``slots=True`` rebuilds the class, and the
        # zero-argument form would name the discarded one.
        cls.type_name = cls.__name__.replace("Frame", "").upper()

    @property
    def payload_length(self) -> int:
        """Payload octets (subclasses override)."""
        return 0

    @property
    def wire_length(self) -> int:
        """Total octets on the wire."""
        return FRAME_HEADER_BYTES + self.payload_length

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(stream={self.stream_id}, "
            f"len={self.payload_length})"
        )


@dataclass(repr=False, slots=True)
class DataFrame(Frame):
    """DATA: a chunk of response body.

    Attributes:
        data_bytes: payload octets in this frame.
        end_stream: END_STREAM flag.
        context: opaque reference to the response *instance* being
            served (used only for ground-truth multiplexing accounting;
            an on-path observer has no access to it).
        padding: optional pad length (adds 1 + padding octets).
    """

    data_bytes: int = 0
    end_stream: bool = False
    context: Any = None
    padding: int = 0

    def __post_init__(self) -> None:
        if self.data_bytes < 0 or self.padding < 0:
            raise ValueError("data/padding must be non-negative")
        if self.stream_id == 0:
            raise ValueError("DATA frames require a stream id")

    @property
    def payload_length(self) -> int:
        pad = (1 + self.padding) if self.padding else 0
        return self.data_bytes + pad


@dataclass(repr=False, slots=True)
class HeadersFrame(Frame):
    """HEADERS: a request or response header block.

    ``headers`` is the decoded header list (for endpoint logic);
    ``block`` is the HPACK encoding that determines the wire size.
    """

    headers: Tuple[Tuple[str, str], ...] = ()
    block: Optional[HeaderBlock] = None
    end_stream: bool = False
    end_headers: bool = True
    priority_weight: Optional[int] = None
    priority_depends_on: int = 0
    priority_exclusive: bool = False
    context: Any = None

    def __post_init__(self) -> None:
        if self.stream_id == 0:
            raise ValueError("HEADERS frames require a stream id")

    @property
    def payload_length(self) -> int:
        length = self.block.encoded_length if self.block else 0
        if self.priority_weight is not None:
            length += 5  # stream dependency (4) + weight (1)
        return length


@dataclass(repr=False, slots=True)
class PriorityFrame(Frame):
    """PRIORITY: re-prioritize a stream (5-octet payload)."""

    depends_on: int = 0
    weight: int = 16
    exclusive: bool = False

    def __post_init__(self) -> None:
        if self.stream_id == 0:
            raise ValueError("PRIORITY frames require a stream id")
        if not (1 <= self.weight <= 256):
            raise ValueError("weight must be 1..256")

    @property
    def payload_length(self) -> int:
        return 5


@dataclass(repr=False, slots=True)
class RstStreamFrame(Frame):
    """RST_STREAM: abort one stream (4-octet error code)."""

    error_code: H2ErrorCode = H2ErrorCode.CANCEL

    def __post_init__(self) -> None:
        if self.stream_id == 0:
            raise ValueError("RST_STREAM frames require a stream id")

    @property
    def payload_length(self) -> int:
        return 4


@dataclass(repr=False, slots=True)
class SettingsFrame(Frame):
    """SETTINGS: id/value pairs, or an empty ACK."""

    settings: Dict[int, int] = field(default_factory=dict)
    ack: bool = False

    def __post_init__(self) -> None:
        if self.stream_id != 0:
            raise ValueError("SETTINGS frames are connection-scoped")
        if self.ack and self.settings:
            raise ValueError("SETTINGS ACK must be empty")

    @property
    def payload_length(self) -> int:
        return 6 * len(self.settings)


@dataclass(repr=False, slots=True)
class PushPromiseFrame(Frame):
    """PUSH_PROMISE: reserve a server-push stream."""

    promised_stream_id: int = 0
    headers: Tuple[Tuple[str, str], ...] = ()
    block: Optional[HeaderBlock] = None
    context: Any = None

    def __post_init__(self) -> None:
        if self.stream_id == 0 or self.promised_stream_id == 0:
            raise ValueError("PUSH_PROMISE needs stream and promised ids")

    @property
    def payload_length(self) -> int:
        block_len = self.block.encoded_length if self.block else 0
        return 4 + block_len  # promised stream id + header block


@dataclass(repr=False, slots=True)
class PingFrame(Frame):
    """PING: 8 opaque octets."""

    ack: bool = False

    def __post_init__(self) -> None:
        if self.stream_id != 0:
            raise ValueError("PING frames are connection-scoped")

    @property
    def payload_length(self) -> int:
        return 8


@dataclass(repr=False, slots=True)
class GoAwayFrame(Frame):
    """GOAWAY: shut the connection down."""

    last_stream_id: int = 0
    error_code: H2ErrorCode = H2ErrorCode.NO_ERROR
    debug_bytes: int = 0

    def __post_init__(self) -> None:
        if self.stream_id != 0:
            raise ValueError("GOAWAY frames are connection-scoped")

    @property
    def payload_length(self) -> int:
        return 8 + self.debug_bytes


@dataclass(repr=False, slots=True)
class WindowUpdateFrame(Frame):
    """WINDOW_UPDATE: grant flow-control credit (4-octet increment)."""

    increment: int = 0

    def __post_init__(self) -> None:
        if self.increment <= 0:
            raise ValueError("window increment must be positive")

    @property
    def payload_length(self) -> int:
        return 4


@dataclass(repr=False, slots=True)
class ContinuationFrame(Frame):
    """CONTINUATION: trailing fragments of a large header block."""

    block_bytes: int = 0
    end_headers: bool = True

    def __post_init__(self) -> None:
        if self.stream_id == 0:
            raise ValueError("CONTINUATION frames require a stream id")

    @property
    def payload_length(self) -> int:
        return self.block_bytes


#: RFC 7540 §6 frame type codes, keyed by frame class.  The simulator
#: itself never serializes frames, but :mod:`repro.h2.wire` (used by the
#: ``repro verify`` conformance harness) renders and parses the real
#: binary framing, and the codes live here next to the classes they
#: describe.
FRAME_TYPE_CODES: Dict[type, int] = {
    DataFrame: 0x0,
    HeadersFrame: 0x1,
    PriorityFrame: 0x2,
    RstStreamFrame: 0x3,
    SettingsFrame: 0x4,
    PushPromiseFrame: 0x5,
    PingFrame: 0x6,
    GoAwayFrame: 0x7,
    WindowUpdateFrame: 0x8,
    ContinuationFrame: 0x9,
}

#: RFC 7540 §6 frame flags (only the ones the frame classes model).
FLAG_END_STREAM = 0x1
FLAG_ACK = 0x1
FLAG_END_HEADERS = 0x4
FLAG_PADDED = 0x8
FLAG_PRIORITY = 0x20
