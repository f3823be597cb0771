"""The traffic monitor — the adversary's tshark.

Works purely from what an on-path observer has: packet timestamps,
directions, wire sizes, cleartext TCP header fields, and the cleartext
TLS record content types (the ``ssl.record.content_type == 23``
filter).  GET requests are recognized as client→server application-data
packets large enough to be HEADERS frames — HTTP/2 control chatter
(WINDOW_UPDATE, SETTINGS ACK, PING) rides in much smaller records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.netsim.capture import CaptureLog, Direction, PacketRecord

#: Client→server application-data packets at or above this payload size
#: are counted as GET requests.  Control records are smaller: a
#: WINDOW_UPDATE record is 13 B of plaintext (≈42 B of TCP payload), a
#: SETTINGS ACK ≈38 B; a GET HEADERS record is ≥46 B of TCP payload
#: even for a repeated path with a hot HPACK table.
GET_PAYLOAD_THRESHOLD = 44

#: Client→server application bytes ignored before GET detection starts
#: (the preface record + client SETTINGS fingerprint, ≈103 B).
PREFACE_FLIGHT_BYTES = 120


@dataclass(frozen=True)
class GetRequestObservation:
    """One observed GET: its time and ordinal position."""

    index: int  # 1-based: "the 6th GET request"
    time: float
    payload_bytes: int


class TrafficMonitor:
    """Offline queries over a middlebox packet capture."""

    def __init__(
        self,
        capture: CaptureLog,
        get_payload_threshold: int = GET_PAYLOAD_THRESHOLD,
    ) -> None:
        self._capture = capture
        self.get_payload_threshold = get_payload_threshold

    @property
    def capture(self) -> CaptureLog:
        return self._capture

    def get_requests(self, since: float = 0.0) -> List[GetRequestObservation]:
        """All observed GETs in order.

        Retransmitted requests are excluded by sequence-number
        watermarking (old sequence numbers are visible in the clear),
        like tshark's retransmission analysis.
        """
        observations = []
        index = 0
        max_end_seq = -1
        preface_seen = 0
        for record in self._capture:
            if record.dropped_by_adversary:
                continue
            if (
                record.direction is not Direction.CLIENT_TO_SERVER
                or not record.is_application_data
            ):
                continue
            preface_before = preface_seen
            preface_seen += record.payload_bytes
            if preface_before < PREFACE_FLIGHT_BYTES:
                continue
            if record.payload_bytes < self.get_payload_threshold:
                continue
            end = record.seq + record.payload_bytes
            if max_end_seq < 0 or record.seq >= max_end_seq:
                index += 1
                max_end_seq = end
                if record.time >= since:
                    observations.append(
                        GetRequestObservation(
                            index, record.time, record.payload_bytes
                        )
                    )
            elif end > max_end_seq:
                max_end_seq = end
        return observations

    def nth_get_time(self, n: int) -> Optional[float]:
        """Timestamp of the n-th GET (1-based), or None."""
        for observation in self.get_requests():
            if observation.index == n:
                return observation.time
        return None

    def response_packets(self, since: float = 0.0) -> List[PacketRecord]:
        """Server→client application-stream packets (estimator input).

        Includes record-continuation packets (no visible record header)
        — the size side-channel sums every byte of a burst.
        """
        return [
            record
            for record in self._capture
            if record.time >= since
            and not record.dropped_by_adversary
            and record.direction is Direction.SERVER_TO_CLIENT
            and record.is_application_stream
        ]

    def inter_get_gaps(self) -> List[float]:
        """Gaps between consecutive observed GETs (Table II's rows)."""
        times = [obs.time for obs in self.get_requests()]
        return [b - a for a, b in zip(times, times[1:])]

    def __repr__(self) -> str:
        return f"TrafficMonitor({len(self._capture)} packets)"
