"""A simulated TCP implementation.

Implements the transport mechanisms the paper's attack manipulates:

* three-way handshake and connection teardown state machine,
* cumulative ACKs, delayed ACKs and duplicate-ACK generation,
* Reno-style congestion control (slow start, congestion avoidance,
  fast retransmit / fast recovery),
* Jacobson/Karels RTT estimation with exponential RTO backoff
  (Karn's rule: retransmitted segments are never sampled),
* out-of-order reassembly with an optional *duplicate delivery* quirk
  that reproduces the paper's observation of HTTP/2 servers serving
  retransmitted GET requests again (Section IV-B).

The byte stream is modelled symbolically: applications send *messages*
(TLS records) whose lengths occupy ranges of the sequence space; no
payload bytes are materialized.  Segments carry a reference to the
sender's :class:`~repro.transport.stream.StreamLayout`, standing in for the
self-describing byte stream on the wire.
"""

from repro.tcp.config import TCPConfig
from repro.tcp.congestion import RenoCongestionControl
from repro.tcp.connection import TCPConnection, TCPState
from repro.tcp.listener import TCPListener
from repro.tcp.reassembly import ReassemblyBuffer
from repro.tcp.rtt import RTOEstimator
from repro.tcp.segment import TCPSegment
from repro.transport.stream import StreamLayout

__all__ = [
    "RTOEstimator",
    "ReassemblyBuffer",
    "RenoCongestionControl",
    "StreamLayout",
    "TCPConfig",
    "TCPConnection",
    "TCPListener",
    "TCPSegment",
    "TCPState",
]
