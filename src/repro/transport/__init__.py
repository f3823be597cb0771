"""Pluggable transport layer.

The TLS/HTTP stack is written against the :class:`Transport` /
:class:`TransportListener` protocols (see :mod:`repro.transport.base`)
and builds endpoints through a named factory, so the same browser,
server, middlebox and adversary machinery runs over either:

* ``tcp`` — the original single-byte-stream transport
  (:mod:`repro.tcp` behind :class:`repro.transport.tcp.TCPFactory`);
  one lost segment head-of-line-blocks every HTTP/2 stream, which is
  what the paper's targeted-drop attack exploits.
* ``quic`` — a QUIC-like datagram transport
  (:mod:`repro.transport.quic`): per-stream framing over datagrams,
  independent per-stream loss recovery, no cross-stream head-of-line
  blocking, connection-level flow control.

Selection is explicit and layered: a CLI ``--transport`` argument
wins, else the ``REPRO_TRANSPORT`` environment variable, else ``tcp``.
The environment hop carries the choice into spawned campaign workers
and experiment subprocesses.  The TCP path is byte-identical to the
pre-refactor code — golden masters are asserted unchanged by
``repro verify``.
"""

from __future__ import annotations

import importlib
import os
from typing import Dict, Optional

from repro.transport.base import Transport, TransportFactory, TransportListener
from repro.transport.stream import MessageSpan, StreamLayout

#: Environment variable carrying the transport choice across processes.
TRANSPORT_ENV = "REPRO_TRANSPORT"

#: Recognised transport names.
TRANSPORTS = ("tcp", "quic")


def resolve_transport(transport: Optional[str] = None) -> str:
    """Resolve the effective transport (argument → env → ``tcp``)."""
    value = transport or os.environ.get(TRANSPORT_ENV) or "tcp"
    value = value.strip().lower()
    if value not in TRANSPORTS:
        raise ValueError(
            f"unknown transport {value!r}; expected one of {TRANSPORTS}"
        )
    return value


_FACTORIES: Dict[str, TransportFactory] = {}


def register_transport(factory: TransportFactory) -> None:
    """Register a factory under ``factory.name`` (last write wins)."""
    _FACTORIES[factory.name] = factory


def get_transport(transport: Optional[str] = None) -> TransportFactory:
    """Return the factory for the resolved transport name.

    Each built-in factory registers itself when its module,
    ``repro.transport.<name>``, is imported, which happens here on the
    first lookup.  Importing it with this package instead would close a
    cycle: :mod:`repro.transport.tcp` imports :mod:`repro.tcp`, whose
    connection imports :mod:`repro.transport.stream` back.
    """
    name = resolve_transport(transport)
    if name not in _FACTORIES:
        importlib.import_module(f"{__name__}.{name}")
    return _FACTORIES[name]


__all__ = [
    "MessageSpan",
    "StreamLayout",
    "TRANSPORTS",
    "TRANSPORT_ENV",
    "Transport",
    "TransportFactory",
    "TransportListener",
    "get_transport",
    "register_transport",
    "resolve_transport",
]
