"""QUIC error types and transport error codes (RFC 9000, section 20)."""

from __future__ import annotations

import enum


class TransportErrorCode(enum.IntEnum):
    """A subset of the QUIC transport error codes."""

    NO_ERROR = 0x0
    INTERNAL_ERROR = 0x1
    CONNECTION_REFUSED = 0x2
    FLOW_CONTROL_ERROR = 0x3
    STREAM_LIMIT_ERROR = 0x4
    STREAM_STATE_ERROR = 0x5
    FRAME_ENCODING_ERROR = 0x7
    PROTOCOL_VIOLATION = 0xA
    APPLICATION_ERROR = 0x100


class QuicError(Exception):
    """Base class for QUIC errors."""


class QuicConnectionError(QuicError):
    """A connection-fatal error, carrying a transport error code."""

    def __init__(self, code: TransportErrorCode, reason: str) -> None:
        super().__init__(f"{code.name}: {reason}" if reason else code.name)
        self.code = code
        self.reason = reason
