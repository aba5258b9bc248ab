"""Errors raised by the DNS-over-MoQT layer."""

from __future__ import annotations


class DnsMoqError(Exception):
    """Base class for DNS-over-MoQT errors."""


class MappingError(DnsMoqError):
    """Raised when a DNS question cannot be mapped to a MoQT track (or back)."""
