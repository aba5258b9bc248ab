"""Authoritative zone data with SOA-serial versioning.

A :class:`Zone` stores RRsets keyed by (owner name, type), answers queries
with the standard authoritative algorithm (exact match, CNAME, wildcard,
delegation, NXDOMAIN) and supports dynamic updates.  Every mutation bumps the
SOA serial; the DNS-over-MoQT authoritative server (``repro.core``) maps that
serial to the MoQT group ID it publishes updates under, as §4.2 of the paper
prescribes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from repro.dns.name import Name
from repro.dns.rdata import Rdata, SOARdata, parse_rdata
from repro.dns.rr import ResourceRecord, RRset
from repro.dns.types import DNSClass, Rcode, RecordType


class ZoneError(Exception):
    """Raised for invalid zone content or operations."""


@dataclass(frozen=True)
class LookupResult:
    """Result of an authoritative lookup.

    Attributes
    ----------
    rcode:
        NOERROR or NXDOMAIN.
    answers:
        Records for the answer section (possibly a CNAME chain).
    authorities:
        Records for the authority section (delegation NS or SOA for negative
        answers).
    additionals:
        Glue records.
    is_referral:
        True when the result delegates to a child zone.
    """

    rcode: Rcode
    answers: tuple[ResourceRecord, ...] = ()
    authorities: tuple[ResourceRecord, ...] = ()
    additionals: tuple[ResourceRecord, ...] = ()
    is_referral: bool = False


@dataclass(frozen=True)
class ZoneChange:
    """A record-set change applied to a zone (used for update notifications)."""

    serial: int
    name: Name
    rdtype: RecordType
    rrset: RRset | None


class Zone:
    """An authoritative DNS zone.

    Parameters
    ----------
    origin:
        The zone apex name.
    soa:
        The initial SOA RDATA; when omitted a default SOA with serial 1 is
        created.
    default_ttl:
        TTL applied to records added without an explicit TTL.
    """

    def __init__(
        self,
        origin: Name | str,
        soa: SOARdata | None = None,
        default_ttl: int = 300,
    ) -> None:
        self.origin = origin if isinstance(origin, Name) else Name.from_text(origin)
        self.default_ttl = default_ttl
        self._rrsets: dict[tuple[Name, RecordType], RRset] = {}
        # Owner name -> number of RRsets it owns, in order of first appearance
        # (the origin's first is the SOA that ``_put_soa`` stores below).
        self._owners: dict[Name, int] = {self.origin: 1}
        self._listeners: list[Callable[[ZoneChange], None]] = []
        if soa is None:
            soa = SOARdata(
                mname=self.origin.child("ns1"),
                rname=self.origin.child("hostmaster"),
                serial=1,
            )
        self._soa_ttl = default_ttl
        self._put_soa(soa)

    # -------------------------------------------------------------- SOA state
    def _put_soa(self, soa: SOARdata) -> None:
        record = ResourceRecord(self.origin, RecordType.SOA, soa, self._soa_ttl)
        self._rrsets[(self.origin, RecordType.SOA)] = RRset(
            self.origin, RecordType.SOA, [record]
        )

    @property
    def soa(self) -> SOARdata:
        """The current SOA RDATA."""
        rrset = self._rrsets[(self.origin, RecordType.SOA)]
        record = rrset.records[0]
        assert isinstance(record.rdata, SOARdata)
        return record.rdata

    @property
    def serial(self) -> int:
        """The current zone serial (strictly monotonically increasing)."""
        return self.soa.serial

    def bump_serial(self) -> int:
        """Increment the serial and return the new value."""
        soa = self.soa
        new_soa = SOARdata(
            soa.mname, soa.rname, soa.serial + 1, soa.refresh, soa.retry, soa.expire, soa.minimum
        )
        self._put_soa(new_soa)
        return new_soa.serial

    # -------------------------------------------------------------- listeners
    def subscribe_changes(self, listener: Callable[[ZoneChange], None]) -> None:
        """Register a callback fired after every record-set mutation."""
        self._listeners.append(listener)

    def _notify(self, change: ZoneChange) -> None:
        for listener in self._listeners:
            listener(change)

    # ----------------------------------------------------------------- content
    def _check_in_zone(self, name: Name) -> None:
        if not name.is_subdomain_of(self.origin):
            raise ZoneError(f"{name} is not within zone {self.origin}")

    def add_record(self, record: ResourceRecord, bump: bool = True) -> None:
        """Add a record, creating its RRset if needed."""
        self._check_in_zone(record.name)
        key = (record.name, record.rdtype)
        rrset = self._rrsets.get(key)
        if rrset is None:
            rrset = RRset(record.name, record.rdtype, rdclass=record.rdclass)
            self._rrsets[key] = rrset
            self._owners[record.name] = self._owners.get(record.name, 0) + 1
        rrset.add(record)
        serial = self.bump_serial() if bump else self.serial
        self._notify(ZoneChange(serial, record.name, record.rdtype, rrset))

    def add(
        self,
        name: Name | str,
        rdtype: RecordType | str,
        rdata_text: str | Rdata,
        ttl: int | None = None,
        bump: bool = True,
    ) -> ResourceRecord:
        """Convenience: add a record from presentation-format RDATA."""
        owner = name if isinstance(name, Name) else Name.from_text(name)
        record_type = rdtype if isinstance(rdtype, RecordType) else RecordType.from_text(rdtype)
        rdata = rdata_text if isinstance(rdata_text, Rdata) else parse_rdata(record_type, rdata_text)
        record = ResourceRecord(
            owner, record_type, rdata, self.default_ttl if ttl is None else ttl
        )
        self.add_record(record, bump=bump)
        return record

    def replace_rrset(self, rrset: RRset, bump: bool = True) -> None:
        """Replace (or create) the RRset for the given name and type."""
        self._check_in_zone(rrset.name)
        key = (rrset.name, rrset.rdtype)
        if key not in self._rrsets:
            self._owners[rrset.name] = self._owners.get(rrset.name, 0) + 1
        self._rrsets[key] = rrset
        serial = self.bump_serial() if bump else self.serial
        self._notify(ZoneChange(serial, rrset.name, rrset.rdtype, rrset))

    def delete_rrset(self, name: Name, rdtype: RecordType, bump: bool = True) -> bool:
        """Delete an RRset; returns whether it existed."""
        removed = self._rrsets.pop((name, rdtype), None)
        if removed is None:
            return False
        if self._owners[name] == 1:
            del self._owners[name]
        else:
            self._owners[name] -= 1
        serial = self.bump_serial() if bump else self.serial
        self._notify(ZoneChange(serial, name, rdtype, None))
        return True

    def get_rrset(self, name: Name | str, rdtype: RecordType | str) -> RRset | None:
        """Fetch the RRset for an exact (name, type) pair."""
        owner = name if isinstance(name, Name) else Name.from_text(name)
        record_type = rdtype if isinstance(rdtype, RecordType) else RecordType.from_text(rdtype)
        return self._rrsets.get((owner, record_type))

    def names(self) -> list[Name]:
        """All owner names present in the zone, in order of first appearance."""
        return list(self._owners)

    def __len__(self) -> int:
        return len(self._rrsets)

    # ------------------------------------------------------------------ lookup
    def lookup(self, qname: Name, qtype: RecordType) -> LookupResult:
        """Answer a query authoritatively.

        Implements exact matches, CNAME chasing within the zone, wildcard
        synthesis (``*.example.com``), delegations (NS sets below the apex)
        and negative answers with the SOA in the authority section.
        """
        if not qname.is_subdomain_of(self.origin):
            return LookupResult(rcode=Rcode.REFUSED)

        delegation = self._find_delegation(qname)
        if delegation is not None:
            ns_rrset, glue = delegation
            return LookupResult(
                rcode=Rcode.NOERROR,
                authorities=tuple(ns_rrset),
                additionals=tuple(glue),
                is_referral=True,
            )

        answers: list[ResourceRecord] = []
        current = qname
        for _ in range(16):  # CNAME chain bound
            rrset = self._rrsets.get((current, qtype))
            if rrset is not None and len(rrset) > 0:
                answers.extend(rrset)
                return LookupResult(rcode=Rcode.NOERROR, answers=tuple(answers))
            cname = self._rrsets.get((current, RecordType.CNAME))
            if cname is not None and qtype != RecordType.CNAME and len(cname) > 0:
                answers.extend(cname)
                target = cname.records[0].rdata
                current = target.target  # type: ignore[attr-defined]
                if not current.is_subdomain_of(self.origin):
                    return LookupResult(rcode=Rcode.NOERROR, answers=tuple(answers))
                continue
            break

        wildcard = self._find_wildcard(qname, qtype)
        if wildcard is not None:
            synthesized = [
                ResourceRecord(qname, record.rdtype, record.rdata, record.ttl, record.rdclass)
                for record in wildcard
            ]
            answers.extend(synthesized)
            return LookupResult(rcode=Rcode.NOERROR, answers=tuple(answers))

        soa_record = self._rrsets[(self.origin, RecordType.SOA)].records[0]
        if self._name_exists(qname) or answers:
            # Name exists (or we followed a CNAME) but no data of this type.
            return LookupResult(
                rcode=Rcode.NOERROR, answers=tuple(answers), authorities=(soa_record,)
            )
        return LookupResult(rcode=Rcode.NXDOMAIN, authorities=(soa_record,))

    def _name_exists(self, qname: Name) -> bool:
        return qname in self._owners

    def _find_wildcard(self, qname: Name, qtype: RecordType) -> RRset | None:
        ancestor = qname
        while not ancestor.is_root and ancestor != self.origin:
            ancestor = ancestor.parent()
            wildcard = ancestor.child("*")
            rrset = self._rrsets.get((wildcard, qtype))
            if rrset is not None:
                return rrset
        return None

    def _find_delegation(self, qname: Name) -> tuple[RRset, list[ResourceRecord]] | None:
        """Find the closest enclosing delegation strictly below the apex."""
        candidates = [name for name in qname.ancestors() if name.is_subdomain_of(self.origin)]
        for candidate in candidates:
            if candidate == self.origin:
                continue
            ns_rrset = self._rrsets.get((candidate, RecordType.NS))
            if ns_rrset is not None and candidate != qname:
                glue = self._glue_for(ns_rrset)
                return ns_rrset, glue
            if ns_rrset is not None and candidate == qname:
                # Query exactly at the delegation point is also a referral
                # unless we are authoritative for the child.
                glue = self._glue_for(ns_rrset)
                return ns_rrset, glue
        return None

    def _glue_for(self, ns_rrset: RRset) -> list[ResourceRecord]:
        glue: list[ResourceRecord] = []
        for ns_record in ns_rrset:
            target = ns_record.rdata.target  # type: ignore[attr-defined]
            for rdtype in (RecordType.A, RecordType.AAAA):
                address_rrset = self._rrsets.get((target, rdtype))
                if address_rrset is not None:
                    glue.extend(address_rrset)
        return glue

    # ------------------------------------------------------------------- text
    def to_text(self) -> str:
        """Master-file rendering of the entire zone."""
        lines = [f"$ORIGIN {self.origin.to_text()}"]
        soa_key = (self.origin, RecordType.SOA)
        lines.append(self._rrsets[soa_key].to_text())
        for key, rrset in sorted(
            self._rrsets.items(), key=lambda item: (item[0][0].canonical_key(), int(item[0][1]))
        ):
            if key == soa_key:
                continue
            lines.append(rrset.to_text())
        return "\n".join(lines) + "\n"


def find_zone(zones: Mapping[Name, Zone], qname: Name) -> Zone | None:
    """The most specific zone containing ``qname`` in a table keyed by origin.

    A longest-suffix walk: ``qname`` and then each of its ancestors is probed
    in turn, so the cost is at most ``len(qname) + 1`` dictionary lookups
    however many zones the table holds.
    """
    zone = zones.get(qname)
    while zone is None and not qname.is_root:
        qname = qname.parent()
        zone = zones.get(qname)
    return zone
