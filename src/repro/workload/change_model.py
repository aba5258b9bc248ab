"""Record change processes calibrated to Fig. 1b of the paper.

The paper measures, per TTL cluster, how many times an A record changed over
300 consecutive TTL-spaced observations (comparing lexicographically ordered
RDATA so round-robin rotation does not count as a change).  The headline
findings are:

* TTLs of 300 s and below change often — at least 71 changes out of 300
  observations at the 90th percentile;
* TTLs of 600 s and above essentially never change (0 changes up to the 90th
  percentile);
* HTTPS records (almost always TTL 300 s) change about as often as A records
  with TTL 300 s.

Each domain gets a :class:`RecordChangeProcess`: with probability
``dynamic_fraction`` (which depends on the TTL) the domain is "dynamic" and
changes between consecutive observations with a per-domain probability drawn
from a calibrated range (CDN-style load balancing); otherwise it is static
with a tiny residual change probability (renumbering events).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.dns.types import RecordType

#: TTL threshold below/at which the paper observes high change rates.
DYNAMIC_TTL_THRESHOLD = 300


#: The calibration of the per-TTL change behaviour.  Fraction of domains
#: that behave dynamically, per TTL regime: high-TTL records are almost
#: always static, as the paper observes zero changes up to the 90th
#: percentile for TTLs of 600 s and above.
DYNAMIC_FRACTION_LOW_TTL = 0.60
DYNAMIC_FRACTION_HIGH_TTL = 0.05
#: Per-observation change probability range for dynamic domains.
DYNAMIC_CHANGE_RANGE = (0.25, 0.95)
#: Per-observation change probability range for static domains (zero: a
#: static record simply does not change between observations).
STATIC_CHANGE_RANGE = (0.0, 0.0)
#: Number of distinct addresses a dynamic domain rotates through.
ADDRESS_POOL = 64
#: Addresses per A answer.
ADDRESSES_PER_ANSWER = 4


@dataclass
class ChangeModelConfig:
    """The seed of the change processes."""

    seed: int = 20250624


@dataclass
class RecordChangeProcess:
    """The change process of one record set.

    ``advance()`` moves to the next TTL-spaced observation instant and
    returns whether the record set changed; ``current_addresses()`` gives the
    rendered RDATA values so measurement code can apply the paper's
    lexicographic comparison.

    A process that cannot change (``change_probability <= 0``) drops its
    generator once it has drawn the initial selection: ``advance()`` would
    only ever draw ``random() >= 0.0`` from it, and the generator is the
    process's own, so nothing else reads its state.
    """

    domain_index: int
    ttl: int
    change_probability: float
    pool_size: int
    addresses_per_answer: int
    rng: random.Random | None
    changes: int = 0
    _current_selection: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self._current_selection:
            self._current_selection = self._pick_selection()
        if self.change_probability <= 0.0:
            self.rng = None

    def _pick_selection(self) -> tuple[int, ...]:
        return tuple(
            sorted(self.rng.sample(range(self.pool_size), k=min(self.addresses_per_answer, self.pool_size)))
        )

    def _address_for(self, index: int) -> str:
        # Deterministic mapping of (domain, pool index) to an IPv4 literal.
        high = (self.domain_index % 250) + 1
        return f"203.{high}.{(index // 250) % 250}.{index % 250 + 1}"

    def current_addresses(self) -> list[str]:
        """The RDATA values of the current record set (unordered)."""
        return [self._address_for(index) for index in self._current_selection]

    def current_sorted(self) -> tuple[str, ...]:
        """Lexicographically ordered RDATA, as the paper's comparison uses."""
        return tuple(sorted(self.current_addresses()))

    def advance(self) -> bool:
        """Advance one observation interval; returns True if the set changed."""
        if self.rng is None or self.rng.random() >= self.change_probability:
            return False
        previous = self._current_selection
        for _ in range(8):
            candidate = self._pick_selection()
            if candidate != previous:
                self._current_selection = candidate
                self.changes += 1
                return True
        return False


class ChangeModel:
    """Creates calibrated :class:`RecordChangeProcess` instances per domain."""

    def __init__(self, config: ChangeModelConfig | None = None) -> None:
        self.config = config if config is not None else ChangeModelConfig()

    def dynamic_fraction(self, ttl: int) -> float:
        """Fraction of domains with this TTL that behave dynamically."""
        if ttl <= DYNAMIC_TTL_THRESHOLD:
            return DYNAMIC_FRACTION_LOW_TTL
        return DYNAMIC_FRACTION_HIGH_TTL

    def change_probability(self, ttl: int, rng: random.Random) -> float:
        """Draw a per-observation change probability for one domain."""
        if rng.random() < self.dynamic_fraction(ttl):
            low, high = DYNAMIC_CHANGE_RANGE
        else:
            low, high = STATIC_CHANGE_RANGE
        return rng.uniform(low, high)

    def process_for(self, domain_index: int, ttl: int) -> RecordChangeProcess:
        """Build the change process of one domain's A record."""
        rng = random.Random((self.config.seed << 20) ^ (domain_index * 2654435761) ^ int(RecordType.A))
        probability = self.change_probability(ttl, rng)
        return RecordChangeProcess(
            domain_index=domain_index,
            ttl=ttl,
            change_probability=probability,
            pool_size=ADDRESS_POOL,
            addresses_per_answer=ADDRESSES_PER_ANSWER,
            rng=rng,
        )
