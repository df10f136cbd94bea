"""Tagged value certificates attached to every computed squeezing bound."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InvalidCertificate

TAGS = ("exact", "lower", "upper")


@dataclass(frozen=True)
class BoundCertificate:
    """A squeezing value together with its epistemic status.

    ``tag`` is one of exact / lower / upper, ``method`` names the producing
    procedure and ``witness`` records the parameters that realise the value.
    """

    value: float
    tag: str
    method: str
    witness: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.tag not in TAGS:
            raise InvalidCertificate(f"tag must be one of {TAGS}, got {self.tag!r}")
        if not (0.0 < self.value <= 1.0):
            raise InvalidCertificate(f"certificate value must lie in (0, 1], got {self.value}")
