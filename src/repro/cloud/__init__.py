"""Deployment altitude: accelerator library, configurations, placement."""

from repro.cloud.ledger import SlotLedger
from repro.cloud.library import AcceleratorLibrary, FpgaConfiguration, LibraryEntry
from repro.cloud.provider import CloudProvider, Tenant

__all__ = [
    "AcceleratorLibrary",
    "CloudProvider",
    "FpgaConfiguration",
    "LibraryEntry",
    "SlotLedger",
    "Tenant",
]
