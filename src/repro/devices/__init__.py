"""Storage device models.

The schedulers in the paper only depend on *relative* costs — sequential
vs random, read vs write, HDD vs SSD — so the models here compute
deterministic expected service times from simple mechanical/electrical
parameters rather than replaying measured traces.
"""

from repro.devices.base import Device, DeviceError, DeviceStats
from repro.devices.hdd import HDD
from repro.devices.ssd import SSD
from repro.lazy import lazy_exports

__getattr__ = lazy_exports(__name__, {"repro.devices.composite": ("JitteryDevice", "RAID0")})

__all__ = ["Device", "DeviceError", "DeviceStats", "HDD", "JitteryDevice", "RAID0", "SSD"]
