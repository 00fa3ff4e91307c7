"""QEMU-style virtual machines as nested storage stacks (paper §7.2).

A :class:`QemuVM` is a complete guest stack — its own page cache,
filesystem, and block queue — whose "disk" is a
:class:`FileBackedDevice`: every guest block request becomes a host
read/write on the VM's image file, issued by the VM's *host task*.

Host-side throttling therefore applies to the whole VM (the host task
is the account), and the guest's own cache sits *above* the host's
scheduling layer — which is why memory-bound guest workloads stay fast
even under the host's SCS scheduler (Figure 20's difference from the
raw-SCS stack).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.devices.base import Device
from repro.units import GB, MB, PAGE_SIZE

if TYPE_CHECKING:  # pragma: no cover
    from repro.syscall.os import OS, OpenFile


class FileBackedDevice(Device):
    """A guest block device backed by a file on the host.

    Implements the asynchronous device protocol of
    :class:`~repro.block.queue.BlockQueue`: ``serve`` is a generator
    whose duration emerges from the host stack (cache hits are nearly
    free; misses pay the host's disk and scheduler).
    """

    def __init__(self, host_os: "OS", host_task, image: "OpenFile", name: str = "vda"):
        capacity = image.inode.size // PAGE_SIZE
        super().__init__(capacity_blocks=capacity, name=name)
        self.host_os = host_os
        self.host_task = host_task
        self.image = image

    def service_time(self, op: str, block: int, nblocks: int) -> float:
        raise RuntimeError("FileBackedDevice is asynchronous; use serve()")

    def serve(self, request):
        """Generator: carry out a guest block request via host syscalls.

        Uses O_DIRECT (QEMU ``cache=none``): double caching between
        guest and host would hide the device from the host scheduler.
        """
        start = self.host_os.env.now
        offset = request.block * PAGE_SIZE
        nbytes = request.nblocks * PAGE_SIZE
        # The image handle belongs to the host task, so positional I/O
        # through it is attributed to the whole VM.
        if request.is_read:
            yield from self.image.pread(offset, nbytes, direct=True)
        else:
            yield from self.image.pwrite(offset, nbytes, direct=True)
        self._last_block_end = request.block + request.nblocks
        self._account(request.op, request.nblocks, self.host_os.env.now - start)


class QemuVM:
    """A guest machine: full nested stack over a host image file."""

    def __init__(
        self,
        host_os: "OS",
        name: str = "vm",
        image_bytes: int = 4 * GB,
        guest_memory: int = 1 * GB,
        guest_cores: int = 2,
        guest_scheduler=None,
    ):
        if image_bytes < 48 * MB:
            raise ValueError(
                "image must be >= 48 MiB to hold the guest journal and "
                f"metadata regions (got {image_bytes} bytes)"
            )
        self.host_os = host_os
        self.name = name
        self.image_bytes = image_bytes
        self.guest_memory = guest_memory
        self.guest_cores = guest_cores
        self.guest_scheduler = guest_scheduler
        #: The host-side identity of this whole VM (throttle this).
        self.host_task = host_os.spawn(f"qemu-{name}")
        self.image: Optional["OpenFile"] = None
        self.guest: Optional["OS"] = None

    def boot(self):
        """Generator: create the image and assemble the guest stack."""
        from repro.schedulers.noop import Noop
        from repro.syscall.os import OS
        from repro.workloads.generators import prefill_file

        self.image = yield from prefill_file(
            self.host_os,
            self.host_task,
            f"/{self.name}.img",
            self.image_bytes,
            drop=True,
        )
        device = FileBackedDevice(self.host_os, self.host_task, self.image, name=f"{self.name}-vda")
        scheduler = self.guest_scheduler if self.guest_scheduler is not None else Noop()
        self.guest = OS(
            self.host_os.env,
            device=device,
            scheduler=scheduler,
            memory_bytes=self.guest_memory,
            cores=self.guest_cores,
            fs_kwargs={"journal_blocks": 8192, "metadata_blocks": 2048},
        )
        return self.guest

    def spawn(self, name: str, priority: int = 4, **kwargs):
        """Create a task inside the guest."""
        if self.guest is None:
            raise RuntimeError("boot() the VM first")
        return self.guest.spawn(f"{self.name}/{name}", priority=priority, **kwargs)
