"""The system-call layer: the OS facade applications program against."""

from repro.syscall.cpu import CPU
from repro.syscall.os import OS, OpenFile

__all__ = ["CPU", "OS", "OpenFile"]
