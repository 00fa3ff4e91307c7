"""Simulated journaling filesystems (ext4- and XFS-like).

These models reproduce the filesystem behaviours that break single-layer
schedulers (paper §2.3):

- **delayed writeback**: writes buffer in the page cache and are
  flushed later by proxy tasks;
- **delayed allocation**: on-disk locations are unknown until flush
  time;
- **journaling (ordered mode)**: one running transaction batches
  metadata from every writer, and committing it requires flushing the
  ordered data of unrelated files first — the entanglement that defeats
  block-level reordering;
- **write amplification**: metadata and journal writes accompany data.
"""

from repro.fs.inode import BlockMap, Inode
from repro.fs.alloc import Allocator
from repro.fs.journal import Journal, Transaction
from repro.fs.base import FileSystem
from repro.fs.ext4 import Ext4
from repro.lazy import lazy_exports

__getattr__ = lazy_exports(__name__, {"repro.fs.xfs": ("XFS",)})

__all__ = ["Allocator", "BlockMap", "Ext4", "FileSystem", "Inode", "Journal", "Transaction", "XFS"]
