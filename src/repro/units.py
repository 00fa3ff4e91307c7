"""Common units and constants for the storage stack.

All sizes are in bytes, all times in seconds, and disk space is managed
in 4 KiB blocks (one block backs one page-cache page).
"""

KB = 1024
MB = 1024 * KB
GB = 1024 * MB

#: Size of a page-cache page and of a disk block.
PAGE_SIZE = 4 * KB

MICROSECOND = 1e-6
MILLISECOND = 1e-3
