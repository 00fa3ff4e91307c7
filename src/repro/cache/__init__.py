"""Page cache: clean extents, dirty runs, and the writeback daemon.

Reproduces the Linux behaviours the paper hinges on: writes are absorbed
by the cache and flushed much later by a kernel *proxy* task (pdflush),
dirty data is bounded by the ``dirty_background_ratio`` /
``dirty_ratio`` pair (background flush vs foreground throttling), and
pages older than ``dirty_expire`` are flushed on the periodic wakeup.
"""

from repro.cache.page import DirtyRun, PageKey
from repro.cache.cache import PageCache
from repro.cache.writeback import WritebackDaemon, WritebackConfig

__all__ = ["DirtyRun", "PageCache", "PageKey", "WritebackConfig", "WritebackDaemon"]
