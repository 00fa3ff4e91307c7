"""Package exports imported on first use.

A stack imports only the modules it runs: a package whose ``__init__``
re-exports optional subsystems (fault injection, spans and their
export, XFS, composite devices, every scheduler) names them in a table
and loads each on first access, through a module-level ``__getattr__``
(PEP 562).  ``from package import Name`` and ``package.Name`` work as
with an eager import.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable, Dict, Tuple


def lazy_exports(package: str, modules: Dict[str, Tuple[str, ...]]) -> Callable[[str], Any]:
    """A module ``__getattr__`` for *package*: each name that *modules*
    (module -> the names it defines) lists is imported on first access
    and then kept in the package's namespace, so later lookups are plain."""
    namespace = sys.modules[package].__dict__
    exports = {name: module for module, names in modules.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = exports.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(module), name)
        return value

    return __getattr__
