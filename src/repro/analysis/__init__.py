"""Static analysis and runtime sanitizers for the simulation stack.

Two complementary halves, both targeting the same contract — bit-exact
determinism and isolation across execution vehicles (serial, parallel,
sharded):

- :mod:`repro.analysis.simlint` — an AST-based lint pass
  (``python -m repro lint``) with custom SIM001–SIM008 rules for the
  hazard classes this codebase has actually hit: unseeded randomness,
  unsorted set iteration feeding schedulers, object-identity ordering
  keys, float tie-breaks, kernel-internal queue pokes, mutable
  defaults, unguarded bus publishes, and missing ``__slots__`` on
  hot-loop classes.
- :mod:`repro.analysis.sanitizer` — the dynamic complement
  (``StackConfig.sanitize`` / ``--sanitize``): invariant checks that
  run *while* the simulation executes — monotonic clock, exact
  ``(priority, eid)`` dispatch order, conservative-sync causality,
  token conservation, slot-count bounds — raising
  :class:`~repro.analysis.sanitizer.SanitizerError` with an event
  history snippet.  Provably zero-cost when off: the sanitized
  environment is a subclass used only when enabled, and stack checks
  are bus subscribers that otherwise never exist.
"""

from repro.analysis.sanitizer import (
    SanitizedEnvironment,
    SanitizerError,
    StackSanitizer,
    attach_sanitizer,
)
from repro.analysis.simlint import LintViolation, lint_paths, lint_source

__all__ = [
    "SanitizedEnvironment",
    "SanitizerError",
    "StackSanitizer",
    "attach_sanitizer",
    "LintViolation",
    "lint_paths",
    "lint_source",
]
