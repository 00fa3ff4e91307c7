"""simlint: AST-based determinism/isolation lint for the simulation stack.

``python -m repro lint [paths…]`` — zero third-party dependencies.

Generic linters cannot see this repo's core contract (bit-exact
determinism across serial/parallel/sharded execution), so
each rule here encodes a hazard class the codebase has actually hit:

========  ==============================================================
SIM001    wall-clock or unseeded ``random`` module calls — real time and
          interpreter-seeded randomness differ across runs/hosts; use
          the virtual clock (``env.now``) and seeded per-stack RNGs.
SIM002    iteration over a set (or redundant ``.keys()``) — set order
          follows PYTHONHASHSEED, so anything it feeds (scheduling,
          token accrual, message order) drifts between processes; use
          ``sorted(...)`` or ``dict.fromkeys(...)`` for ordered dedupe.
SIM003    ``id()`` in an ordering key or tie-break — object identity is
          an allocator address, unstable across runs; use an explicit
          sequence number.
SIM004    float arithmetic in a tie-break element of a heap entry —
          accumulated rounding can reorder "equal" entries; keep
          tie-break positions integral.
SIM005    direct pokes at another object's ``_queue``/``_eid`` —
          bypassing ``Environment.schedule`` silently skips
          sanitizer/bookkeeping hooks; go through the public API (the
          kernel's own fused paths carry suppressions).
SIM006    mutable default argument — shared across calls; plans/configs
          built from it alias state between experiment cells.
SIM007    unguarded ``bus.publish(...)`` — event construction on the
          hot path costs even with zero subscribers; guard with the
          cached ``self._sub_*``/listener check (repo idiom).
SIM008    class instantiated inside a loop without ``__slots__`` — the
          per-instance ``__dict__`` dominates hot-loop allocation cost.
========  ==============================================================

Suppression: append ``# simlint: disable=SIM002`` (comma-separate for
several, bare ``disable`` for all) to the offending line.  On a line of
its own the same comment opens a *region* — every following line is
suppressed until a matching ``# simlint: enable=SIM002`` (or end of
file); use regions for intentional blocks like the kernel's fused
event constructors.

Public API: :func:`lint_source` (one buffer), :func:`lint_paths`
(files/dirs, with the cross-file class registry SIM008 needs),
:func:`format_text` / :func:`format_json` reporters.
"""

from __future__ import annotations

import ast
import io
import json
import re
import tokenize
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

# ---------------------------------------------------------------------------
# Rule metadata
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Rule:
    """Static metadata for one SIMnnn rule."""

    id: str
    summary: str
    why: str
    fixit: str


RULES: Dict[str, Rule] = {
    r.id: r
    for r in [
        Rule(
            "SIM001",
            "wall-clock or unseeded random call in simulation code",
            "real time and interpreter-seeded randomness differ across "
            "runs and hosts, breaking bit-exact replay",
            "use the virtual clock (env.now) and a seeded per-stack "
            "random.Random instance",
        ),
        Rule(
            "SIM002",
            "iteration over an unordered set (or redundant .keys())",
            "set iteration order follows PYTHONHASHSEED, so anything it "
            "feeds — scheduling, token accrual, message order — drifts "
            "between processes",
            "wrap in sorted(...), or use dict.fromkeys(...) for an "
            "insertion-ordered dedupe",
        ),
        Rule(
            "SIM003",
            "id() used in an ordering key or tie-break",
            "object identity is an allocator address — unstable across "
            "runs, so ordering built on it is nondeterministic",
            "use an explicit monotonically-assigned sequence number",
        ),
        Rule(
            "SIM004",
            "float arithmetic in a tie-break element of a heap entry",
            "accumulated rounding error can reorder entries that should "
            "compare equal, and the drift depends on evaluation order",
            "keep tie-break tuple positions integral (priority ranks, "
            "sequence numbers); only the leading time may be float",
        ),
        Rule(
            "SIM005",
            "direct manipulation of another object's scheduling internals",
            "writing _queue/_eid from outside bypasses "
            "Environment.schedule and skips sanitizer and bookkeeping "
            "hooks",
            "call schedule()/timeout() instead; kernel-internal fused "
            "paths must carry an explicit suppression",
        ),
        Rule(
            "SIM006",
            "mutable default argument",
            "the default is evaluated once and shared by every call — "
            "plans and configs built from it alias state across "
            "experiment cells",
            "default to None and create the list/dict/set in the body",
        ),
        Rule(
            "SIM007",
            "bus publish not guarded for the zero-subscriber fast path",
            "constructing the event object costs on the hot path even "
            "when nobody is listening",
            "guard with the cached subscriber check, e.g. "
            "`if self._sub_x: bus.publish(X(...))`",
        ),
        Rule(
            "SIM008",
            "class instantiated in a loop without __slots__",
            "each instance carries a __dict__, which dominates "
            "allocation cost in the event hot loop",
            "add __slots__ = (...) to the class (and its bases)",
        ),
    ]
}


@dataclass
class LintViolation:
    """One finding: rule id, location, and the rule's why/fix-it text."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    why: str = ""
    fixit: str = ""

    def __post_init__(self):
        if not self.why:
            self.why = RULES[self.rule].why
        if not self.fixit:
            self.fixit = RULES[self.rule].fixit


# ---------------------------------------------------------------------------
# Suppression comments
# ---------------------------------------------------------------------------

_SUPPRESS_RE = re.compile(
    r"#\s*simlint:\s*(?P<action>disable|enable)"
    r"(?:\s*=\s*(?P<rules>[A-Za-z0-9_,\s]+))?"
)

#: Marker meaning "every rule suppressed on this line".
_ALL = "ALL"


def _suppressions(source: str):
    """Parse suppression comments.

    Returns ``(line_map, regions)``: *line_map* maps a line number to
    the rule ids suppressed by a trailing comment on that line;
    *regions* is a list of ``(start, end, rule)`` spans opened by a
    standalone ``disable`` comment and closed by a standalone
    ``enable`` (or end of file).
    """
    line_map: Dict[int, Set[str]] = {}
    open_regions: Dict[str, int] = {}
    regions: List[Tuple[int, int, str]] = []
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type != tokenize.COMMENT:
                continue
            m = _SUPPRESS_RE.search(tok.string)
            if not m:
                continue
            rules = m.group("rules")
            names = (
                {r.strip().upper() for r in rules.split(",") if r.strip()}
                if rules
                else {_ALL}
            )
            standalone = tok.line[: tok.start[1]].strip() == ""
            if not standalone:
                if m.group("action") == "disable":
                    line_map.setdefault(tok.start[0], set()).update(names)
                continue
            line = tok.start[0]
            if m.group("action") == "disable":
                for name in names:
                    open_regions.setdefault(name, line)
            else:
                targets = list(open_regions) if _ALL in names else names
                for name in targets:
                    start = open_regions.pop(name, None)
                    if start is not None:
                        regions.append((start, line, name))
    except tokenize.TokenError:
        pass  # unterminated string etc. — the ast parse will complain
    for name, start in open_regions.items():
        regions.append((start, 1 << 31, name))
    return line_map, regions


def _is_suppressed(
    violation: "LintViolation",
    line_map: Dict[int, Set[str]],
    regions: List[Tuple[int, int, str]],
) -> bool:
    rules_here = line_map.get(violation.line, ())
    if _ALL in rules_here or violation.rule in rules_here:
        return True
    return any(
        start <= violation.line <= end and rule in (_ALL, violation.rule)
        for start, end, rule in regions
    )


# ---------------------------------------------------------------------------
# Cross-file class registry (SIM008)
# ---------------------------------------------------------------------------


@dataclass
class ClassInfo:
    """What SIM008 needs to know about one class definition."""

    name: str
    has_slots: bool
    bases: Tuple[str, ...]
    exempt: bool  # NamedTuple/Enum/Exception/dataclass etc.


#: Base names whose subclasses never need __slots__ (either slotted
#: already, carry __dict__ by design, or are not hot-loop material).
_SIM008_EXEMPT_BASES = {
    "NamedTuple",
    "Enum",
    "IntEnum",
    "Flag",
    "Exception",
    "BaseException",
    "ValueError",
    "RuntimeError",
    "TypeError",
    "KeyError",
    "OSError",
    "AssertionError",
    "Protocol",
    "ABC",
    "TestCase",
    "type",
    "dict",
    "list",
    "tuple",
    "str",
}

_SIM008_EXEMPT_DECORATORS = {"dataclass", "total_ordering", "runtime_checkable"}


def _base_name(node: ast.expr) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Subscript):  # Generic[T] etc.
        return _base_name(node.value)
    return ""


def _class_info(node: ast.ClassDef) -> ClassInfo:
    has_slots = any(
        isinstance(stmt, ast.Assign)
        and any(
            isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets
        )
        for stmt in node.body
    ) or any(
        isinstance(stmt, ast.AnnAssign)
        and isinstance(stmt.target, ast.Name)
        and stmt.target.id == "__slots__"
        for stmt in node.body
    )
    bases = tuple(_base_name(b) for b in node.bases)
    deco_names = {
        _base_name(d.func) if isinstance(d, ast.Call) else _base_name(d)
        for d in node.decorator_list
    }
    exempt = bool(
        set(bases) & _SIM008_EXEMPT_BASES or deco_names & _SIM008_EXEMPT_DECORATORS
    )
    return ClassInfo(node.name, has_slots, bases, exempt)


def build_class_registry(sources: Iterable[Tuple[str, str]]) -> Dict[str, ClassInfo]:
    """Collect class definitions across *(path, source)* pairs.

    Last definition wins on a name clash — good enough for a lint whose
    purpose is flagging obvious hot-loop __dict__ churn, not type
    resolution.
    """
    registry: Dict[str, ClassInfo] = {}
    for path, source in sources:
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                registry[node.name] = _class_info(node)
    return registry


def _sim008_needs_slots(name: str, registry: Dict[str, ClassInfo]) -> bool:
    """True when *name* resolves to a project class that should be slotted."""
    info = registry.get(name)
    if info is None or info.exempt or info.has_slots:
        return False
    # Walk the base chain: an unknown base (stdlib or third-party other
    # than the exempt set) means adding __slots__ here is moot.
    seen = set()
    stack = list(info.bases)
    while stack:
        base = stack.pop()
        if not base or base in seen:
            continue
        seen.add(base)
        if base == "object":
            continue
        parent = registry.get(base)
        if parent is None:
            # Unknown (stdlib/third-party) base: it almost certainly has
            # a __dict__, so slotting the leaf would be moot — skip.
            return False
        if parent.exempt:
            return False
        if not parent.has_slots:
            # base itself is unslotted: flagging the leaf alone would be
            # misleading, but the hazard is real — still flag.
            pass
        stack.extend(parent.bases)
    return True


# ---------------------------------------------------------------------------
# The checker
# ---------------------------------------------------------------------------

_WALLCLOCK_ATTRS = {
    ("time", "time"),
    ("time", "time_ns"),
    ("time", "monotonic"),
    ("time", "monotonic_ns"),
    ("time", "perf_counter"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("datetime", "today"),
    ("date", "today"),
}

_RANDOM_FUNCS = {
    "random",
    "randint",
    "randrange",
    "uniform",
    "choice",
    "choices",
    "shuffle",
    "sample",
    "gauss",
    "expovariate",
    "seed",
    "getrandbits",
}

_SCHED_INTERNALS = {"_queue", "_eid"}

_ORDERING_FUNCS = {"sorted", "min", "max", "heappush", "heappushpop", "heapreplace"}


class _Checker(ast.NodeVisitor):
    def __init__(
        self,
        path: str,
        registry: Optional[Dict[str, ClassInfo]] = None,
        select: Optional[Set[str]] = None,
    ):
        self.path = path
        self.registry = registry or {}
        self.select = select
        self.violations: List[LintViolation] = []
        self._parents: List[ast.AST] = []
        self._loop_depth = 0
        #: names bound to the `time`/`random`/`datetime` modules or
        #: wall-clock functions by imports in this file
        self._module_aliases: Dict[str, str] = {}
        self._func_aliases: Dict[str, Tuple[str, str]] = {}

    # -- plumbing ----------------------------------------------------------

    def _emit(self, rule: str, node: ast.AST, message: str) -> None:
        if self.select is not None and rule not in self.select:
            return
        self.violations.append(
            LintViolation(
                rule=rule,
                path=self.path,
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0),
                message=message,
            )
        )

    def generic_visit(self, node: ast.AST) -> None:
        self._parents.append(node)
        try:
            super().generic_visit(node)
        finally:
            self._parents.pop()

    def _ancestors(self) -> List[ast.AST]:
        return self._parents

    # -- imports (SIM001 name tracking) ------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name in ("time", "random", "datetime"):
                self._module_aliases[alias.asname or alias.name] = alias.name
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module in ("time", "random", "datetime"):
            for alias in node.names:
                self._func_aliases[alias.asname or alias.name] = (
                    node.module,
                    alias.name,
                )
        self.generic_visit(node)

    # -- loops (SIM002 iterable + SIM008 context) --------------------------

    def _check_iteration(self, iter_node: ast.expr) -> None:
        if isinstance(iter_node, ast.Set):
            self._emit(
                "SIM002",
                iter_node,
                "iteration over a set literal — order follows PYTHONHASHSEED",
            )
        elif isinstance(iter_node, ast.Call):
            func = iter_node.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                self._emit(
                    "SIM002",
                    iter_node,
                    f"iteration over {func.id}(...) — order follows "
                    "PYTHONHASHSEED",
                )
            elif isinstance(func, ast.Attribute) and func.attr == "keys":
                self._emit(
                    "SIM002",
                    iter_node,
                    "redundant .keys() iteration — hides whether order "
                    "matters; iterate the dict (insertion order) or "
                    "sorted(d)",
                )

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter)
        self._loop_depth += 1
        try:
            self.generic_visit(node)
        finally:
            self._loop_depth -= 1

    def visit_While(self, node: ast.While) -> None:
        self._loop_depth += 1
        try:
            self.generic_visit(node)
        finally:
            self._loop_depth -= 1

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_iteration(node.iter)
        self.generic_visit(node)

    # -- defs (SIM006) ------------------------------------------------------

    def _check_defaults(self, node) -> None:
        for default in list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]:
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in ("list", "dict", "set", "bytearray")
            )
            if mutable:
                self._emit(
                    "SIM006",
                    default,
                    f"mutable default argument in {node.name}() is shared "
                    "across calls",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    # -- calls (SIM001/003/005/007/008 + heappush tuples for SIM004) -------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func

        # SIM001: wall-clock / module-level random
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            owner = self._module_aliases.get(func.value.id) or (
                "datetime"
                if self._func_aliases.get(func.value.id) == ("datetime", "datetime")
                else None
            )
            base = func.value.id if owner is None else owner
            if owner == "random" and func.attr in _RANDOM_FUNCS:
                self._emit(
                    "SIM001",
                    node,
                    f"random.{func.attr}() uses the interpreter-global "
                    "unseeded RNG",
                )
            elif (base, func.attr) in _WALLCLOCK_ATTRS and (
                owner is not None or base in ("datetime", "date")
            ):
                self._emit(
                    "SIM001",
                    node,
                    f"{func.value.id}.{func.attr}() reads the wall clock",
                )
        elif isinstance(func, ast.Name) and func.id in self._func_aliases:
            module, original = self._func_aliases[func.id]
            if (module, original) in _WALLCLOCK_ATTRS or (
                module == "random" and original in _RANDOM_FUNCS
            ):
                self._emit(
                    "SIM001",
                    node,
                    f"{func.id}() resolves to {module}.{original} "
                    "(wall clock / unseeded RNG)",
                )

        # SIM003: id() feeding an ordering construct
        if isinstance(func, ast.Name) and func.id == "id" and self._in_ordering():
            self._emit(
                "SIM003",
                node,
                "id() in an ordering key — allocator addresses are not "
                "stable across runs",
            )

        # SIM004: float arithmetic in tie-break elements of heap entries
        if isinstance(func, ast.Name) and func.id in (
            "heappush",
            "heappushpop",
            "heapreplace",
        ):
            entry = node.args[-1] if node.args else None
            if isinstance(entry, ast.Tuple):
                for element in entry.elts[1:]:
                    if self._has_float_arith(element):
                        self._emit(
                            "SIM004",
                            element,
                            "float arithmetic in a tie-break element of a "
                            "heap entry",
                        )

        # SIM007: unguarded bus publish
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "publish"
            and self._names_bus(func.value)
            and not self._publish_guarded()
        ):
            self._emit(
                "SIM007",
                node,
                "bus.publish(...) without a zero-subscriber guard "
                "constructs the event even when nobody listens",
            )

        # SIM008: hot-loop instantiation of an unslotted project class
        if (
            self._loop_depth > 0
            and isinstance(func, ast.Name)
            and _sim008_needs_slots(func.id, self.registry)
        ):
            self._emit(
                "SIM008",
                node,
                f"{func.id} is instantiated inside a loop but has no "
                "__slots__",
            )

        self.generic_visit(node)

    def _in_ordering(self) -> bool:
        """Is the current node inside a sort key / heap entry / compare?"""
        for ancestor in reversed(self._parents):
            if isinstance(ancestor, ast.Compare):
                return True
            if isinstance(ancestor, ast.Call):
                fname = (
                    ancestor.func.id
                    if isinstance(ancestor.func, ast.Name)
                    else ancestor.func.attr
                    if isinstance(ancestor.func, ast.Attribute)
                    else ""
                )
                if fname in _ORDERING_FUNCS or fname in ("schedule", "sort"):
                    return True
            if isinstance(ancestor, ast.Lambda):
                # lambda passed as key= to a sort — look one level out
                continue
        return False

    def _has_float_arith(self, node: ast.expr) -> bool:
        for sub in ast.walk(node):
            if isinstance(sub, ast.BinOp) and isinstance(
                sub.op, (ast.Add, ast.Sub, ast.Mult, ast.Div)
            ):
                for operand in (sub.left, sub.right):
                    if isinstance(operand, ast.Constant) and isinstance(
                        operand.value, float
                    ):
                        return True
        return False

    def _names_bus(self, value: ast.expr) -> bool:
        if isinstance(value, ast.Name):
            return "bus" in value.id
        if isinstance(value, ast.Attribute):
            return "bus" in value.attr
        return False

    def _publish_guarded(self) -> bool:
        """Is the publish call under an `if` testing a subscriber cache?"""
        for ancestor in reversed(self._parents):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return False
            if isinstance(ancestor, ast.If):
                for sub in ast.walk(ancestor.test):
                    if isinstance(sub, ast.Attribute) and (
                        sub.attr.startswith("_sub") or "listener" in sub.attr
                    ):
                        return True
                    if isinstance(sub, ast.Name) and (
                        sub.id.startswith("_sub")
                        or "listener" in sub.id
                        or "sub" in sub.id
                    ):
                        return True
        return False

    # -- attributes (SIM005) ------------------------------------------------

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr in _SCHED_INTERNALS and not (
            isinstance(node.value, ast.Name)
            and node.value.id in ("self", "cls")
        ):
            owner = (
                node.value.id
                if isinstance(node.value, ast.Name)
                else ast.unparse(node.value)
                if hasattr(ast, "unparse")
                else "<expr>"
            )
            self._emit(
                "SIM005",
                node,
                f"direct access to {owner}.{node.attr} bypasses "
                "Environment.schedule",
            )
        self.generic_visit(node)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def lint_source(
    source: str,
    path: str = "<string>",
    registry: Optional[Dict[str, ClassInfo]] = None,
    select: Optional[Set[str]] = None,
) -> List[LintViolation]:
    """Lint one source buffer; returns violations sorted by location.

    *registry* supplies cross-file class info for SIM008 — when omitted
    it is built from this buffer alone.  *select* restricts to a subset
    of rule ids.
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            LintViolation(
                rule="SIM000",
                path=path,
                line=exc.lineno or 0,
                col=exc.offset or 0,
                message=f"syntax error: {exc.msg}",
                why="the file does not parse; no rules were checked",
                fixit="fix the syntax error",
            )
        ]
    if registry is None:
        registry = build_class_registry([(path, source)])
    checker = _Checker(path, registry=registry, select=select)
    checker.visit(tree)
    line_map, regions = _suppressions(source)
    out = [
        v for v in checker.violations if not _is_suppressed(v, line_map, regions)
    ]
    out.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return out


# SIM000 (syntax error) participates in reporting but is not a real rule.
RULES.setdefault(
    "SIM000",
    Rule("SIM000", "syntax error", "the file does not parse", "fix the syntax"),
)


def _iter_py_files(paths: Sequence[str]) -> List[Path]:
    files: List[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        elif p.suffix == ".py":
            files.append(p)
    # de-duplicate while keeping deterministic order
    return list(dict.fromkeys(files))


def lint_paths(
    paths: Sequence[str], select: Optional[Set[str]] = None
) -> List[LintViolation]:
    """Lint every ``.py`` file under *paths* (files or directories).

    Two passes: the first builds the cross-file class registry SIM008
    needs (a class defined in one module, instantiated in a loop in
    another); the second runs the rules per file.
    """
    files = _iter_py_files(paths)
    sources: List[Tuple[str, str]] = []
    for f in files:
        try:
            sources.append((str(f), f.read_text()))
        except (OSError, UnicodeDecodeError):
            continue
    registry = build_class_registry(sources)
    violations: List[LintViolation] = []
    for path, source in sources:
        violations.extend(lint_source(source, path, registry=registry, select=select))
    return violations


# ---------------------------------------------------------------------------
# Reporters
# ---------------------------------------------------------------------------


def format_text(violations: Sequence[LintViolation]) -> str:
    """Human-readable report: location, rule, message, why, fix-it."""
    if not violations:
        return "simlint: clean"
    lines = []
    for v in violations:
        lines.append(f"{v.path}:{v.line}:{v.col}: {v.rule} {v.message}")
        lines.append(f"    why: {v.why}")
        lines.append(f"    fix: {v.fixit}")
    lines.append(f"simlint: {len(violations)} violation(s)")
    return "\n".join(lines)


def format_json(violations: Sequence[LintViolation]) -> str:
    """Machine-readable report (stable key order, sorted findings)."""
    return json.dumps([asdict(v) for v in violations], indent=2, sort_keys=True)
