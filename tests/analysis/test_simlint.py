"""simlint rule fixtures: one positive and one negative per rule.

Every SIMnnn rule gets a minimal source snippet that must trigger it
and a closely-matched snippet that must not — the negative is the
"fixed" form the rule's fix-it text recommends, so these tests also pin
that the recommended fix actually silences the rule.  Suppression
comments (trailing and region form), the SIM000 syntax-error path,
rule selection, and both reporters are covered below.
"""

import json

from repro.analysis.simlint import (
    RULES,
    build_class_registry,
    format_json,
    format_text,
    lint_paths,
    lint_source,
)


def rules_in(source, **kwargs):
    return [v.rule for v in lint_source(source, **kwargs)]


# -- SIM001: wall clock / unseeded random -----------------------------------


def test_sim001_flags_wall_clock_and_global_random():
    source = (
        "import time\n"
        "import random\n"
        "def f():\n"
        "    t = time.time()\n"
        "    r = random.random()\n"
        "    return t + r\n"
    )
    assert rules_in(source) == ["SIM001", "SIM001"]


def test_sim001_flags_from_import_alias():
    source = (
        "from time import perf_counter as tick\n"
        "def f():\n"
        "    return tick()\n"
    )
    violations = lint_source(source)
    assert [v.rule for v in violations] == ["SIM001"]
    assert "perf_counter" in violations[0].message


def test_sim001_ignores_virtual_clock_and_seeded_rng():
    source = (
        "import random\n"
        "def f(env):\n"
        "    rng = random.Random(7)\n"
        "    return env.now + rng.random()\n"
    )
    assert rules_in(source) == []


# -- SIM002: set iteration ---------------------------------------------------


def test_sim002_flags_set_literal_call_and_keys():
    source = (
        "def f(items, d):\n"
        "    for x in {1, 2, 3}:\n"
        "        pass\n"
        "    for x in set(items):\n"
        "        pass\n"
        "    return [k for k in d.keys()]\n"
    )
    assert rules_in(source) == ["SIM002", "SIM002", "SIM002"]


def test_sim002_ignores_sorted_and_fromkeys():
    source = (
        "def f(items, d):\n"
        "    for x in sorted(set(items)):\n"
        "        pass\n"
        "    for x in dict.fromkeys(items):\n"
        "        pass\n"
        "    for k in d:\n"
        "        pass\n"
    )
    assert rules_in(source) == []


# -- SIM003: id() in ordering ------------------------------------------------


def test_sim003_flags_id_in_sort_key_and_heap_entry():
    source = (
        "from heapq import heappush\n"
        "def f(items, heap, obj, t):\n"
        "    a = sorted(items, key=lambda x: id(x))\n"
        "    heappush(heap, (t, id(obj)))\n"
        "    return a\n"
    )
    assert "SIM003" in rules_in(source)
    assert rules_in(source).count("SIM003") == 2


def test_sim003_ignores_id_outside_ordering():
    source = (
        "def f(obj):\n"
        "    token = id(obj)\n"
        "    return token\n"
    )
    assert rules_in(source) == []


# -- SIM004: float arithmetic in a tie-break --------------------------------


def test_sim004_flags_float_arith_in_tiebreak():
    source = (
        "from heapq import heappush\n"
        "def f(heap, t, x):\n"
        "    heappush(heap, (t, x * 0.5))\n"
    )
    assert rules_in(source) == ["SIM004"]


def test_sim004_ignores_leading_time_and_integral_tiebreaks():
    source = (
        "from heapq import heappush\n"
        "def f(heap, t, seq):\n"
        "    heappush(heap, (t + 0.5, seq))\n"
        "    heappush(heap, (t, seq + 1))\n"
    )
    assert rules_in(source) == []


# -- SIM005: scheduling internals --------------------------------------------


def test_sim005_flags_foreign_queue_pokes():
    source = (
        "def f(env, entry):\n"
        "    env._queue.append(entry)\n"
        "    env._eid = entry\n"
    )
    assert rules_in(source) == ["SIM005", "SIM005"]


def test_sim005_ignores_self_access():
    source = (
        "class Environment:\n"
        "    def kick(self, entry):\n"
        "        self._queue.append(entry)\n"
        "        self._eid = entry\n"
    )
    assert rules_in(source) == []


# -- SIM006: mutable defaults ------------------------------------------------


def test_sim006_flags_list_dict_set_defaults():
    source = (
        "def f(xs=[], m={}):\n"
        "    pass\n"
        "def g(*, s=set()):\n"
        "    pass\n"
    )
    assert rules_in(source) == ["SIM006", "SIM006", "SIM006"]


def test_sim006_ignores_none_and_immutable_defaults():
    source = (
        "def f(xs=None, pair=(), name='x'):\n"
        "    xs = list(xs or ())\n"
        "    return xs, pair, name\n"
    )
    assert rules_in(source) == []


# -- SIM007: unguarded bus publish -------------------------------------------


def test_sim007_flags_unguarded_publish():
    source = (
        "def f(self, Evt):\n"
        "    self.bus.publish(Evt(1))\n"
    )
    assert rules_in(source) == ["SIM007"]


def test_sim007_ignores_guarded_publish():
    source = (
        "def f(self, Evt):\n"
        "    if self._sub_start:\n"
        "        self.bus.publish(Evt(1))\n"
    )
    assert rules_in(source) == []


# -- SIM008: unslotted hot-loop class ----------------------------------------


def test_sim008_flags_unslotted_class_instantiated_in_loop():
    source = (
        "class Record:\n"
        "    def __init__(self, i):\n"
        "        self.i = i\n"
        "def f():\n"
        "    for i in range(100):\n"
        "        Record(i)\n"
    )
    assert rules_in(source) == ["SIM008"]


def test_sim008_ignores_slotted_exempt_and_unlooped():
    source = (
        "from typing import NamedTuple\n"
        "from dataclasses import dataclass\n"
        "class Slotted:\n"
        "    __slots__ = ('i',)\n"
        "    def __init__(self, i):\n"
        "        self.i = i\n"
        "class Point(NamedTuple):\n"
        "    x: int\n"
        "@dataclass\n"
        "class Cfg:\n"
        "    n: int = 0\n"
        "class Plain:\n"
        "    pass\n"
        "def f():\n"
        "    for i in range(100):\n"
        "        Slotted(i)\n"
        "        Point(i)\n"
        "        Cfg(i)\n"
        "    Plain()\n"
    )
    assert rules_in(source) == []


def test_sim008_uses_cross_file_registry():
    defs = "class Other:\n    def __init__(self):\n        self.x = 1\n"
    use = "def f():\n    for i in range(10):\n        Other()\n"
    # Without the registry the class is unknown -> no finding.
    assert rules_in(use) == []
    registry = build_class_registry([("defs.py", defs), ("use.py", use)])
    assert rules_in(use, registry=registry) == ["SIM008"]


# -- suppression comments ----------------------------------------------------


def test_trailing_suppression_silences_named_rule():
    source = (
        "def f(items):\n"
        "    for x in set(items):  # simlint: disable=SIM002\n"
        "        pass\n"
    )
    assert rules_in(source) == []


def test_trailing_suppression_is_rule_specific():
    source = (
        "def f(items):\n"
        "    for x in set(items):  # simlint: disable=SIM001\n"
        "        pass\n"
    )
    assert rules_in(source) == ["SIM002"]


def test_bare_disable_suppresses_all_rules_on_line():
    source = "def f(xs=[], m={}):  # simlint: disable\n    pass\n"
    assert rules_in(source) == []


def test_region_suppression_until_enable():
    source = (
        "def f(env, entry, other):\n"
        "    # simlint: disable=SIM005\n"
        "    env._queue.append(entry)\n"
        "    # simlint: enable=SIM005\n"
        "    other._queue.append(entry)\n"
    )
    violations = lint_source(source)
    assert [(v.rule, v.line) for v in violations] == [("SIM005", 5)]


def test_unclosed_region_runs_to_end_of_file():
    source = (
        "def f(env, entry):\n"
        "    # simlint: disable=SIM005\n"
        "    env._queue.append(entry)\n"
        "    env._eid = entry\n"
    )
    assert rules_in(source) == []


# -- SIM000, selection, entry points ----------------------------------------


def test_syntax_error_reports_sim000():
    violations = lint_source("def broken(:\n", path="bad.py")
    assert len(violations) == 1
    v = violations[0]
    assert v.rule == "SIM000"
    assert v.path == "bad.py"
    assert "syntax error" in v.message


def test_select_restricts_rules():
    source = (
        "import time\n"
        "def f(items):\n"
        "    t = time.time()\n"
        "    for x in set(items):\n"
        "        pass\n"
        "    return t\n"
    )
    assert rules_in(source) == ["SIM001", "SIM002"]
    assert rules_in(source, select={"SIM002"}) == ["SIM002"]


def test_lint_paths_walks_directories(tmp_path):
    (tmp_path / "ok.py").write_text("def f(env):\n    return env.now\n")
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "bad.py").write_text(
        "def f(items):\n    for x in set(items):\n        pass\n"
    )
    violations = lint_paths([str(tmp_path)])
    assert [v.rule for v in violations] == ["SIM002"]
    assert violations[0].path.endswith("bad.py")


def test_violation_carries_why_and_fixit():
    [v] = lint_source("def f(xs=[]):\n    pass\n")
    assert v.why == RULES["SIM006"].why
    assert v.fixit == RULES["SIM006"].fixit
    assert v.line == 1 and v.col > 0


# -- reporters ---------------------------------------------------------------


def test_format_text_clean_and_with_findings():
    assert format_text([]) == "simlint: clean"
    violations = lint_source(
        "def f(items):\n    for x in set(items):\n        pass\n",
        path="mod.py",
    )
    report = format_text(violations)
    assert "mod.py:2:" in report
    assert "SIM002" in report
    assert "why:" in report and "fix:" in report
    assert "1 violation(s)" in report


def test_format_json_round_trips():
    violations = lint_source("def f(xs=[]):\n    pass\n", path="mod.py")
    payload = json.loads(format_json(violations))
    assert payload == [
        {
            "rule": "SIM006",
            "path": "mod.py",
            "line": 1,
            "col": payload[0]["col"],
            "message": payload[0]["message"],
            "why": RULES["SIM006"].why,
            "fixit": RULES["SIM006"].fixit,
        }
    ]
    assert format_json([]) == "[]"
