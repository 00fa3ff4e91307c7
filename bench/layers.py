"""Host time per stack layer, from a cProfile of one traced run.

A function's layer is the first path component of its file under
``src/repro/`` (``proc.py`` belongs to ``syscall``; other repro modules
to ``other``), or ``driver`` for the benchmark's own files.  Code from
neither place -- C builtins and the standard library -- has no layer of
its own: its self time is charged to its callers' layers along the
profile's caller edges.  Without that, the ``list.append`` calls of
the page cache's writeback scan would land in ``other``, not ``cache``.
"""

from __future__ import annotations

import os
import pstats
from typing import Dict, Optional

LAYERS = ("sim", "syscall", "vfs", "cache", "fs", "block", "schedulers", "devices",
          "core", "obs", "driver", "other")

#: What :func:`attribute` reports for each layer.
FIELDS = ("self_s", "share", "calls_in", "us_per_call")

_REPRO_LAYERS = dict({name: name for name in LAYERS[:-2]}, **{"proc.py": "syscall"})


def layer_of(filename: str, repro_dir: str, bench_dir: str) -> Optional[str]:
    """The layer of a code file, or None for code outside the repo."""
    if filename.startswith(repro_dir):
        first = filename[len(repro_dir):].split(os.sep, 1)[0]
        return _REPRO_LAYERS.get(first, "other")
    if filename.startswith(bench_dir):
        return "driver"
    return None


def attribute(profile, repro_dir: str, bench_dir: str) -> Dict[str, float]:
    """``L.self_s``, ``L.share``, ``L.calls_in`` and ``L.us_per_call`` per layer.

    ``calls_in`` counts calls into a layer's functions from another
    layer (generator resumptions included); it depends only on the
    simulation, so it repeats exactly.
    """
    stats = pstats.Stats(profile).stats  # func -> (cc, nc, tt, ct, callers)
    repro_dir, bench_dir = os.path.join(repro_dir, ""), os.path.join(bench_dir, "")
    own = {func: layer_of(func[0], repro_dir, bench_dir) for func in stats}
    weights: Dict = {}

    def caller_layers(func) -> Dict[str, float]:
        """Layer weights of *func*: its own layer, or its callers' by call count."""
        if own.get(func):
            return {own[func]: 1.0}
        if func in weights:
            return weights[func]
        weights[func] = {"other": 1.0}  # a root, or a cycle of foreign code
        callers = stats[func][4] if func in stats else {}
        total = sum(edge[1] for edge in callers.values())
        if total:
            acc: Dict[str, float] = {}
            for caller in sorted(callers):
                for layer, w in caller_layers(caller).items():
                    acc[layer] = acc.get(layer, 0.0) + w * callers[caller][1] / total
            weights[func] = acc
        return weights[func]

    def dominant(func) -> str:
        w = caller_layers(func)
        return max(LAYERS, key=lambda layer: (w.get(layer, 0.0), -LAYERS.index(layer)))

    self_s = dict.fromkeys(LAYERS, 0.0)
    calls_in = dict.fromkeys(LAYERS, 0)
    for func in sorted(stats):
        _cc, _nc, tt, _ct, callers = stats[func]
        layer = own[func]
        if layer is not None:
            self_s[layer] += tt
            calls_in[layer] += sum(edge[1] for caller, edge in callers.items()
                                   if dominant(caller) != layer)
            continue
        charged = 0.0
        for caller in sorted(callers):
            edge_tt = callers[caller][2]
            charged += edge_tt
            for caller_layer, w in caller_layers(caller).items():
                self_s[caller_layer] += w * edge_tt
        self_s["other"] += max(0.0, tt - charged)

    total = sum(self_s.values()) or 1.0
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.share"] = self_s[layer] / total
        out[f"{layer}.calls_in"] = calls_in[layer]
        out[f"{layer}.us_per_call"] = (
            1e6 * self_s[layer] / calls_in[layer] if calls_in[layer] else 0.0
        )
    return out
