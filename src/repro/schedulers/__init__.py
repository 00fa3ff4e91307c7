"""I/O schedulers: baselines from each framework plus the three split
schedulers introduced by the paper.

Block level (Linux elevator): :class:`Noop`, :class:`CFQ`,
:class:`BlockDeadline`.

System-call level (SCS): :class:`SCSToken`.

Split level: :class:`SplitNoop`, :class:`AFQ` (Actually Fair Queuing),
:class:`SplitDeadline`, :class:`SplitToken`.

Each scheduler's module is imported on first use, so a stack loads only
the scheduler it runs.
"""

from repro.lazy import lazy_exports

#: Canonical name -> scheduler class name, in registry order.  Keys
#: match each class's ``name`` attribute.
_CLASSES = {
    "noop": "Noop",
    "cfq": "CFQ",
    "block-deadline": "BlockDeadline",
    "scs-token": "SCSToken",
    "split-noop": "SplitNoop",
    "afq": "AFQ",
    "split-deadline": "SplitDeadline",
    "split-token": "SplitToken",
}

_export = lazy_exports(__name__, {
    "repro.schedulers.noop": ("Noop", "SplitNoop"),
    "repro.schedulers.cfq": ("CFQ",),
    "repro.schedulers.block_deadline": ("BlockDeadline",),
    "repro.schedulers.scs": ("SCSToken",),
    "repro.schedulers.afq": ("AFQ",),
    "repro.schedulers.split_deadline": ("SplitDeadline",),
    "repro.schedulers.split_token": ("SplitToken",),
})


def __getattr__(name: str):
    if name == "REGISTRY":
        # Canonical name -> scheduler class: the single source of truth
        # the CLI, experiments and
        # :func:`repro.experiments.common.build_stack` construct from.
        # Building it imports every scheduler.
        value = globals()["REGISTRY"] = {key: _export(cls) for key, cls in _CLASSES.items()}
        return value
    return _export(name)


def make_scheduler(name: str, **kwargs):
    """Instantiate the scheduler registered under *name*, importing its
    module only.

    Keyword arguments are forwarded to the scheduler's constructor
    (e.g. ``make_scheduler("block-deadline", read_deadline=0.05)``).
    Unknown names raise :class:`ValueError` listing the valid choices.
    """
    try:
        cls = _CLASSES[name]
    except KeyError:
        choices = ", ".join(sorted(_CLASSES))
        raise ValueError(
            f"unknown scheduler {name!r}; valid choices: {choices}"
        ) from None
    return _export(cls)(**kwargs)


__all__ = [
    "AFQ",
    "BlockDeadline",
    "CFQ",
    "Noop",
    "REGISTRY",
    "SCSToken",
    "SplitDeadline",
    "SplitNoop",
    "SplitToken",
    "make_scheduler",
]
