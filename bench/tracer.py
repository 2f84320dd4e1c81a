"""In-memory spans around the calls one phasebal module makes into another.

``Tracer.install`` replaces each listed function, in the namespace of the
module that calls it, with a wrapper that records a span: the name the caller
uses (``phasebal.cli.solve_utpf``), the layer that defines the function
(``powerflow``), start and end in ``perf_counter`` seconds, the parent span and
a few facts read off the arguments and the result. ``restore`` puts the
original functions back. Nothing inside the program changes.
"""

from __future__ import annotations

import functools
import time
import weakref
from dataclasses import dataclass, field
from types import ModuleType
from typing import Callable

import numpy as np


@dataclass
class Span:
    name: str  # module.attribute the caller looks the function up under
    layer: str  # module that defines the function
    func: str  # the function's own name
    parent: int  # index of the enclosing span, -1 at the top
    start: float
    end: float = 0.0
    info: dict[str, float | str] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _outcome_info(result) -> dict[str, float | str]:
    return {"model": result.method, "candidates": float(result.candidates)}


def _pvq_info(result) -> dict[str, float | str]:
    return {"evaluations": float(result[2]["evaluations"])}


def _utpf_info(result) -> dict[str, float | str]:
    return {"iterations": float(result.iterations)}


def _geometry_info(result) -> dict[str, float | str]:
    arrays = [v for v in vars(result).values() if isinstance(v, np.ndarray)]
    return {"nbytes": float(sum(a.nbytes for a in arrays))}


# attribute -> what to read off a finished call's result
_INFO: dict[str, Callable] = {
    "exhaustive": _outcome_info,
    "local_search": _outcome_info,
    "branch_and_bound": _outcome_info,
    "optimize_pv_q": _pvq_info,
    "solve_utpf": _utpf_info,
    "feeder_geometry": _geometry_info,
}


class Tracer:
    """Collects spans from the wrapped functions while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[ModuleType, str, object]] = []
        self._built: weakref.WeakSet = weakref.WeakSet()

    def install(self, targets: dict[ModuleType, tuple[str, ...]]) -> None:
        for module, attrs in targets.items():
            for attr in attrs:
                original = getattr(module, attr)
                self._patches.append((module, attr, original))
                setattr(module, attr, self._wrap(module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, module: ModuleType, attr: str, original):
        name = f"{module.__name__}.{attr}"
        layer = original.__module__.rsplit(".", 1)[-1]
        info = _INFO.get(attr)
        first_call_only = attr == "feeder_geometry"

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if first_call_only:
                # Later calls for the same network are cache lookups; only the
                # first one builds the geometry.
                network = args[0] if args else kwargs["network"]
                if network in self._built:
                    return original(*args, **kwargs)
                self._built.add(network)
            span = Span(name, layer, attr, self._stack[-1] if self._stack else -1, time.perf_counter())
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if info is not None:
                span.info.update(info(result))
            return result

        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so the children of a span never overlap.
    """

    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own
