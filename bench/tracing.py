"""Spans around calls into the program's layers, recorded from outside it.

``Tracer.install`` replaces each public function of the listed modules with
a timing wrapper, wherever a module of the package holds a reference to it:
the defining module's attribute, names other modules imported directly
(``from .report import figure_data`` in ``cli``), and the subcommand table
``cli.COMMANDS``. ``AnnotationCache.get`` and ``AnnotationCache.put`` are
wrapped on the class. Nothing under ``src/`` changes; ``uninstall`` puts
every original back.

A span is (id, parent, name, start, end, attrs). Parents come from a
per-thread stack, so spans in annotation worker threads are roots of their
own thread. Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import ModuleType

# Called once per token by build_vocabulary; its cost stays in the caller's
# self time, and a span per token would cost more than the call it times.
SKIP = {"topics.normalize_token"}


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _gibbs_attrs(args, kwargs, result) -> dict:
    state, docs = args[0], args[1]
    return {"k": state.k, "tokens": sum(len(doc) for doc in docs)}


def _cache_get_attrs(args, kwargs, result) -> dict:
    return {"hit": result is not None}


ATTRS = {
    "topics.gibbs_sweep": _gibbs_attrs,
    "annotate.AnnotationCache.get": _cache_get_attrs,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        attrs_of = ATTRS.get(name)
        spans = self.spans
        ids = self._ids
        stack_of = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                attrs = attrs_of(args, kwargs, result) if attrs_of else {}
                spans.append(Span(span_id, parent, name, start, end, attrs))

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, modules: dict[str, ModuleType]) -> None:
        """Wrap the public functions of ``modules`` (layer name -> module)."""
        wrappers: dict[int, object] = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_") and name not in SKIP):
                    wrappers[id(obj)] = self.wrap(name, obj)
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._set(module, attr, wrappers[id(obj)])
        commands = modules["cli"].COMMANDS
        for command, fn in list(commands.items()):
            self._undo.append((commands, command, fn))
            commands[command] = wrappers[id(fn)]
        cache = modules["annotate"].AnnotationCache
        for method in ("get", "put"):
            self._set(cache, method, self.wrap(f"annotate.AnnotationCache.{method}",
                                               getattr(cache, method)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    def write(self, path: Path) -> None:
        with Path(path).open("w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "parent": s.parent, "name": s.name,
                    "start": s.start, "end": s.end, **s.attrs,
                }) + "\n")


def self_time(span: Span, children: list[Span]) -> float:
    """The span's duration minus the part of it its children cover."""
    covered = 0.0
    edge = span.start
    for child in sorted(children, key=lambda c: c.start):
        start, end = max(child.start, edge), min(child.end, span.end)
        if end > start:
            covered += end - start
            edge = end
    return span.duration - covered
