"""In-memory span recorder that times calls into the verifier's layers.

The recorder never edits ``src/``: it replaces public functions and methods
on the module or class attribute the caller actually looks up, records one
span per call (name, start, end, parent span, query id), and puts every
attribute back on :meth:`Recorder.restore`.  A layer's *self time* is its
span's duration minus the time its direct child spans cover; whatever a
query's root span does not hand to a child is reported as ``other``, so the
layers of one query always add up to that query's traced time.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

#: The root span of one query; its self time is the ``other`` layer.
ROOT = "query"


class Recorder:
    def __init__(self) -> None:
        #: ``[name, start, end, parent_index, query_id]`` per span.
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._undo: List[tuple] = []
        self.query: Optional[object] = None

    # -- recording -------------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.query])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    @contextmanager
    def root(self, query_id):
        """The span of one whole query; nested layer spans attach to it.

        A workload's set-up before its queries is traced as a root too, so
        the layers it crosses are counted.
        """
        self.query = query_id
        try:
            with self.span(ROOT):
                yield
        finally:
            self.query = None

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        traced.__wrapped__ = fn
        return traced

    # -- patching --------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_function(self, name: str, original: Callable) -> None:
        """Replace ``original`` on every loaded ``repro`` module holding it.

        ``from x import f`` binds ``f`` in the importer's namespace, so the
        caller looks the function up on its *own* module; patching only the
        defining module would miss it.
        """
        traced = self.wrap(name, original)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, traced)

    def patch_method(self, name: str, cls: type, attr: str) -> None:
        self._set(cls, attr, self.wrap(name, cls.__dict__[attr]))

    def patch_first_access(self, name: str, cls: type, attr: str, slot: str) -> None:
        """Time a lazy property only on the access that fills ``slot``."""
        getter = cls.__dict__[attr].fget

        def traced(obj):
            if getattr(obj, slot) is not None:
                return getter(obj)
            index = self._open(name)
            try:
                return getter(obj)
            finally:
                self._close(index)

        self._set(cls, attr, property(traced))

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- analysis --------------------------------------------------------------

    def per_query(self) -> Dict[object, Dict[str, float]]:
        """Self seconds per layer for every query; ``ROOT`` holds its total.

        The layer self times of a query (``other`` included) sum to its
        root span's duration exactly, by construction.
        """
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        queries: Dict[object, Dict[str, float]] = {}
        for index, (name, start, end, parent, query) in enumerate(self.spans):
            if query is None:
                continue
            layers = queries.setdefault(query, {})
            self_time = end - start - covered[index]
            layer = "other" if name == ROOT else name
            layers[layer] = layers.get(layer, 0.0) + self_time
            if name == ROOT:
                layers[ROOT] = end - start
        return queries

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "query"], "spans": self.spans},
                handle,
            )


def install(recorder: Recorder) -> None:
    """Wrap the public entry point of every layer the benchmark reports."""
    import repro.service.server  # noqa: F401  (load every patched module)
    import repro.verification.parallel  # noqa: F401
    from repro.encoding.encoder import TraceEncoder
    from repro.program.interpreter import run_program
    from repro.service import pool, protocol
    from repro.service.server import VerificationService
    from repro.trace.fingerprint import trace_fingerprint
    from repro.verification.cache import ResultCache
    from repro.verification.session import VerificationSession

    recorder.patch_function("record", run_program)
    recorder.patch_function("fingerprint", trace_fingerprint)
    recorder.patch_function("registry", pool.build_program)
    for frame_fn in (
        protocol.encode_frame,
        protocol.decode_frame,
        protocol.result_to_payload,
    ):
        recorder.patch_function("service.frame", frame_fn)
    recorder.patch_method("encode", TraceEncoder, "encode")
    recorder.patch_first_access("load", VerificationSession, "backend", "_backend")
    recorder.patch_method("solve", VerificationSession, "verdict")
    recorder.patch_method("cache.lookup", ResultCache, "lookup")
    recorder.patch_method("cache.store", ResultCache, "store")
    recorder.patch_method("service.handle", VerificationService, "handle_json")
