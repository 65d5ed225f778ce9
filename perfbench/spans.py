"""Spans around the program's public functions, recorded from outside.

:class:`Tracer` swaps each traced function for a wrapper in every ``eunet``
module that holds a reference to it (and on the ``Network`` class for the
two methods), so nested calls inside the program become child spans:
``run_command`` -> ``parse_network`` -> ``build_network``, or
``optimal_decision`` -> ``conditional_event_utility``.  A span is a tuple
``(name, start_ns, end_ns, parent, bytes)``; spans stay in memory until the
run writes them out.

With ``memory=True`` each span also records the ``tracemalloc`` peak above
its start, in bytes.  That pass is kept apart from the timed ones, because
tracemalloc slows every allocation.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
import tracemalloc
import weakref

# (layer, module, attribute); a dotted attribute is a method.
TRACED = (
    ("formats", "eunet.formats", "parse_network"),
    ("formats", "eunet.formats", "serialize_network"),
    ("formats", "eunet.formats", "parse_bayes_net"),
    ("formats", "eunet.formats", "bn_to_eun"),
    ("model", "eunet.model", "build_network"),
    ("model", "eunet.model", "Network.ratio_tables"),
    ("model", "eunet.model", "Network.imap_report"),
    ("inference", "eunet.inference", "event_utility"),
    ("inference", "eunet.inference", "conditional_event_utility"),
    ("inference", "eunet.inference", "conditional_probability"),
    ("inference", "eunet.inference", "value"),
    ("independence", "eunet.independence", "eu_independent_vars"),
    ("independence", "eunet.independence", "eu_independent_events"),
    ("decision", "eunet.decision", "optimal_decision"),
    ("decision", "eunet.decision", "build_vickrey_auction"),
    ("decision", "eunet.decision", "auction_best_response"),
    ("cli", "eunet.cli", "run_command"),
)
LAYER_OF = {attr.rsplit(".", 1)[-1]: layer for layer, _, attr in TRACED}
HARNESS = "harness"
PROGRAM_LAYERS = ("formats", "model", "inference", "independence", "decision", "cli")

NAME, START, END, PARENT, BYTES = range(5)


def _document_bytes(args: tuple, kwargs: dict, result: object) -> int:
    return len(args[0].encode()) if args and isinstance(args[0], str) else 0


def _text_bytes(args: tuple, kwargs: dict, result: object) -> int:
    return len(result.encode()) if isinstance(result, str) else 0


# What each function counts at its boundary: document text in or out.  Cold
# ratio_tables calls count the table they build (``Tracer._cold_table_bytes``).
COUNTED = {
    "parse_network": _document_bytes,
    "parse_bayes_net": _document_bytes,
    "serialize_network": _text_bytes,
}


class Tracer:
    def __init__(self, memory: bool = False) -> None:
        self.memory = memory
        # A span is reserved as None when it opens and becomes a tuple of
        # ints and a str when it closes; such tuples drop out of the garbage
        # collector's tracking, so a long run stays cheap to collect.
        self.spans: list = []
        self.peaks: list[int] = []
        self._stack: list[int] = []
        self._mem_stack: list[list[int]] = []
        self._saved: list[tuple[object, str, object]] = []
        self._counted = {**COUNTED, "ratio_tables": self._cold_table_bytes}
        # id(network) -> (weak reference, layers seen); the first
        # ratio_tables call per network and layer builds the table.
        self._seen: dict[int, tuple[weakref.ref, set[str]]] = {}

    # -- span recording ------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        """One span around ``fn(*args, **kwargs)``."""
        return self._wrapper(name, fn)(*args, **kwargs)

    def _wrapper(self, name: str, fn):
        """``fn`` recording one span per call.

        The only place spans are recorded.  The recording is written out in
        the closure, with the tracer's fields bound to locals, rather than
        calling a shared method: on ``small-sweep`` (about 19 spans on a
        0.16 ms op) that lowers ``trace.overhead_share`` from about 0.26 to
        0.21.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        counter = self._counted.get(name)
        memory = self.memory

        def wrapped(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            if memory:
                self._mem_enter()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if memory:
                    self._mem_exit(idx)
                spans[idx] = (name, start, end, parent, 0)
            if counter is not None:
                spans[idx] = (name, start, end, parent, counter(args, kwargs, result))
            return result

        wrapped.__wrapped__ = fn
        return wrapped

    def _cold_table_bytes(self, args: tuple, kwargs: dict, result) -> int:
        """``nbytes`` of the table when this is the first ``ratio_tables``
        call for its network and layer, else 0."""
        net = args[0]
        layer = args[1] if len(args) > 1 else kwargs["layer"]
        entry = self._seen.get(id(net))
        if entry is None or entry[0]() is not net:
            entry = self._seen[id(net)] = (weakref.ref(net), set())
        if layer in entry[1]:
            return 0
        entry[1].add(layer)
        return result.nbytes

    def _mem_enter(self) -> None:
        current, peak = tracemalloc.get_traced_memory()
        if self._mem_stack:
            frame = self._mem_stack[-1]
            frame[1] = max(frame[1], peak)
        tracemalloc.reset_peak()
        self._mem_stack.append([current, current])

    def _mem_exit(self, idx: int) -> None:
        start, seen = self._mem_stack.pop()
        peak = max(seen, tracemalloc.get_traced_memory()[1])
        while len(self.peaks) <= idx:
            self.peaks.append(0)
        self.peaks[idx] = peak - start
        if self._mem_stack:
            frame = self._mem_stack[-1]
            frame[1] = max(frame[1], peak)

    # -- installing the wrappers -----------------------------------------------

    def install(self) -> None:
        if self._saved:
            return
        modules = [m for n, m in sys.modules.items() if n == "eunet" or n.startswith("eunet.")]
        for _, modname, attr in TRACED:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._saved.append((cls, meth, original))
                setattr(cls, meth, self._wrapper(meth, original))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrapper(attr, original)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapped)
        if self.memory:
            tracemalloc.start()

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()
        if self.memory:
            tracemalloc.stop()

    # -- reading the spans ---------------------------------------------------------

    def children_time(self) -> list[int]:
        covered = [0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                covered[s[PARENT]] += s[END] - s[START]
        return covered

    def self_ns(self, first: int = 0) -> dict[str, int]:
        """Self time per layer over spans ``first`` onward; ``op`` spans and
        any other name not traced in the program count as the harness."""
        covered = self.children_time()
        out: dict[str, int] = {}
        for k in range(first, len(self.spans)):
            s = self.spans[k]
            layer = LAYER_OF.get(s[NAME], HARNESS)
            out[layer] = out.get(layer, 0) + (s[END] - s[START]) - covered[k]
        return out

    def dump(self, path: str, meta: dict) -> None:
        names = sorted({s[NAME] for s in self.spans})
        code = {n: k for k, n in enumerate(names)}
        body = {
            **meta,
            "span_fields": ["name", "start_ns", "end_ns", "parent", "bytes"],
            "names": names,
            "spans": [[code[s[NAME]], s[START], s[END], s[PARENT], s[BYTES]] for s in self.spans],
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(body, fh, separators=(",", ":"))
