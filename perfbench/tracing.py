"""In-memory span tracing, installed from outside the program.

A :class:`Tracer` replaces public functions and methods of the
``repro`` layers with wrappers that record one span per call: name,
start, end, parent span and thread.  Spans stay in a list until the
run ends and :meth:`Tracer.write` puts them in a JSON-lines file.
Nothing under ``src/`` knows about the tracer; :meth:`Tracer.restore`
puts every original back, so one process can alternate traced and
untraced iterations to price the tracing itself.

:func:`install_layers` is the table of which public entry point
feeds which per-layer metric (see ``perfbench/README.md``).
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict

_STACK: contextvars.ContextVar[tuple[int, ...]] = contextvars.ContextVar(
    "perfbench_span_stack", default=()
)


class Tracer:
    """Records spans around wrapped callables; see module docstring."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        """``(id, name, start, end, parent_id, thread_id, cpu_s)``."""
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._names: dict[int, str] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> tuple[int, int | None, contextvars.Token]:
        stack = _STACK.get()
        span_id = next(self._ids)
        self._names[span_id] = name
        token = _STACK.set(stack + (span_id,))
        return span_id, (stack[-1] if stack else None), token

    def _close(self, span_id, parent, token, name, start, cpu=None) -> None:
        end = time.perf_counter()
        _STACK.reset(token)
        self.spans.append(
            (span_id, name, start, end, parent, threading.get_ident(), cpu)
        )

    def _nested_in_same(self, name: str) -> bool:
        stack = _STACK.get()
        return bool(stack) and self._names.get(stack[-1]) == name

    def record(self, name: str, start: float, end: float) -> None:
        """Add a span measured by the caller (e.g. a queue wait)."""
        stack = _STACK.get()
        self.spans.append(
            (next(self._ids), name, start, end,
             stack[-1] if stack else None, threading.get_ident(), None)
        )

    def count(self, name: str, amount: float = 1.0) -> None:
        """Add *amount* to a named counter (board threads share it)."""
        with self._lock:
            self.counters[name] += amount

    # -- wrapping ------------------------------------------------------------

    def patch(self, owner, attr: str, wrapper) -> None:
        """Set ``owner.attr`` to *wrapper* until :meth:`restore`."""
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def wrap(self, owner, attr: str, name, *, observe=None) -> None:
        """Time every call of ``owner.attr`` as a span called *name*.

        *name* may be a callable ``(args, kwargs) -> str`` for spans
        named per call (one per fabric op).  *observe*, when given, is
        called as ``observe(tracer, args, kwargs, result)`` after each
        call that returned.  A call nested directly inside a span of the
        same name (``identify`` delegating to ``identify_buffer``)
        records no second span.
        """
        function = owner.__dict__[attr]
        tracer = self
        namer = name if callable(name) else (lambda args, kwargs: name)

        if inspect.iscoroutinefunction(function):
            @functools.wraps(function)
            async def wrapper(*args, **kwargs):
                span_name = namer(args, kwargs)
                if tracer._nested_in_same(span_name):
                    return await function(*args, **kwargs)
                span_id, parent, token = tracer._open(span_name)
                start = time.perf_counter()
                try:
                    result = await function(*args, **kwargs)
                finally:
                    tracer._close(span_id, parent, token, span_name, start)
                if observe is not None:
                    observe(tracer, args, kwargs, result)
                return result
        elif inspect.isgeneratorfunction(function):
            # One span per resumption, closed before each yield, so the
            # consumer's work between items is not charged here.  CPU
            # time rides along to split busy from waiting.
            @functools.wraps(function)
            def wrapper(*args, **kwargs):
                span_name = namer(args, kwargs)
                generator = function(*args, **kwargs)
                while True:
                    span_id, parent, token = tracer._open(span_name)
                    start = time.perf_counter()
                    cpu = time.thread_time()
                    try:
                        item = next(generator)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(span_id, parent, token, span_name,
                                      start, time.thread_time() - cpu)
                    yield item
        else:
            @functools.wraps(function)
            def wrapper(*args, **kwargs):
                span_name = namer(args, kwargs)
                if tracer._nested_in_same(span_name):
                    return function(*args, **kwargs)
                span_id, parent, token = tracer._open(span_name)
                start = time.perf_counter()
                try:
                    result = function(*args, **kwargs)
                finally:
                    tracer._close(span_id, parent, token, span_name, start)
                if observe is not None:
                    observe(tracer, args, kwargs, result)
                return result

        self.patch(owner, attr, wrapper)

    def wrap_function(self, function, name) -> None:
        """Wrap a module-level function at every ``repro`` module that
        bound it (``from x import f`` copies the reference)."""
        holders = [
            module
            for module_name, module in list(sys.modules.items())
            if module_name.startswith("repro")
            and getattr(module, function.__name__, None) is function
        ]
        for module in holders:
            self.wrap(module, function.__name__, name)

    def restore(self) -> None:
        """Put every wrapped callable back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reporting -----------------------------------------------------------

    def write(self, path, **extra) -> None:
        """Write every span (one JSON object per line) plus counters."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"counters": dict(self.counters),
                                     **extra}) + "\n")
            for span_id, name, start, end, parent, thread, cpu in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "thread": thread, "cpu_s": cpu,
                }) + "\n")


def summarize(span_lists: list[list[tuple]]) -> dict[str, dict]:
    """Per span name: call count, p50, total, self and CPU time (s).

    Self time is a span's duration minus the durations of the spans
    whose parent it is.  Each list comes from one process, since span
    ids are only unique within the process that recorded them.
    """
    durations: dict[str, list[float]] = defaultdict(list)
    selfs: dict[str, float] = defaultdict(float)
    cpus: dict[str, float] = defaultdict(float)
    for spans in span_lists:
        child_time: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _, _ in spans:
            if parent is not None:
                child_time[parent] += end - start
        for span_id, name, start, end, _, _, cpu in spans:
            durations[name].append(end - start)
            selfs[name] += (end - start) - child_time.get(span_id, 0.0)
            if cpu is not None:
                cpus[name] += cpu
    return {
        name: {
            "count": len(values),
            "p50_s": statistics.median(values),
            "total_s": sum(values),
            "self_s": selfs[name],
            "cpu_s": cpus.get(name, 0.0),
        }
        for name, values in durations.items()
    }


def read_spans(path) -> tuple[list[tuple], dict[str, float]]:
    """Load a :meth:`Tracer.write` file back as (spans, counters)."""
    with open(path, encoding="utf-8") as handle:
        header = json.loads(handle.readline())
        spans = [
            (row["id"], row["name"], row["start"], row["end"],
             row["parent"], row["thread"], row["cpu_s"])
            for row in map(json.loads, handle)
        ]
    return spans, header["counters"]


def install_layers(tracer: Tracer) -> None:
    """Wrap the public entry point of every layer the metrics name.

    Imports are local, so importing this module costs untraced runs
    nothing.
    """
    from repro.attack.addressing import AddressHarvester, TranslationCache
    from repro.attack.carving import DumpCartographer
    from repro.attack.extraction import MemoryScraper
    from repro.attack.identify import ModelIdentifier, SignatureDatabase
    from repro.attack.pipeline import MemoryScrapingAttack
    from repro.attack.reconstruct import ImageReconstructor
    from repro.campaign import engine
    from repro.campaign.runtime.checkpoint import RunDirectory
    from repro.campaign.runtime.executors import AnalysisPool
    from repro.campaign.runtime.fabric import FabricClient, FabricCoordinator
    from repro.campaign.runtime.spool import DumpSpool
    from repro.campaign.worker import BoardWorker
    from repro.hw.dpu import DpuCore
    from repro.mmu.address_space import AddressSpace
    from repro.petalinux.kernel import PetaLinuxKernel
    from repro.petalinux.sanitizer import Sanitizer
    from repro.service import analysis as service_analysis
    from repro.service.client import AsyncServiceClient
    from repro.utils.buffers import BufferPool
    from repro.utils.hexdump import HexDump
    from repro.vitis.app import VictimApplication

    import repro.defense.arena as arena
    import repro.service.daemon  # noqa: F401 — binds analyze_dump

    wrap = tracer.wrap
    wrap(arena, "prepare_weight_probe", "defense.probe_prep")
    wrap(BoardWorker, "iter_waves", "campaign.board_wave")
    tracer.wrap_function(engine.prepare_offline, "campaign.prep")

    wrap(VictimApplication, "launch", "vitis.launch")
    wrap(DpuCore, "run", "hw.dpu_run")
    wrap(AddressSpace, "add_vma", "mmu.map")
    wrap(AddressSpace, "brk", "mmu.map")
    wrap(PetaLinuxKernel, "spawn", "petalinux.spawn")
    wrap(PetaLinuxKernel, "exit_process", "petalinux.terminate")
    wrap(Sanitizer, "tick", "petalinux.scrub_tick")

    def count_lookup(tracer, args, kwargs, result):
        tracer.count("attack.translation_lookups")
        if result is not None:
            tracer.count("attack.translation_hits")

    wrap(MemoryScrapingAttack, "observe_victim", "attack.observe")
    wrap(MemoryScrapingAttack, "harvest_addresses", "attack.harvest")
    wrap(AddressHarvester, "harvest", "attack.harvest")
    wrap(TranslationCache, "lookup", "attack.translation_lookup",
         observe=count_lookup)
    wrap(MemoryScrapingAttack, "extract", "attack.extract")
    wrap(MemoryScraper, "scrape", "attack.extract")

    # Every board owns its pool, so reading ``reuses`` around the call
    # counts exactly this acquisition's reuse.
    acquire = BufferPool.acquire

    def counted_acquire(pool, nbytes):
        before = pool.reuses
        buffer = acquire(pool, nbytes)
        tracer.count("attack.buffer_acquires")
        tracer.count("attack.buffer_reuses", pool.reuses - before)
        return buffer

    tracer.patch(BufferPool, "acquire", counted_acquire)

    wrap(ModelIdentifier, "identify", "attack.identify")
    wrap(ModelIdentifier, "identify_buffer", "attack.identify")
    wrap(SignatureDatabase, "match", "analysis.match")
    wrap(ImageReconstructor, "reconstruct", "attack.reconstruct")
    wrap(HexDump, "marker_run_rows", "utils.marker_rows")

    def count_mapped(tracer, args, kwargs, result):
        tracer.count("analysis.map_dump_bytes", len(args[1]))

    wrap(DumpCartographer, "map_dump", "analysis.map_dump",
         observe=count_mapped)

    def count_spool(tracer, args, kwargs, result):
        tracer.count("runtime.spool_puts")
        if result.deduplicated:
            tracer.count("runtime.spool_dedups")

    wrap(RunDirectory, "append_wave", "runtime.journal_append")
    wrap(DumpSpool, "put", "runtime.spool_put", observe=count_spool)
    wrap(DumpSpool, "put_bytes", "runtime.spool_put", observe=count_spool)

    def fabric_op(args, kwargs):
        return f"fabric.op.{args[1]}"

    def count_wire(tracer, args, kwargs, result):
        # Both ends frame with json.dumps(sort_keys=True) plus a
        # newline, so re-serializing gives the exact bytes on the wire.
        request = json.dumps({"op": args[1], **kwargs}, sort_keys=True)
        response = json.dumps(result, sort_keys=True)
        tracer.count("fabric.wire_bytes", len(request) + len(response) + 2)

    wrap(FabricClient, "request", fabric_op, observe=count_wire)
    wrap(FabricCoordinator, "close", "fabric.close")

    def service_op(args, kwargs):
        # put_dump's own request nests in its span and is not repeated.
        return f"service.{args[1]}"

    def count_refusal(tracer, args, kwargs, result):
        if not result.get("ok") and result.get("code") == "backpressure":
            tracer.count("service.backpressure_refusals")

    wrap(AsyncServiceClient, "put_dump", "service.put_dump")
    wrap(AsyncServiceClient, "request", service_op, observe=count_refusal)
    tracer.wrap_function(service_analysis.analyze_dump, "service.analyze")

    # Queue wait: from try_submit until a pool thread starts the job.
    try_submit = AnalysisPool.try_submit

    def timed_submit(pool, fn, on_done):
        queued = time.perf_counter()

        def run():
            tracer.record("service.queue_wait", queued, time.perf_counter())
            return fn()

        return try_submit(pool, run, on_done)

    tracer.patch(AnalysisPool, "try_submit", timed_submit)
