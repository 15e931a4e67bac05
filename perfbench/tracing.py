"""Span tracing of qchansim's public functions, installed from outside the package.

A span is ``[name, start_ns, end_ns, parent, item]``: the wrapped function
(``layer.function``), its monotonic-clock interval, the index of the span
that was open when it started, and the benchmark item it serves.  Every
``qchansim`` module attribute bound to a wrapped function is replaced, so
calls that cross layers (``fit_plan`` -> ``to_choi``, ``simulate_channel`` ->
``run_branch`` -> ``apply_noise``, ``gates_for_branch`` -> optics synthesis)
nest under their caller.  Nothing under ``src/`` changes and the untraced
run wraps nothing.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter, defaultdict

TARGETS = (
    ("channels", "builtin_channel"),
    ("channels", "apply_channel"),
    ("channels", "validate_channel"),
    ("channels", "to_choi"),
    ("channels", "to_affine"),
    ("decompose", "closed_form_plan"),
    ("decompose", "fit_plan"),
    ("decompose", "plan_to_channel"),
    ("optics", "dove_pair_for_ry"),
    ("optics", "euler_from_su2"),
    ("optics", "waveplates_from_euler"),
    ("circuit", "simulate_channel"),
    ("circuit", "run_branch"),
    ("circuit", "apply_noise"),
    ("circuit", "gates_for_branch"),
    ("tomography", "forward_intensities"),
    ("tomography", "reconstruct"),
    ("tomography", "fidelity"),
    ("tomography", "coherence"),
)

ITEM_SPAN = "bench.item"


def _simulate_variant(args, kwargs) -> str:
    noise = args[2] if len(args) > 2 else kwargs.get("noise")
    return ".clean" if noise is None else ".noisy"


VARIANTS = {"circuit.simulate_channel": _simulate_variant}


class NullTracer:
    """Stand-in for the untraced run: items open no span."""

    @staticmethod
    def item(item_id, tag):
        return contextlib.nullcontext()


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.item_tags: dict = {}
        self.item_id = None  # the benchmark item new spans belong to
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.item_id])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    @contextlib.contextmanager
    def item(self, item_id, tag):
        """One unit of benchmark work; the root of the spans it causes."""
        self.item_id = item_id
        self.item_tags[item_id] = tag
        try:
            with self.span(ITEM_SPAN) as idx:
                yield idx
        finally:
            self.item_id = None

    def adopt(self, child_spans, parent: int) -> None:
        """Append spans recorded by a child process under span ``parent``.

        ``perf_counter_ns`` reads the system-wide monotonic clock, so child
        and parent intervals share one time axis.
        """
        offset = len(self.spans)
        for name, start, end, child_parent, item in child_spans:
            self.spans.append([name, start, end, parent if child_parent is None else child_parent + offset, item])

    def wrap(self, name: str, fn):
        variant = VARIANTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name + variant(args, kwargs) if variant else name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def install(self) -> None:
        """Wrap every TARGETS function wherever a qchansim module binds it."""
        import qchansim  # noqa: F401  (loads every submodule)

        modules = [m for n, m in sys.modules.items() if n == "qchansim" or n.startswith("qchansim.")]
        for layer, fname in TARGETS:
            original = getattr(sys.modules[f"qchansim.{layer}"], fname)
            wrapped = self.wrap(f"{layer}.{fname}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def base_name(name: str) -> str:
    """``circuit.simulate_channel.noisy`` -> ``circuit.simulate_channel``."""
    return ".".join(name.split(".")[:2])


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def analyse(spans, item_tags) -> dict:
    """Durations per span name, self time per layer, call counts and the
    total time inside benchmark items (the denominator of self shares).

    Self time is a span's duration minus the time its direct children
    cover; spans of one thread nest, so children never overlap.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_ns[parent] += end - start
    durations = defaultdict(list)
    by_tag = defaultdict(list)
    self_ns = Counter()
    calls = Counter()
    item_ns = 0
    for idx, (name, start, end, parent, item) in enumerate(spans):
        dur = end - start
        self_ns[layer_of(name)] += dur - child_ns[idx]
        if name == ITEM_SPAN:
            item_ns += dur
            continue
        durations[name].append(dur)
        calls[name] += 1
        if name != base_name(name):
            durations[base_name(name)].append(dur)
            calls[base_name(name)] += 1
        by_tag[(base_name(name), item_tags.get(item))].append(dur)
    return {"durations": durations, "by_tag": by_tag, "self_ns": self_ns, "calls": calls, "item_ns": item_ns}


def calls_under(spans, child: str, ancestor: str) -> int:
    """Number of ``child`` spans that have an ``ancestor`` span above them."""
    count = 0
    for name, _, _, parent, _ in spans:
        if name != child:
            continue
        while parent is not None:
            if spans[parent][0] == ancestor:
                count += 1
                break
            parent = spans[parent][3]
    return count
