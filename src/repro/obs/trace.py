"""Deterministic tracing: sim-clock spans with stateless hashed IDs.

A trace is the span tree of one logical unit of work (a served request,
an EXPLAIN ANALYZE run, a durability checkpoint).  Determinism comes
from three rules:

1. **IDs are stateless hashes.**  ``trace_id = H(seed, key)`` and
   ``span_id = H(seed, key, path)`` where ``path`` is the ``/``-joined
   span-name path from the root (same-name siblings get a ``#k``
   ordinal).  No global counters, so IDs do not depend on how many
   other requests ran first or on which worker recorded the span.
2. **Timestamps come from the simulation clock.**  Wall time never
   leaks into a span, so a fixed config replays to byte-identical
   exports.
3. **The canonical tier is request-anchored.**  Span attributes passed
   via ``canon=`` participate in :meth:`Tracer.canonical_digest`; the
   serving layer only puts facts there that are invariant across
   scheduler parallelism (request identity, outcome or canonical result
   digest) — exactly the ``ServingReport.digest()`` contract.
   Everything else (timing, cache outcomes) is profile-tier only.

``NULL_TRACER`` is the shared disabled recorder: ``enabled`` is False
and every method is a no-op.  Hot paths guard with ``if obs.enabled:``
so the disabled cost is one attribute read; the no-op methods exist so
un-guarded cold paths stay correct.

The recorder keeps a single active-span stack.  That is safe because
the discrete-event scheduler executes requests one at a time under the
hood (its heap of worker free instants only *books* overlap);
parallelism is simulated time, not interleaved execution.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = ["Span", "Tracer", "NullTracer", "NULL_TRACER", "defer", "result_digest"]

_ID_WIDTH = 16  # hex chars kept from the sha256 digest


def _hash_id(material: str) -> str:
    return hashlib.sha256(material.encode("utf-8")).hexdigest()[:_ID_WIDTH]


class _Deferred:
    """A lazily-computed span attribute (see :func:`defer`)."""

    __slots__ = ("fn",)

    def __init__(self, fn) -> None:
        self.fn = fn


def defer(fn) -> _Deferred:
    """Wrap a zero-arg callable as a span attribute that is resolved
    (and cached in place) at export/render time.  The serve loop then
    pays one allocation instead of the computation — the scheduler uses
    this for canonical result digests, which would otherwise serialize
    every served result inside the hot path."""
    return _Deferred(fn)


def result_digest(result: Any) -> Optional[str]:
    """SHA-256 of the one canonical form of a query result: SELECT rows
    (in engine order) as sorted (name, n3) pairs, ASK as its boolean.
    Duck-typed so obs stays an import leaf.  ``ServingReport.digest()``
    hashes these per served request; the serving spans carry them in the
    canonical tier.

    Memoized on the result object: the result cache hands the *same*
    object to hundreds of hits, and results are immutable once served,
    so re-serializing every hit would dominate the cost of a digest.
    """
    if result is None:
        return None
    cached = getattr(result, "_obs_digest", None)
    if cached is not None:
        return cached
    rows = getattr(result, "rows", None)
    if rows is None:
        payload: Any = ["ask", bool(result)]
    else:
        payload = [
            "select",
            [
                [[name, row[name].n3() if row[name] is not None else None]
                 for name in sorted(row)]
                for row in rows
            ],
        ]
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()
    try:
        result._obs_digest = digest
    except AttributeError:  # __slots__ result types: just recompute
        pass
    return digest


class _TraceRef:
    """Lazy per-trace identity shared by every span of one trace.

    The trace id and the span-id prefix are stateless functions of
    ``(seed, key)``, so neither needs computing while recording — the
    first export/render/digest access materializes them once per trace.
    """

    __slots__ = ("seed", "key", "_trace_id", "_id_prefix")

    def __init__(self, seed: int, key: Any) -> None:
        self.seed = seed
        self.key = key
        self._trace_id: Optional[str] = None
        self._id_prefix: Optional[str] = None

    @property
    def trace_id(self) -> str:
        trace_id = self._trace_id
        if trace_id is None:
            trace_id = self._trace_id = _hash_id(f"{self.seed}:trace:{self.key!r}")
        return trace_id

    @property
    def id_prefix(self) -> str:
        prefix = self._id_prefix
        if prefix is None:
            prefix = self._id_prefix = f"{self.seed}:span:{self.key!r}"
        return prefix


class Span:
    """One timed node in a trace tree.

    ``attrs`` holds every attribute (profile tier); ``canon_keys`` names
    the subset that participates in the canonical digest.  ``trace_id``
    and ``span_id`` are *lazy* stateless hashes — both are fully
    determined by ``(seed, trace key, path)`` via the shared
    :class:`_TraceRef`, so they are computed on first access (export,
    render, digest) and the recording hot path pays no hashing at all.
    """

    __slots__ = (
        "ref",
        "_span_id",
        "parent",
        "name",
        "path",
        "start_ms",
        "end_ms",
        "attrs",
        "canon_keys",
    )

    def __init__(
        self,
        ref: _TraceRef,
        parent: Optional["Span"],
        name: str,
        path: str,
        start_ms: float,
    ) -> None:
        self.ref = ref
        self._span_id: Optional[str] = None
        self.parent = parent
        self.name = name
        self.path = path
        self.start_ms = start_ms
        self.end_ms: Optional[float] = None
        self.attrs: Dict[str, Any] = {}
        self.canon_keys: Tuple[str, ...] = ()

    @property
    def trace_id(self) -> str:
        return self.ref.trace_id

    @property
    def span_id(self) -> str:
        span_id = self._span_id
        if span_id is None:
            span_id = self._span_id = _hash_id(f"{self.ref.id_prefix}:{self.path}")
        return span_id

    @property
    def parent_id(self) -> Optional[str]:
        parent = self.parent
        return None if parent is None else parent.span_id

    @property
    def duration_ms(self) -> float:
        if self.end_ms is None:
            return 0.0
        return self.end_ms - self.start_ms

    def resolved_attrs(self) -> Dict[str, Any]:
        """``attrs`` with any :func:`defer`-wrapped values computed and
        cached in place."""
        attrs = self.attrs
        for key, value in attrs.items():
            if type(value) is _Deferred:
                attrs[key] = value.fn()
        return attrs

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "path": self.path,
            "start_ms": round(self.start_ms, 6),
            "end_ms": None if self.end_ms is None else round(self.end_ms, 6),
            "attrs": self.resolved_attrs(),
        }

    def canonical_dict(self) -> Dict[str, Any]:
        """The invariant projection: identity + canonical attrs, no timing."""
        attrs = self.resolved_attrs()
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "name": self.name,
            "path": self.path,
            "canon": {key: attrs[key] for key in sorted(self.canon_keys)},
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, path={self.path!r}, trace={self.trace_id})"


class _SpanContext:
    """Context manager returned by ``Tracer.span`` — ends the span even
    when the body raises, annotating the error type."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.span.attrs.setdefault("error", exc_type.__name__)
        self._tracer.end()
        return False


class NullTracer:
    """Disabled recorder: ``enabled`` is False, every method a no-op.

    Instrumented call sites guard with ``if obs.enabled:`` so the hot
    path pays one attribute read; the no-op methods keep un-guarded
    cold paths (CLI helpers, error branches) correct without spans.
    """

    enabled = False
    detail = False
    spans: Tuple[Span, ...] = ()

    def open_trace(self, key: Any, name: str, canon=None, **attrs: Any) -> None:
        return None

    def begin(self, name: str, canon=None, **attrs: Any) -> None:
        return None

    def end(self, canon=None, end_ms=None, **attrs: Any) -> None:
        return None

    def span(self, name: str, canon=None, **attrs: Any) -> "_NullSpanContext":
        return _NULL_SPAN_CONTEXT

    def event(self, name: str, start_ms=None, end_ms=None, canon=None, **attrs: Any) -> None:
        return None

    def note(self, **attrs: Any) -> None:
        return None

    def export_jsonl(self) -> str:
        return ""

    def canonical_digest(self) -> str:
        return _hash_id("null-tracer")

    def find_trace(self, key: Any) -> None:
        return None

    def render(self, trace_id: str) -> str:
        return ""


class _NullSpanContext:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN_CONTEXT = _NullSpanContext()

#: The shared disabled recorder.  Components default their ``obs``
#: attribute to this so instrumentation is zero-cost until a real
#: :class:`Tracer` (usually via ``Observatory``) is attached.
NULL_TRACER = NullTracer()


class Tracer:
    """Recording tracer.  ``seed`` feeds the ID hashes; ``clock`` (any
    object with ``now_ms``) anchors timestamps — with no clock every
    timestamp is 0.0, which EXPLAIN ANALYZE uses deliberately (the
    engine itself charges no latency; rows matter, not time).

    ``detail`` opts into the per-operator engine tier: scan/join/probe
    events that count every row flowing through the volcano pipeline.
    EXPLAIN ANALYZE forces it on; serving defaults it off because the
    per-row counting is the one instrumentation whose cost scales with
    data volume rather than request count
    (``tests/obs/test_span_budget.py`` pins the request-tier span count).
    """

    enabled = True

    __slots__ = ("seed", "clock", "detail", "spans", "_stack", "_trace_order", "_auto")

    def __init__(self, seed: int = 0, clock: Any = None, detail: bool = False) -> None:
        self.seed = seed
        self.clock = clock
        self.detail = detail
        self.spans: List[Span] = []
        # stack frames: (span, per-name child counters) — one stack is
        # enough because request execution is serialized under the hood.
        self._stack: List[Tuple[Span, Dict[str, int]]] = []
        self._trace_order: List[Tuple[Any, _TraceRef]] = []  # (key, ref) in open order
        self._auto = 0

    # -- time ---------------------------------------------------------

    def _now(self) -> float:
        clock = self.clock
        return float(clock.now_ms) if clock is not None else 0.0

    # -- recording ----------------------------------------------------

    def open_trace(self, key: Any, name: str, canon: Optional[Dict[str, Any]] = None,
                   **attrs: Any) -> Span:
        """Open a root span for ``key`` (e.g. a request's
        ``(session_id, seq)``).  The active stack must be empty."""
        if self._stack:
            raise RuntimeError(
                f"open_trace({key!r}) with active span {self._stack[-1][0].path!r}"
            )
        ref = _TraceRef(self.seed, key)
        self._trace_order.append((key, ref))
        span = Span(ref, None, name, name, self._now())
        self._apply(span, canon, attrs)
        self.spans.append(span)
        self._stack.append((span, {}))
        return span

    def begin(self, name: str, canon: Optional[Dict[str, Any]] = None, **attrs: Any) -> Span:
        """Open a child span under the current span.  With an empty
        stack this auto-opens a root trace (standalone engine use)."""
        if not self._stack:
            self._auto += 1
            return self.open_trace(("auto", self._auto), name, canon=canon, **attrs)
        parent, counts = self._stack[-1]
        ordinal = counts.get(name, 0)
        counts[name] = ordinal + 1
        leaf = name if ordinal == 0 else f"{name}#{ordinal}"
        path = f"{parent.path}/{leaf}"
        span = Span(parent.ref, parent, name, path, self._now())
        self._apply(span, canon, attrs)
        self.spans.append(span)
        self._stack.append((span, {}))
        return span

    def end(self, canon: Optional[Dict[str, Any]] = None, end_ms: Optional[float] = None,
            **attrs: Any) -> Span:
        """Close the current span.  ``end_ms`` overrides the clock —
        the scheduler needs this because it rewinds the clock after
        measuring a request's service time (as ``measure_task`` does for
        a batch task)."""
        span, _ = self._stack.pop()
        span.end_ms = self._now() if end_ms is None else float(end_ms)
        self._apply(span, canon, attrs)
        return span

    def span(self, name: str, canon: Optional[Dict[str, Any]] = None,
             **attrs: Any) -> _SpanContext:
        """``with tracer.span("endpoint.query"):`` — exception-safe."""
        return _SpanContext(self, self.begin(name, canon=canon, **attrs))

    def event(self, name: str, start_ms: Optional[float] = None,
              end_ms: Optional[float] = None, canon: Optional[Dict[str, Any]] = None,
              **attrs: Any) -> Span:
        """Record an already-closed child span without touching the
        stack.  Used where open/close bracketing is impossible (lazy
        generators that close out of order, retrospective queue waits).
        """
        span = self.begin(name, canon=canon, **attrs)
        self._stack.pop()
        if start_ms is not None:
            span.start_ms = float(start_ms)
        span.end_ms = span.start_ms if end_ms is None else float(end_ms)
        return span

    def note(self, **attrs: Any) -> None:
        """Attach attributes to the current span from deep inside the
        traced code (e.g. the endpoint noting its latency outcome)."""
        if self._stack:
            self._stack[-1][0].attrs.update(attrs)

    @staticmethod
    def _apply(span: Span, canon: Optional[Dict[str, Any]], attrs: Dict[str, Any]) -> None:
        if attrs:
            span.attrs.update(attrs)
        if canon:
            span.attrs.update(canon)
            span.canon_keys = span.canon_keys + tuple(canon)

    # -- lookup -------------------------------------------------------

    def find_trace(self, key: Any) -> Optional[str]:
        """Trace id for a key previously passed to ``open_trace``."""
        for seen_key, ref in self._trace_order:
            if seen_key == key:
                return ref.trace_id
        return None

    def spans_for(self, trace_id: str) -> List[Span]:
        return [span for span in self.spans if span.trace_id == trace_id]

    def trace_ids(self) -> List[str]:
        return [ref.trace_id for _, ref in self._trace_order]

    # -- export -------------------------------------------------------

    def export_jsonl(self) -> str:
        """Profile tier: every span, one JSON object per line, ordered
        by (start, trace, path) so a fixed config exports byte-identically."""
        ordered = sorted(self.spans, key=lambda s: (s.start_ms, s.trace_id, s.path))
        return "\n".join(
            json.dumps({"kind": "span", **span.to_dict()},
                       sort_keys=True, separators=(",", ":"))
            for span in ordered
        )

    def canonical_digest(self) -> str:
        """Digest of the invariant tier: spans carrying canonical attrs
        (the serving roots), identity + canon only, no timing."""
        rows = sorted(
            (span.canonical_dict() for span in self.spans if span.canon_keys),
            key=lambda row: (row["trace_id"], row["path"]),
        )
        blob = json.dumps(rows, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    # -- rendering ----------------------------------------------------

    def render(self, trace_id: str) -> str:
        """ASCII trace tree:

        ``request key=('s1', 0) [120.00 → 134.50ms / 14.50ms] status=ok``
        """
        spans = self.spans_for(trace_id)
        if not spans:
            return f"(no spans for trace {trace_id})"
        children: Dict[Optional[str], List[Span]] = {}
        for span in spans:
            children.setdefault(span.parent_id, []).append(span)
        for siblings in children.values():
            siblings.sort(key=lambda s: (s.start_ms, s.path))
        lines: List[str] = []

        def walk(span: Span, prefix: str, tail: str) -> None:
            lines.append(f"{prefix}{tail}{_render_span(span)}")
            kids = children.get(span.span_id, [])
            child_prefix = prefix + ("    " if tail == "└── " else "│   " if tail == "├── " else "")
            for index, kid in enumerate(kids):
                walk(kid, child_prefix, "└── " if index == len(kids) - 1 else "├── ")

        for root in children.get(None, []):
            walk(root, "", "")
        return "\n".join(lines)


def _render_span(span: Span) -> str:
    bits = [span.name]
    if span.end_ms is not None and (span.start_ms or span.end_ms):
        bits.append(f"[{span.start_ms:.2f} → {span.end_ms:.2f}ms / {span.duration_ms:.2f}ms]")
    attrs = span.resolved_attrs()
    for key in sorted(attrs):
        value = attrs[key]
        text = repr(value) if isinstance(value, str) else str(value)
        if len(text) > 60:
            text = text[:57] + "..."
        bits.append(f"{key}={text}")
    return "  ".join(bits)
