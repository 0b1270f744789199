"""EXPLAIN ANALYZE rendering: an executed query's operator span tree.

``QueryEngine.explain(text)`` is ``engine.execute(text, Tracer(seed=0,
detail=True))`` filled into an :class:`ExplainReport` — the annotated
plan tree (operator spans with rows-in/rows-out/tracked-state), the
execution's ``stats`` as ``exec_stats``, and the result cardinality.
The engine charges no simulated latency itself, so explain spans
deliberately carry no timestamps; rows and tracked state are the
annotations that matter.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from .trace import Tracer

__all__ = ["ExplainReport"]


class ExplainReport:
    """Holds one explained execution; ``render()`` / ``str()`` gives
    the annotated plan tree."""

    __slots__ = ("query", "strategy", "rows", "exec_stats", "tracer", "trace_id")

    def __init__(self, query: str, strategy: str, rows: Optional[int],
                 exec_stats: Dict[str, Any], tracer: Tracer, trace_id: str) -> None:
        self.query = query
        self.strategy = strategy
        self.rows = rows
        self.exec_stats = exec_stats
        self.tracer = tracer
        self.trace_id = trace_id

    def render(self) -> str:
        header = [f"EXPLAIN ANALYZE  strategy={self.strategy}"]
        for line in self.query.strip().splitlines():
            header.append(f"  | {line}")
        body = self.tracer.render(self.trace_id)
        cardinality = "ASK" if self.rows is None else f"{self.rows} rows"
        stats = "  ".join(
            f"{key}={self.exec_stats[key]}" for key in sorted(self.exec_stats)
        )
        footer = [f"result: {cardinality}"]
        if stats:
            footer.append(f"exec_stats: {stats}")
        return "\n".join(header + [body] + footer)

    def __str__(self) -> str:
        return self.render()
