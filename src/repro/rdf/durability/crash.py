"""Deterministic crash-point injection for the durability layer.

The writer paths (`snapshot.py`, `wal.py`, `manifest.py`, `store.py`) call
:meth:`CrashInjector.boundary` at every durability-relevant instant -- just
before bytes are written, after a *partial* prefix of a record has reached
the file (the torn-write window), and after the bytes are flushed.  A
boundary either returns or raises :class:`CrashPoint`, which models the
process dying at exactly that instant: whatever was flushed before the
boundary is on disk, nothing after it is.

Decisions are stateless hashes of ``(seed, op, sequence)``, so a crash
timeline is a pure value of the seed -- reproducible across runs and
machines, no RNG object threading.  Two modes:

* ``crash_at=K`` -- crash at the K-th boundary reached.  The recovery
  harness does a dry run (``crash_at=None``) to count boundaries, then
  sweeps K over every one of them.
* ``p_crash=p`` with a ``seed`` -- each boundary independently crashes
  with probability *p* via the stateless hash, for randomized soak tests.

``ops`` optionally restricts crashing to boundaries whose label starts
with one of the given prefixes (e.g. ``("manifest-swap",)``).
"""

from __future__ import annotations

import hashlib
from typing import Iterable, List, Optional, Tuple

__all__ = ["CrashInjector", "CrashPoint"]


class CrashPoint(RuntimeError):
    """An injected crash: the simulated process died at *op* / *sequence*."""

    def __init__(self, op: str, sequence: int):
        super().__init__(f"injected crash at boundary {sequence} ({op})")
        self.op = op
        self.sequence = sequence


class CrashInjector:
    """Raise :class:`CrashPoint` at deterministically-chosen boundaries."""

    __slots__ = ("seed", "p_crash", "crash_at", "ops", "sequence", "trace")

    def __init__(
        self,
        seed: int = 0,
        p_crash: float = 0.0,
        crash_at: Optional[int] = None,
        ops: Optional[Iterable[str]] = None,
    ):
        self.seed = seed
        self.p_crash = p_crash
        self.crash_at = crash_at
        self.ops: Optional[Tuple[str, ...]] = tuple(ops) if ops is not None else None
        self.sequence = 0
        #: every boundary reached, in order: ``[(sequence, op), ...]``
        self.trace: List[Tuple[int, str]] = []

    def draw(self, op: str, sequence: int) -> float:
        """Uniform [0, 1) hash of (seed, op, sequence) -- stateless."""
        digest = hashlib.sha256(
            f"{self.seed}:{op}:{sequence}".encode("utf-8")
        ).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    def boundary(self, op: str) -> None:
        """Record one durability boundary; raise if this is the crash."""
        sequence = self.sequence
        self.sequence += 1
        self.trace.append((sequence, op))
        if self.ops is not None and not op.startswith(self.ops):
            return
        if self.crash_at is not None:
            if sequence == self.crash_at:
                raise CrashPoint(op, sequence)
            return
        if self.p_crash > 0.0 and self.draw(op, sequence) < self.p_crash:
            raise CrashPoint(op, sequence)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CrashInjector seed={self.seed} crash_at={self.crash_at} "
            f"p_crash={self.p_crash} at={self.sequence}>"
        )


def boundary(injector: Optional[CrashInjector], op: str) -> None:
    """`injector.boundary(op)` tolerating ``injector=None`` (the fast path)."""
    if injector is not None:
        injector.boundary(op)
