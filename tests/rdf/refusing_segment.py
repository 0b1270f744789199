"""A journal segment that refuses appends: the stub two test files share."""

from __future__ import annotations


class RefusingSegment:
    """Stands in for ``Journal.wal``: lets *allow* appends through to the
    real segment, then raises ``OSError`` on every later one."""

    def __init__(self, real, allow=0):
        self.real, self.allow = real, allow

    def append(self, *record):
        if self.allow <= 0:
            raise OSError("no space left on device")
        self.allow -= 1
        self.real.append(*record)

    def close(self):
        self.real.close()
