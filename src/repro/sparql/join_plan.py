"""The eager join's plan, fixed before any row is built.

:meth:`Execution._bgp_id_rows <repro.sparql.evaluator.Execution._bgp_id_rows>`
is the one eager ID-space join.  Everything about it that does not depend
on row counts is decided here, once per graph generation, FILTER set and
wanted set (:func:`plan_join`; the plan rides in the plan-cache entry of
its BGP).  The join starts from the empty row, so every row it builds
binds each of its variables to an ID.  The plan fixes:

* the **order** -- greedy on :func:`join_score`, a function of which
  variables are bound, so it is the same whether it is planned up front or
  a step at a time (the lazy chain orders its patterns by
  :func:`join_order` and reads nothing else here);
* per step (:class:`JoinStep`), the **checks** a candidate -- an input row
  and one match -- must pass before its row is built: the one-variable
  term-test FILTERs over a variable the step binds, and the **gate**, the
  next pattern's probe table keyed on the one variable it shares with the
  rows, which this step binds: a key missing from that table is a row the
  next inner join would drop;
* the **live columns**: a column leaves the rows after the last pattern
  that reads it, unless something above the join wants it.

**Planned once, bound per execution.**  A plan names its checks by slot
-- which FILTER, by its index in the join's filter list, and which gate
sits on which new variable -- and holds no callable derived from the
graph's content.  :func:`bind` gives one execution its steps: each FILTER's
verdict and each gate's probe table, fetched from the probe cache on every
execution, so that cache stays the only owner of tables (and its size the
memory bound) and no execution state lives in the plan.

**Order fence.**  Dropping a candidate early never reorders the survivors,
but it could change a *join kind*: a step picks INLJ or a hash join from
its input's row count, and the two emit a multi-valued match in different
orders.  So only a step after which no step but the next decides its kind
from a count may drop candidates, and that next step decides from the
candidates the dropping step met (:func:`count_up_to`).  A FILTER no step
may run is *deferred* to the join's output.

**The last step may fold.**  When the sink above keeps only keys -- a
DISTINCT without ORDER BY, or a pure-COUNT GROUP BY on exactly the last
step's ``out`` -- and no FILTER is deferred, the last step collapses its
input to distinct rows and emits each key once (DISTINCT) or with its count
(:meth:`Execution._fold_step
<repro.sparql.evaluator.Execution._fold_step>`).  It picks its join kind
from the same count as when it builds rows (:meth:`JoinStep.inlj`), and no
step after it decides anything, so the fence above is untouched.
"""

from __future__ import annotations

from itertools import compress
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

__all__ = [
    "JoinStep", "Memo", "bind", "count_up_to", "join_order", "join_score",
    "picker", "plan_join", "settled",
]


def picker(columns: Sequence[int]):
    """``row -> tuple(row[c] for c in columns)``, C-level: a slice when
    the columns are a run (a bare ``itemgetter`` of one column would
    return the value itself, not a 1-tuple)."""
    first = columns[0] if columns else 0
    if list(columns) == list(range(first, first + len(columns))):
        return itemgetter(slice(first, first + len(columns)))
    return itemgetter(*columns)


class Memo(dict):
    """``key -> fn(key)``, computed on the first lookup of each key.  Hits
    are a C-level ``dict`` subscript, so ``memo.__getitem__`` can drive
    ``filter`` / ``compress`` without a Python call per row."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def join_score(ep, bound: Set[str]) -> Tuple[float, int]:
    """The greedy join order's key: *ep*'s scan estimate, divided by 16
    for every variable already bound (*bound* holds names); ties go to the
    earlier pattern."""
    return ep.est / (16.0 ** len(ep.names & bound)), ep.index


def join_order(encoded: Sequence, bound: Set[str]) -> List:
    """The order both join pipelines run *encoded* in, given the names of
    the variables *bound* before the first pattern."""
    bound = set(bound)
    remaining = list(encoded)
    order = []
    while remaining:
        chosen = min(remaining, key=lambda ep: join_score(ep, bound))
        remaining.remove(chosen)
        order.append(chosen)
        bound |= chosen.names
    return order


def count_up_to(counts: Iterable[int], enough: float) -> int:
    """The sum of *counts*, or the first partial sum to reach *enough*."""
    total = 0
    for n in counts:
        total += n
        if total >= enough:
            break
    return total


def settled(rows: List[Tuple], checks: Dict[int, object], offset: int, pick) -> List[Tuple]:
    """*rows* whose column ``offset + i`` passes ``checks[i]`` for every
    check, in order, through *pick* (None: whole rows) -- C-level passes."""
    for index, check in checks.items():
        rows = list(compress(rows, map(check, map(itemgetter(offset + index), rows))))
    return rows if pick is None else list(map(pick, rows))


class JoinStep:
    """One pattern of the eager join.

    ``col_of`` is the layout of the rows the step receives (live variables
    only), ``shared`` / ``new_vars`` the pattern variables bound before it
    / by it.  A candidate leaves as ``keep(row)`` plus the values of
    ``new_vars[i]`` for ``i`` in ``live`` (None: the whole row / every new
    value) -- the variables of ``out`` -- and only if ``checks[i]`` holds
    for the value of ``new_vars[i]``.  ``pick`` does the same to a row
    already built as input row + every new value, ``pick_new`` to the new
    values alone.  ``decides`` says the step picks hash join or INLJ from
    its input's row count.

    The plan names the checks: ``filters[i]`` are the indices of the
    FILTERs tested on ``new_vars[i]``, ``gate`` the ``i`` the next
    pattern's probe table gates.  A planned step's ``checks`` are empty and
    its ``table`` None; :func:`bind` fills them on one execution's copy --
    ``table`` is this pattern's probe table when the step before fetched it
    as its gate.
    """

    __slots__ = (
        "ep", "shared", "new_vars", "col_of", "out", "keep", "live", "pick",
        "pick_new", "decides", "filters", "gate", "checks", "table",
    )

    def __init__(self, ep, shared, new_vars, layout, alive: Optional[Set[str]]):
        self.ep = ep
        self.shared = shared
        self.new_vars = new_vars
        self.col_of = dict(zip(layout, range(len(layout))))
        self.filters: Dict[int, Tuple[int, ...]] = {}
        self.gate: Optional[int] = None
        self.checks: Dict[int, object] = {}
        self.table = None
        self.decides = bool(shared)
        self.keep = self.live = self.pick = self.pick_new = None
        self.out = layout + new_vars
        if alive is None:
            return
        kept = [i for i, variable in enumerate(layout) if variable.name in alive]
        live = [i for i, variable in enumerate(new_vars) if variable.name in alive]
        if len(kept) + len(live) == len(self.out):
            return
        width = len(layout)
        self.out = [layout[i] for i in kept] + [new_vars[i] for i in live]
        if len(kept) < width:
            self.keep = picker(kept)
        if len(live) < len(new_vars):
            self.live = tuple(live)
            self.pick_new = picker(live)
        self.pick = picker(kept + [width + i for i in live])

    def inlj(self, count: float) -> bool:
        """Does the step probe the index per input row (INLJ) rather than
        hash-join, given the *count* of input rows the unfiltered join
        would see?  It does when its pattern matches more than four times
        *count* rows."""
        return self.ep.est > 4.0 * count

    def bound(self, checks: Dict[int, object], table) -> "JoinStep":
        """A copy of this planned step carrying one execution's *checks*
        and *table*."""
        step = JoinStep.__new__(JoinStep)
        for name in _PLANNED:
            setattr(step, name, getattr(self, name))
        step.checks = checks
        step.table = table
        return step


#: what :meth:`JoinStep.bound` copies: every slot but the bound ones
_PLANNED = tuple(name for name in JoinStep.__slots__ if name not in ("checks", "table"))


def plan_join(encoded, filters, wanted):
    """``(steps, deferred)``: the join of *encoded* from the empty row,
    planned without reading a row or fetching a table.

    *filters* are the variables of the join's term-test FILTERs, in order
    (a FILTER is named by its index there); *wanted* the variables read
    above the join (None: all of them).  ``deferred`` are the indices of
    the FILTERs no step may run.  A step is gated by the next pattern when
    that pattern shares exactly one variable with the rows, this step binds
    it and its estimate is no larger than this step's (so no whole-graph
    table is built as a gate).
    """
    bound: Set[str] = set()
    order = []
    for ep in join_order(encoded, bound):
        shared = [v for v in ep.variables if v.name in bound]
        new_vars = [v for v in ep.variables if v.name not in bound]
        bound |= ep.names
        order.append((ep, shared, [v.name for v in new_vars], new_vars))
    decides = [bool(shared) for _ep, shared, _n, _v in order]
    may_drop = [not any(decides[k + 2:]) for k in range(len(order))]

    slots: List[Dict[int, List[int]]] = [{} for _ in order]
    deferred = []
    for j, variable in enumerate(filters):
        k = next((k for k, step in enumerate(order) if variable.name in step[2]), None)
        if k is not None and may_drop[k]:
            slots[k].setdefault(order[k][2].index(variable.name), []).append(j)
        else:
            deferred.append(j)
    gates: List[Optional[int]] = [None] * len(order)
    for k in range(len(order) - 1):
        ep, _shared, new_names, _new = order[k]
        after, after_shared, _names, _after_new = order[k + 1]
        if (
            may_drop[k]
            and len(after_shared) == 1
            and after_shared[0].name in new_names
            and after.est <= ep.est
        ):
            gates[k] = new_names.index(after_shared[0].name)

    alive: List[Optional[Set[str]]] = [None] * len(order)
    if wanted is not None:
        needed = {variable.name for variable in wanted}
        needed.update(filters[j].name for j in deferred)
        for k in range(len(order) - 1, -1, -1):
            alive[k] = set(needed)
            needed |= order[k][0].names

    steps = []
    layout: List = []
    for k, (ep, shared, _names, new_vars) in enumerate(order):
        step = JoinStep(ep, shared, new_vars, layout, alive[k])
        step.filters = {index: tuple(js) for index, js in slots[k].items()}
        step.gate = gates[k]
        steps.append(step)
        layout = step.out
    return steps, tuple(deferred)


def bind(steps: Sequence[JoinStep], verdicts: Sequence, gate_table) -> List[JoinStep]:
    """One execution's steps of a plan: each step's checks are the
    *verdicts* of its FILTERs (``verdicts[j]``: FILTER *j*'s ``id ->
    passes``), then its gate, the next pattern's probe table from
    ``gate_table(ep, shared, new_vars)``, which the next step also
    probes.  A step with nothing to bind is the planned step itself."""
    out = []
    table = None
    for k, step in enumerate(steps):
        checks = {index: [verdicts[j] for j in js] for index, js in step.filters.items()}
        gate = None
        if step.gate is not None:
            after = steps[k + 1]
            gate = gate_table(after.ep, after.shared, after.new_vars)
            checks.setdefault(step.gate, []).append(gate.__contains__)
        if checks or table is not None:
            step = step.bound(
                {
                    index: (
                        predicates[0]
                        if len(predicates) == 1
                        else lambda value, ps=predicates: all(p(value) for p in ps)
                    )
                    for index, predicates in checks.items()
                },
                table,
            )
        out.append(step)
        table = gate
    return out
