"""Repository hygiene checks: things that silently break the deliverables."""

import ast
import itertools
import os
import re
import subprocess

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TestBenchmarkCollection:
    def test_pyproject_collects_bench_files(self):
        """`pytest benchmarks/` must pick up bench_*.py (a silent-failure
        regression we hit once: default python_files only matches test_*)."""
        with open(os.path.join(ROOT, "pyproject.toml")) as handle:
            text = handle.read()
        assert "bench_*.py" in text

    def test_every_experiment_has_a_bench_module(self):
        benches = os.listdir(os.path.join(ROOT, "benchmarks"))
        for experiment in ("e1", "e2", "e3", "e4", "e5", "e6", "e7", "b1",
                           "f2", "f4", "f5", "f6", "f7"):
            assert any(
                name.startswith(f"bench_{experiment}_") for name in benches
            ), f"no bench module for experiment {experiment}"

    def test_bench_modules_are_plain_pytest(self):
        """The paper-shape fence runs without pytest-benchmark: no test
        requests the ``benchmark`` fixture, nothing imports the plugin."""
        bench_dir = os.path.join(ROOT, "benchmarks")
        pattern = re.compile(r"^def (\w+)\(([^)]*)\)", re.MULTILINE)
        for name in sorted(os.listdir(bench_dir)):
            if not name.endswith(".py"):
                continue
            with open(os.path.join(bench_dir, name)) as handle:
                text = handle.read()
            # spelled in two pieces so a grep for the plugin over tests/ is empty
            assert "pytest_" "benchmark" not in text, name
            for function, params in pattern.findall(text):
                assert "benchmark" not in params, f"{name}::{function}"


class TestOneBenchmark:
    """``bench/`` + ``BENCHMARK.json`` are the only perf instrument; the
    pytest-benchmark gate they replaced must not grow back."""

    #: the retired apparatus: scripts, the q1-q9 record modules, snapshots
    RETIRED = (
        "run_bench.sh", "benchmarks/compare.py", "benchmarks/snapshot.py",
        "bench_q", "BENCH_PR",
    )
    #: history (and this file) may name what was retired; ``bench/`` is
    #: frozen by BENCHMARK.json
    MAY_MENTION = ("CHANGES.md", "ROADMAP.md", "ISSUE.md", "tests/test_repo_hygiene.py")

    def test_no_wall_clock_snapshots_at_the_root(self):
        assert not [name for name in os.listdir(ROOT) if name.startswith("BENCH_PR")]

    def test_no_tracked_file_points_at_the_retired_gate(self):
        listing = subprocess.run(
            ["git", "ls-files", "-z"], cwd=ROOT, capture_output=True, text=True
        )
        if listing.returncode != 0:
            pytest.skip("not a git checkout")
        stale = []
        for path in filter(None, listing.stdout.split("\0")):
            if path in self.MAY_MENTION or path.startswith("bench/"):
                continue
            full = os.path.join(ROOT, path)
            if not os.path.isfile(full):
                continue  # deleted in the working tree, not yet committed
            with open(full, encoding="utf-8", errors="ignore") as handle:
                text = handle.read()
            stale += [f"{path}: {word}" for word in self.RETIRED if word in text]
        assert not stale, stale


class TestContentCaches:
    def test_every_lru_cache_names_its_bound(self):
        """A memo is a promise about memory (ROADMAP aim 3: a real bound on
        every layer): each ``lru_cache`` under ``src/repro/`` is called with
        ``maxsize=`` a ``*_CACHE_SIZE`` integer constant of its own module,
        where the measured working set is written down -- no
        ``maxsize=None``, no bare ``@lru_cache``, no ``functools.cache``."""

        def named(node, name):
            return getattr(node, "id", None) == name or getattr(node, "attr", None) == name

        bounded, unbounded = 0, []
        for directory, _, files in os.walk(os.path.join(ROOT, "src", "repro")):
            for filename in files:
                if not filename.endswith(".py"):
                    continue
                path = os.path.join(directory, filename)
                with open(path) as handle:
                    nodes = list(ast.walk(ast.parse(handle.read())))
                constants = {
                    target.id
                    for node in nodes
                    if isinstance(node, ast.Assign) and node.col_offset == 0
                    and isinstance(node.value, ast.Constant) and type(node.value.value) is int
                    for target in node.targets
                }
                good = set()
                for node in nodes:
                    if isinstance(node, ast.Call) and named(node.func, "lru_cache"):
                        size = {k.arg: k.value for k in node.keywords}.get("maxsize")
                        if getattr(size, "id", "").endswith("_CACHE_SIZE") and size.id in constants:
                            good.add(node.func)
                bounded += len(good)
                unbounded += [
                    f"{os.path.relpath(path, ROOT)}:{node.lineno}"
                    for node in nodes
                    if (isinstance(node, (ast.Name, ast.Attribute))
                        and named(node, "lru_cache") and node not in good)
                    or (isinstance(node, ast.Attribute)
                        and node.attr == "cache" and named(node.value, "functools"))
                    or (isinstance(node, ast.ImportFrom) and node.module == "functools"
                        and any(alias.name == "cache" for alias in node.names))
                ]
        assert not unbounded, unbounded
        assert bounded >= 2, "the AST and layout memos are gone; this check is stale"

    def test_every_derived_cache_names_its_bound(self):
        """The same promise for the other cache idiom: each factory handed
        to ``Graph.derived_cache(name, factory)`` under ``src/repro/`` is a
        class of the calling module with an integer ``*_CACHE_SIZE``
        attribute -- never a bare ``dict``."""
        bounded, unbounded = [], []
        for directory, _, files in os.walk(os.path.join(ROOT, "src", "repro")):
            for filename in files:
                if not filename.endswith(".py"):
                    continue
                path = os.path.join(directory, filename)
                with open(path) as handle:
                    nodes = list(ast.walk(ast.parse(handle.read())))
                sized = {
                    node.name
                    for node in nodes
                    if isinstance(node, ast.ClassDef)
                    for statement in node.body
                    if isinstance(statement, ast.Assign)
                    and isinstance(statement.value, ast.Constant)
                    and type(statement.value.value) is int
                    and any(
                        getattr(target, "id", "").endswith("_CACHE_SIZE")
                        for target in statement.targets
                    )
                }
                for node in nodes:
                    if (isinstance(node, ast.Call)
                            and getattr(node.func, "attr", None) == "derived_cache"):
                        factory = getattr(node.args[1], "id", None)
                        where = f"{os.path.relpath(path, ROOT)}:{node.lineno}"
                        (bounded if factory in sized else unbounded).append(where)
        assert not unbounded, unbounded
        assert len(bounded) >= 3, "plan, probe-table and spotlight caches; this check is stale"


class TestWrittenOnce:
    """The server pipeline and the serving executor each exist once; these
    rules fail when a copy is pasted back beside them."""

    @staticmethod
    def _modules(package):
        """``[(path relative to src/repro/<package>, AST nodes)]``."""
        top = os.path.join(ROOT, "src", "repro", package)
        modules = []
        for directory, _, files in os.walk(top):
            for filename in files:
                if filename.endswith(".py"):
                    path = os.path.join(directory, filename)
                    with open(path) as handle:
                        nodes = list(ast.walk(ast.parse(handle.read())))
                    modules.append((os.path.relpath(path, top), nodes))
        return modules

    @staticmethod
    def _callers(modules, name, on=None):
        """Modules calling ``name(...)`` / ``x.name(...)`` (with *on*: only
        ``<...>.on.name(...)``)."""

        def named(node, wanted):
            return getattr(node, "id", None) == wanted or getattr(node, "attr", None) == wanted

        return {
            path
            for path, nodes in modules
            for node in nodes
            if isinstance(node, ast.Call) and named(node.func, name)
            and (on is None or named(getattr(node.func, "value", None), on))
        }

    def test_one_module_runs_the_server_pipeline(self):
        """Summarise, store the Cluster Schema and mark an endpoint indexed
        in ``core/pipeline.py`` only; cluster there and on the 2018
        on-the-fly display path E1 compares it against."""
        modules = self._modules("")
        for stage in ("from_indexes", "save_cluster_schema", "record_extraction_success"):
            assert self._callers(modules, stage) == {"core/pipeline.py"}, stage
        assert self._callers(modules, "build_cluster_schema") == {
            "core/pipeline.py", "core/presentation.py",
        }

    def test_one_executor_touches_the_endpoint(self):
        """``serving/server.py``'s docstring: "the executor
        (``QueryServer._execute``) is the only code that touches the
        endpoint"."""
        modules = self._modules("serving")
        assert self._callers(modules, "query", on="endpoint") == {"server.py"}
        definitions = [
            (path, node.name)
            for path, nodes in modules
            for node in nodes
            if isinstance(node, ast.FunctionDef)
            and node.name in ("_execute", "_failure_status")
        ]
        assert sorted(definitions) == [("server.py", "_execute"),
                                       ("server.py", "_failure_status")]

    @staticmethod
    def _clock_rewinders(modules):
        """Modules calling ``<x>.restore(...)``; ``TermDict.restore``
        builds a dictionary and rewinds nothing."""
        return {
            path
            for path, nodes in modules
            for node in nodes
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) == "restore"
            and getattr(node.func.value, "id", None) != "TermDict"
        }

    def test_two_callers_rewind_the_clock(self):
        """``SimulationClock.restore`` is how time moves backwards: the batch
        pool and the serving scheduler measure a task with it, nothing else."""
        assert self._clock_rewinders(self._modules("")) == {
            "core/parallel.py", "serving/scheduler.py",
        }

    def test_the_rewind_rule_matches_a_third_caller(self):
        third = "\n".join([
            "def replay(self, request):",
            "    mark = self.endpoint.clock.checkpoint()",
            "    self.execute(request)",
            "    self.endpoint.clock.restore(mark)",
            "    return TermDict.restore(items, 1, [], 0)",  # not a clock
        ])
        assert self._clock_rewinders([("replay.py", list(ast.walk(ast.parse(third))))]) == {
            "replay.py",
        }

    @staticmethod
    def _worker_ledgers(tree):
        """``(class, line)`` of every ``self.<attr> = [...] * <...parallelism>``:
        an object keeping one entry per worker."""

        def names_parallelism(node):
            return any(
                getattr(inner, "id", None) == "parallelism"
                or getattr(inner, "attr", None) == "parallelism"
                for inner in ast.walk(node)
            )

        return {
            (cls.name, node.lineno)
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for node in ast.walk(cls)
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            and isinstance(node.value, ast.BinOp) and isinstance(node.value.op, ast.Mult)
            and isinstance(node.value.left, ast.List) and names_parallelism(node.value.right)
            and any(
                isinstance(target, ast.Attribute) and getattr(target.value, "id", None) == "self"
                for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            )
        }

    def test_no_object_keeps_a_worker_ledger(self):
        """The serving scheduler's workers are a local heap of free instants
        inside ``Scheduler.run``; a pool object with a busy-until list (the
        retired ``SimWorkerPool``) is the form that scanned every worker."""
        found = [
            f"{path}:{line}"
            for path, nodes in self._modules("")
            for _cls, line in self._worker_ledgers(nodes[0])
        ]
        assert not found, found

    def test_the_ledger_rule_matches_the_retired_pool(self):
        retired = "\n".join([
            "class SimWorkerPool:",
            "    def __init__(self, clock, parallelism):",
            "        self.parallelism = parallelism",
            "        self._busy_until = [clock.now_ms] * parallelism",
            "    def idle_workers(self, now_ms):",
            "        return sum(1 for until in self._busy_until if until <= now_ms)",
            "class Scheduler:",
            "    def run(self, requests):",
            "        free = [self.clock.now_ms] * self.parallelism",  # a local: fine
            "        self.vx = [0.0] * len(requests)",  # not per worker
        ])
        assert self._worker_ledgers(ast.parse(retired)) == {("SimWorkerPool", 4)}

    def test_the_door_rules_are_written_once(self):
        """``check_count`` and ``check_duration`` are defined in
        ``endpoint/errors.py`` and nowhere else under ``src/``: every
        count and duration argument is refused by the same rule."""
        definitions = sorted(
            (node.name, path)
            for path, nodes in self._modules("")
            for node in nodes
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name in ("check_count", "check_duration")
        )
        assert definitions == [
            ("check_count", os.path.join("endpoint", "errors.py")),
            ("check_duration", os.path.join("endpoint", "errors.py")),
        ]

    @staticmethod
    def _hand_fed_heaps(nodes):
        """Lines naming ``heappush`` / ``heapreplace`` / ``heappushpop`` /
        ``heappop`` / ``heapify``, bare or as an attribute."""
        feeders = ("heappush", "heapreplace", "heappushpop", "heappop", "heapify")
        return [
            node.lineno
            for node in nodes
            if isinstance(node, (ast.Name, ast.Attribute))
            and (getattr(node, "id", None) in feeders or getattr(node, "attr", None) in feeders)
        ]

    def test_no_hand_fed_heap_in_the_evaluator(self):
        """The ID-space modifier tail cuts with ``heapq.nlargest`` /
        ``nsmallest`` over distinct cells; nothing in
        ``sparql/evaluator.py`` feeds a heap by hand, so a bounded top-k
        cannot grow back beside the tail."""
        (nodes,) = [
            nodes for path, nodes in self._modules("sparql") if path == "evaluator.py"
        ]
        found = [f"evaluator.py:{line}" for line in self._hand_fed_heaps(nodes)]
        assert not found, found

    def test_the_heap_rule_matches_the_retired_topk(self):
        retired = "\n".join([
            "import heapq",
            "def _topk_fold(entries, keep):",
            "    heap = []",
            "    push, replace = heapq.heappush, heapq.heapreplace",
            "    for entry in entries:",
            "        if len(heap) < keep:",
            "            push(heap, entry)",
            "        elif heap[0] < entry:",
            "            replace(heap, entry)",
            "    return sorted(heap, reverse=True)",
            "def cut(cells, room):",
            "    return heapq.nsmallest(room, cells)",  # the tail's form: fine
        ])
        assert self._hand_fed_heaps(list(ast.walk(ast.parse(retired)))) == [4, 4]

    @staticmethod
    def _tail_heaps(tree):
        """``(line, keyed)`` of every call inside ``_first_in_order`` whose
        callee names ``nlargest`` / ``nsmallest``.  Without ``key=`` it is a
        heap over one sort key per row; the tail takes the best distinct
        cells keyed through the memo."""
        return [
            (node.lineno, any(keyword.arg == "key" for keyword in node.keywords))
            for function in ast.walk(tree)
            if isinstance(function, ast.FunctionDef) and function.name == "_first_in_order"
            for node in ast.walk(function)
            if isinstance(node, ast.Call)
            and any(
                getattr(name, "attr", getattr(name, "id", None)) in ("nlargest", "nsmallest")
                for name in ast.walk(node.func)
            )
        ]

    def test_the_tail_keys_distinct_cells(self):
        """The ORDER BY tail finds its bound over distinct cells and their
        multiplicities (a LIMIT 10 over 10**6 rows of few values compares
        few keys); a per-row key list fed to the heap is the form it
        retired."""
        path = os.path.join(ROOT, "src", "repro", "sparql", "evaluator.py")
        with open(path) as handle:
            heaps = self._tail_heaps(ast.parse(handle.read()))
        assert heaps, "the tail no longer takes a heap; this rule is stale"
        assert [line for line, keyed in heaps if not keyed] == []

    def test_the_heap_rule_matches_the_per_row_tail(self):
        retired = "\n".join([
            "def _first_in_order(columns, indices, room, conditions, memos, level=0):",
            "    keys = _sort_key_column([cells[i] for i in indices], memos[level], term_of)",
            "    if descending:",
            "        bound = heapq.nlargest(room, keys)[-1]",
            "    else:",
            "        bound = nsmallest(room, keys)[-1]",
            "    bound = (heapq.nlargest if descending else heapq.nsmallest)(room, keys)[-1]",
            "    best = (nlargest if descending else nsmallest)(room, tally, key=key)",  # keyed
        ])
        assert sorted(self._tail_heaps(ast.parse(retired))) == [
            (4, False), (6, False), (7, False), (8, True),
        ]

    #: ``module::function`` that may write a shard's ``sizes``: the writers
    #: of the SPO index it mirrors, each in the step that writes SPO --
    #: ``Shard.__init__`` / ``insert`` / ``discard`` / ``copy``, the bulk
    #: loop of ``Graph.add_many_terms``, the snapshot load's SPO build
    #: (``LazyShard._hydrate``) and a loaded shard's SPO-first writes
    #: (``LazyShard.insert`` / ``discard``)
    SIZE_MAP_WRITERS = {
        "rdf/graph.py::__init__", "rdf/graph.py::insert", "rdf/graph.py::discard",
        "rdf/graph.py::add_many_terms", "rdf/graph.py::copy",
        "rdf/durability/store.py::_hydrate", "rdf/durability/store.py::insert",
        "rdf/durability/store.py::discard",
    }

    @staticmethod
    def _size_map_writers(nodes):
        """Functions that assign ``<x>.sizes``, store into or delete from
        it, call a mutator on it, or bind it to a name, alone or in a tuple
        (the bulk loop's local)."""

        def is_map(node):
            return isinstance(node, ast.Attribute) and node.attr == "sizes"

        def writes(node):
            stored = isinstance(getattr(node, "ctx", None), (ast.Store, ast.Del))
            return (
                is_map(node) and stored
                or isinstance(node, ast.Subscript) and is_map(node.value) and stored
                or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and is_map(node.func.value)
                and node.func.attr in {"pop", "popitem", "update", "setdefault", "clear",
                                       "__setitem__", "__delitem__"}
                or isinstance(node, ast.Assign) and (
                    is_map(node.value)
                    or isinstance(node.value, ast.Tuple) and any(map(is_map, node.value.elts))
                )
            )

        return {
            function.name
            for function in nodes
            if isinstance(function, ast.FunctionDef)
            and any(writes(node) for node in ast.walk(function))
        }

    def test_the_size_map_is_written_where_spo_is(self):
        """A subject's triple count is kept, never rebuilt: no reader, memo
        or cache elsewhere under ``src/repro`` writes the map."""
        found = {
            f"{path}::{name}"
            for path, nodes in self._modules("")
            for name in self._size_map_writers(nodes)
        }
        assert found == self.SIZE_MAP_WRITERS

    def test_the_writer_rule_matches_the_forms_it_forbids(self):
        forbidden = "\n".join([
            "def scan_runs(self, s, p, o):",  # a map built on first read
            "    shard = self._shards[0]",
            "    if not shard.sizes:",
            "        shard.sizes = {k: sum(map(len, v.values())) for k, v in shard.spo.items()}",
            "def count_ids(self, s=None, p=None, o=None):",
            "    return self.shard_of(s).sizes.setdefault(s, 0)",
            "def _scan_view(self, s, p, o):",
            "    sizes = self._shards[0].sizes",
            "def _merged(self):",
            "    spo, sizes = self.spo, self.sizes",
            "def forget(graph):",
            "    del graph.shards[0].sizes[0]",
            "def bump(shard):",
            "    shard.sizes[1] += 1",
            "def reads(self, s):",  # reads only: not matched
            "    return self.sizes.get(s, 0) + sum(map(self.sizes.__getitem__, self.spo))",
        ])
        assert self._size_map_writers(list(ast.walk(ast.parse(forbidden)))) == {
            "scan_runs", "count_ids", "_scan_view", "_merged", "forget", "bump",
        }

    @staticmethod
    def _subject_size_sums(nodes):
        """Lines in ``class Graph`` summing leaf lengths over an inner dict
        that is not POS's or OSP's (``sum(map(len, x.values()))``, ``sum(len(v)
        for v in x.values())``): a subject's triple count recounted."""
        lines = []
        for cls in nodes:
            if not (isinstance(cls, ast.ClassDef) and cls.name == "Graph"):
                continue
            for node in ast.walk(cls):
                if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "sum"
                        and node.args):
                    continue
                arg = node.args[0]
                if (isinstance(arg, ast.Call) and getattr(arg.func, "id", None) == "map"
                        and arg.args and getattr(arg.args[0], "id", None) == "len"):
                    source = arg.args[-1]
                elif (isinstance(arg, ast.GeneratorExp)
                        and getattr(getattr(arg.elt, "func", None), "id", None) == "len"):
                    source = arg.generators[0].iter
                else:
                    continue
                if getattr(getattr(source, "func", None), "attr", None) != "values":
                    continue
                if not {getattr(n, "attr", None) for n in ast.walk(source)} & {
                    "pos", "osp", "_pos", "_osp"
                }:
                    lines.append(node.lineno)
        return sorted(lines)

    def test_graph_sums_no_subjects_leaves(self):
        """``scan_runs`` and ``count_ids(s)`` read the owning shard's
        ``sizes``; the per-subject sums they retired do not come back
        beside it."""
        (nodes,) = [nodes for path, nodes in self._modules("rdf") if path == "graph.py"]
        assert self._subject_size_sums(nodes) == []

    def test_the_sum_rule_matches_the_sums_it_retired(self):
        retired = "\n".join([
            "class Graph:",
            "    def scan_runs(self, s, p, o):",
            "        return order[0], keys, (sum(map(len, inner.values())) for inner in inners)",
            "    def count_ids(self, s=None, p=None, o=None):",
            "        if s is not None and p is None and o is None:",
            "            return sum(len(v) for v in self._spo.get(s, {}).values())",
            "        if p is not None and s is None and o is None:",
            "            return sum(len(v) for v in self._pos.get(p, {}).values())",  # a predicate's
            "        return sum(len(v) for v in self._osp.get(o, {}).values())",  # an object's
            "class Shard:",
            "    def size(self, s):",
            "        return sum(map(len, self.spo[s].values()))",  # not Graph's
            "class Graph:",
            "    def count_ids(self, s=None, p=None, o=None):",
            "        return sum(map(len, self.shard_of(s).spo.get(s, {}).values()))",
            "        return sum(sum(map(len, sh.pos.get(p, {}).values())) for sh in self.shards)",
        ])
        assert self._subject_size_sums(list(ast.walk(ast.parse(retired)))) == [3, 6, 15]

    @staticmethod
    def _join_scores(nodes):
        """Lines raising 16 to a power: the join order's estimate / 16 **
        (variables bound)."""
        return [
            node.lineno for node in nodes
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
            and isinstance(node.left, ast.Constant) and node.left.value == 16
        ]

    def test_the_join_order_score_is_written_once(self):
        """``_join_score`` is the one greedy-order key both join pipelines
        read; a second copy is how the eager and lazy join orders drift."""
        found = [
            f"{path}:{line}"
            for path, nodes in self._modules("sparql")
            for line in self._join_scores(nodes)
        ]
        assert len(found) == 1, found

    def test_the_score_rule_matches_the_copies_it_retired(self):
        retired = "\n".join([
            "def f(remaining, col_of, bound):",
            "    a = min(remaining, key=lambda ep: (ep.est / (16.0 ** sum(1 for v in ep.variables if v in col_of)), ep.index))",
            "    b = min(remaining, key=lambda ep: (ep.est / (16.0 ** sum(1 for v in ep.variables if v in bound)), ep.index))",
        ])
        assert self._join_scores(list(ast.walk(ast.parse(retired)))) == [2, 3]

    #: what ``QueryEngine`` may assign on ``self`` outside ``__init__``:
    #: nothing -- per-query state lives on the ``Execution``
    ENGINE_STATE = set()

    @staticmethod
    def _state_writes(tree, class_name):
        """``self.<attr>`` assigned in methods of *class_name* other than
        ``__init__``."""
        writes = set()
        for cls in ast.walk(tree):
            if not (isinstance(cls, ast.ClassDef) and cls.name == class_name):
                continue
            for method in cls.body:
                if not isinstance(method, ast.FunctionDef) or method.name == "__init__":
                    continue
                for node in ast.walk(method):
                    targets = (
                        node.targets if isinstance(node, ast.Assign)
                        else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
                        else []
                    )
                    writes |= {
                        target.attr for target in targets
                        if isinstance(target, ast.Attribute)
                        and getattr(target.value, "id", None) == "self"
                    }
        return writes

    def test_no_new_per_execution_state_on_the_engine(self):
        """A flag like "filters already applied" threads through arguments;
        the engine instance keeps only the state it already had."""
        path = os.path.join(ROOT, "src", "repro", "sparql", "evaluator.py")
        with open(path) as handle:
            writes = self._state_writes(ast.parse(handle.read()), "QueryEngine")
        assert writes <= self.ENGINE_STATE, sorted(writes - self.ENGINE_STATE)
        assert writes == self.ENGINE_STATE, "state moved off the engine; shrink ENGINE_STATE"

    def test_the_state_rule_matches_a_flag_on_self(self):
        flagged = "\n".join([
            "class QueryEngine:",
            "    def __init__(self):",
            "        self.allowed_in_init = 0",
            "    def _run_select_simple(self, query):",
            "        self._filters_applied = True",
            "        self.exec_stats: dict = {}",
            "        self.obs.count += 1",
        ])
        assert self._state_writes(ast.parse(flagged), "QueryEngine") == {
            "_filters_applied", "exec_stats",
        }

    @staticmethod
    def _query_state_on_engines(nodes):
        """Lines keeping one query's state on an engine: ``exec_stats_snapshot``
        defined or named, ``<engine>.obs = ...`` or a read of
        ``<engine>.exec_stats``.  An engine is a name ending in ``engine``
        (``engine``, ``self._engine``) or ``self`` inside ``class QueryEngine``."""
        engine_selves = {
            id(node)
            for cls in nodes if isinstance(cls, ast.ClassDef) and cls.name == "QueryEngine"
            for node in ast.walk(cls) if getattr(node, "id", None) == "self"
        }

        def is_engine(node):
            name = getattr(node, "id", None) or getattr(node, "attr", None) or ""
            return name.lower().endswith("engine") or id(node) in engine_selves

        return [
            node.lineno for node in nodes
            if isinstance(node, ast.FunctionDef) and node.name == "exec_stats_snapshot"
            or isinstance(node, ast.Attribute) and (
                node.attr == "exec_stats_snapshot"
                or is_engine(node.value) and (
                    node.attr == "obs" and isinstance(node.ctx, ast.Store)
                    or node.attr == "exec_stats" and isinstance(node.ctx, ast.Load)
                )
            )
        ]

    def test_a_query_keeps_its_state_on_its_execution(self):
        """Counters and tracer live on the query's ``Execution``; an engine
        that holds them is one a query started mid-query overwrites."""
        found = [
            f"{path}:{line}"
            for path, nodes in TestWrittenOnce._modules("")
            for line in self._query_state_on_engines(nodes)
        ]
        assert not found, found

    def test_the_execution_rule_matches_the_retired_engine_state(self):
        retired = "\n".join([
            "class QueryEngine:",
            "    def exec_stats_snapshot(self):",  # 2
            "        return dict(self.exec_stats)",  # 3
            "    def _operator_event(self):",
            "        self.exec_stats['operator'] = 'x'",  # 5: a read of the dict
            "class SparqlEndpoint:",
            "    def attach_obs(self, tracer):",
            "        self.obs = tracer",  # the endpoint's own recorder
            "        self._engine.obs = tracer",  # 9
            "    def _query(self, parsed):",
            "        result = self._engine.run(parsed)",
            "        stats = self._engine.exec_stats_snapshot()",  # 12
            "        return result, engine.exec_stats, execution.stats",  # 13
        ])
        nodes = list(ast.walk(ast.parse(retired)))
        assert sorted(self._query_state_on_engines(nodes)) == [2, 3, 5, 9, 12, 13]

    @staticmethod
    def _four_product_sums(nodes):
        """Lines holding ``a * b + c * d + e * f + g * h``: a cubic
        B-spline's basis-weighted sum of four control values."""

        def terms(node):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
                return terms(node.left) + [node.right]
            return [node]

        return [
            node.lineno for node in nodes
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
            and len(terms(node)) == 4
            and all(isinstance(t, ast.BinOp) and isinstance(t.op, ast.Mult) for t in terms(node))
        ]

    def test_one_b_spline_sampler_in_viz(self):
        """``geometry.bspline_column`` is the one sampler: edge bundling and
        ``bspline_points`` call it, and a forked copy is how two curves that
        should be the same figure drift apart."""
        found = [
            f"{path}:{line}"
            for path, nodes in self._modules("viz")
            for line in self._four_product_sums(nodes)
        ]
        assert len(found) == 1 and found[0].startswith("geometry.py:"), found

    def test_the_sampler_rule_matches_a_forked_sampler(self):
        forked = "\n".join([
            "def _spline(cx, basis):",
            "    px = [cx[0], cx[0]] + cx + [cx[-1], cx[-1]]",
            "    xs = []",
            "    for i in range(len(px) - 3):",
            "        x0, x1, x2, x3 = px[i : i + 4]",
            "        for b0, b1, b2, b3 in basis:",
            "            xs.append(b0 * x0 + b1 * x1 + b2 * x2 + b3 * x3)",
            "    return xs + [cx[-1]]",
            "def spline(p0, p1, p2, p3, b0, b1, b2, b3):",
            "    return Point(b0 * p0.x + b1 * p1.x + b2 * p2.x + b3 * p3.x, 0.0)",
            "def not_a_spline(x, y, r):",
            "    return x * x + y * y - r * r + 2 * x",
        ])
        assert sorted(self._four_product_sums(list(ast.walk(ast.parse(forked))))) == [7, 10]

    #: a ``%`` conversion or a ``{...:spec}`` replacement field
    FORMAT_SPEC = re.compile(r"%[-+ #0]*\d*(?:\.\d+)?[diouxXeEfFgGcrsa]|\{[^{}]*:[^{}]*\}")

    @classmethod
    def _format_tables(cls, module):
        """Module-level dicts of *module* that hold a format string, in
        their display or stored into them anywhere in the module."""
        tables = {}
        for statement in module.body:
            if isinstance(statement, ast.Assign):
                targets = statement.targets
            elif isinstance(statement, ast.AnnAssign) and statement.value is not None:
                targets = [statement.target]
            else:
                continue
            value = statement.value
            if isinstance(value, (ast.Dict, ast.DictComp)) or (
                isinstance(value, ast.Call) and getattr(value.func, "id", None) == "dict"
            ):
                tables.update({t.id: [value] for t in targets if isinstance(t, ast.Name)})
        for node in ast.walk(module):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    name = getattr(getattr(target, "value", None), "id", None)
                    if isinstance(target, ast.Subscript) and name in tables:
                        tables[name].append(node.value)
            elif (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "setdefault"
                    and getattr(node.func.value, "id", None) in tables):
                tables[node.func.value.id].extend(node.args[1:])
        return sorted(
            name for name, values in tables.items()
            if any(
                isinstance(leaf, ast.Constant) and isinstance(leaf.value, str)
                and cls.FORMAT_SPEC.search(leaf.value)
                for value in values for leaf in ast.walk(value)
            )
        )

    def test_no_format_string_table_in_viz(self):
        """A path's format is built inline per call: a table per path length
        measured 16.9 us per 49-point path against 17.1 us inline, not
        worth its state."""
        found = {
            path: tables
            for path, nodes in self._modules("viz")
            for tables in [self._format_tables(nodes[0])]
            if tables
        }
        assert not found, found

    def test_the_table_rule_matches_a_format_table(self):
        tables = "\n".join([
            "_FORMATS = {n: 'M %.3f %.3f' + ' L %.3f %.3f' * (n - 1) for n in range(1, 65)}",
            "_LAZY: Dict[int, str] = {}",
            "_SET: Dict[int, str] = dict()",
            "_COLORS = {'focus': '#000000', 'domain': '#d62728'}",
            "_BRACES = {'point': '{x:.3f} {y:.3f}'}",
            "def polyline_path(xs, ys):",
            "    fmt = _LAZY.get(len(xs))",
            "    if fmt is None:",
            "        fmt = _LAZY[len(xs)] = 'M %.3f %.3f' + ' L %.3f %.3f' * (len(xs) - 1)",
            "    local = {1: '%.3f'}",
            "    return _SET.setdefault(len(xs), '%.3f ' * len(xs)) % tuple(xs)",
        ])
        assert self._format_tables(ast.parse(tables)) == ["_BRACES", "_FORMATS", "_LAZY", "_SET"]

    @staticmethod
    def _element_tree_sites(nodes):
        """Lines defining ``SvgElement`` or attaching a tooltip after the fact
        (``doc.title(element, text)``; ``str.title()`` takes no argument)."""
        return sorted(
            node.lineno for node in nodes
            if (isinstance(node, ast.ClassDef) and node.name == "SvgElement")
            or (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "title"
                and (node.args or node.keywords))
        )

    def test_a_figure_is_written_as_it_is_drawn(self):
        """``viz/svg.py`` formats an element when it is drawn, its tooltip
        passed as ``title=``; a stored element tree walked again to
        serialise it is the form it replaced."""
        found = {
            path: lines
            for path, nodes in self._modules("")
            for lines in [self._element_tree_sites(nodes)]
            if lines
        }
        assert not found, found

    def test_the_element_tree_rule_matches_the_tree_writer(self):
        tree = "\n".join([
            "class SvgElement:",
            "    def render(self, indent=0): ...",
            "def render_treemap(doc, cluster):",
            "    outline = doc.rect(0, 0, 1, 1)",
            "    doc.title(outline, cluster.name)",
            "    doc.title(element=outline, content=cluster.name)",
            "    return cluster.name.title()",
        ])
        assert self._element_tree_sites(list(ast.walk(ast.parse(tree)))) == [1, 5, 6]

    @staticmethod
    def _ampersand_escapes(nodes):
        """Lines holding a ``&amp;`` string constant."""
        return sorted(
            node.lineno for node in nodes
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and "&amp;" in node.value
        )

    def test_one_xml_escape_in_viz(self):
        """``svg.escape`` is the one escape (``& < > "`` and the characters
        XML forbids); the HTML page uses it rather than a second copy."""
        found = [
            path
            for path, nodes in self._modules("viz")
            if self._ampersand_escapes(nodes)
        ]
        assert found == ["svg.py"], found

    def test_the_escape_rule_matches_a_second_escape(self):
        html = "\n".join([
            "def html_page(title, caption):",
            '    caption = caption.replace("&", "&amp;").replace("<", "&lt;")',
            '    return f"<h1>{title}</h1><figcaption>{caption}</figcaption>"',
        ])
        assert self._ampersand_escapes(list(ast.walk(ast.parse(html)))) == [2]


class TestIndexStaysBehindRdf:
    #: the index attributes of a ``Shard`` (and the names the store's
    #: indexes had before they moved there)
    INDEX_ATTRIBUTES = ("spo", "pos", "osp", "_spo", "_pos", "_osp")

    #: ``path::function`` outside ``rdf/`` allowed to read a shard's index:
    #: the index-nested-loop join walks the owning shard of a bound subject
    EXEMPT = {"sparql/evaluator.py::_index_join_plain"}

    @classmethod
    def _index_reads(cls, tree):
        """Names of the functions under *tree* (``<module>`` for top-level
        code) reading ``<x>.spo`` / ``.pos`` / ``.osp`` or a former
        ``_``-name, ``self.pos`` alone aside (the SPARQL parser's cursor)."""
        found = set()

        def visit(node, name):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.FunctionDef):
                    visit(child, child.name)
                    continue
                if (
                    isinstance(child, ast.Attribute)
                    and child.attr in cls.INDEX_ATTRIBUTES
                    and (getattr(child.value, "id", None), child.attr) != ("self", "pos")
                ):
                    found.add(name)
                visit(child, name)

        visit(tree, "<module>")
        return found

    def test_no_index_attribute_outside_the_rdf_package(self):
        """A shard's ``spo`` / ``pos`` / ``osp`` are the store's
        representation: every other package reads rows through
        ``triples_ids`` / ``scan_rows`` / ``count_ids`` (or the
        documented ``*_ids()`` views), so the store can change what is
        behind them."""
        source = os.path.join(ROOT, "src", "repro")
        leaks = set()
        for directory, _, files in os.walk(source):
            if os.path.relpath(directory, source).split(os.sep)[0] == "rdf":
                continue
            for filename in files:
                if not filename.endswith(".py"):
                    continue
                path = os.path.join(directory, filename)
                with open(path) as handle:
                    tree = ast.parse(handle.read())
                relative = os.path.relpath(path, source)
                leaks |= {f"{relative}::{name}" for name in self._index_reads(tree)}
        assert leaks == self.EXEMPT, leaks

    def test_the_index_rule_matches_the_forms_it_forbids(self):
        forbidden = "\n".join([
            "def probe(graph, s):",
            "    return graph.shard_of(s).spo.get(s)",
            "def census(graph):",
            "    return sum(len(shard.pos) for shard in graph.shards)",
            "def legacy(graph, o):",
            "    return graph._osp.get(o)",
            "class Walker:",
            "    def own(self, s):",
            "        return self._spo.get(s)",
            "    def public(self, o):",
            "        return self.osp.get(o)",
            "class Parser:",
            "    def advance(self):",  # its own cursor: not matched
            "        self.pos += 1",
        ])
        assert self._index_reads(ast.parse(forbidden)) == {
            "probe", "census", "legacy", "own", "public",
        }


class TestLeafWrittenOnce:
    """PR 22's rule above fences the index *readers* behind ``rdf/``; this
    one fences the *writers* inside it: a set (``set(...)``, ``{a, b}``, a
    set comprehension) or a 1-tuple is stored into a mapping -- ``x[k] =
    ...``, ``setdefault(k, ...)``, a dict display or comprehension value --
    only in ``rdf/_leaf.py`` and the function named below.  The accessors
    that *return* a fresh set (``node_ids``, ``classes``, ``instances_of``)
    store nothing and are not matched."""

    #: ``module::function`` allowed to store a fresh set outside ``rdf/_leaf.py``
    EXEMPT = {
        # builds fresh merged *sets* for a read-only snapshot, never a leaf
        "sharding.py::_merged_index",
    }

    @staticmethod
    def _leaf_builds(tree):
        """``(function name, line)`` of every statement under *tree* that
        stores a freshly built set or 1-tuple into a mapping."""

        def builds_a_leaf(node):
            return (
                isinstance(node, (ast.Set, ast.SetComp))
                or (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "set")
                or (isinstance(node, ast.Tuple) and len(node.elts) == 1)
            )

        def stored(node):
            if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Subscript) for target in node.targets
            ):
                return [node.value]
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "setdefault":
                return node.args[1:]
            if isinstance(node, ast.Dict):
                return node.values
            if isinstance(node, ast.DictComp):
                return [node.value]
            return []

        return {
            (function.name, node.lineno)
            for function in ast.walk(tree)
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(function)
            if any(builds_a_leaf(value) for value in stored(node))
        }

    def test_a_leaf_is_built_in_the_leaf_module_only(self):
        rdf = os.path.join(ROOT, "src", "repro", "rdf")
        found = set()
        for directory, _, files in os.walk(rdf):
            for filename in files:
                if filename.endswith(".py") and filename != "_leaf.py":
                    path = os.path.join(directory, filename)
                    with open(path) as handle:
                        builds = self._leaf_builds(ast.parse(handle.read()))
                    found |= {f"{os.path.relpath(path, rdf)}::{name}" for name, _ in builds}
        assert found - self.EXEMPT == set(), sorted(found - self.EXEMPT)
        assert self.EXEMPT - found == set(), f"stale exemptions: {sorted(self.EXEMPT - found)}"

    def test_the_rule_matches_the_forms_it_retired(self):
        """The hand-written builders of the set-only store, as text: each
        line must be matched, or the rule fences nothing."""
        retired = "\n".join([
            "def f(spo, by_p, p, o, s):",
            "    spo.setdefault(s, {}).setdefault(p, set()).add(o)",
            "    objects = by_p[p] = set()",
            "    copy = {s: {p: set(o) for p, o in by_p.items()} for s, by_p in spo.items()}",
            "    by_p[p] = {o}",
            "    by_p[p] = (o,)",
            "    return set(spo) | {o}",  # an accessor returning a fresh set: not a store
        ])
        assert self._leaf_builds(ast.parse(retired)) == {("f", line) for line in (2, 3, 4, 5, 6)}


class TestKindByteWrittenOnce:
    """A term's kind code is defined on its class, and only
    ``rdf/dictionary.py`` copies it into ``TermDict.kinds``: a second
    writer is how the byte drifts from the term that holds the ID.  The
    SPARQL term tests read that byte, so no memo there decodes an ID."""

    MUTATORS = {"append", "extend", "insert", "pop", "remove", "clear", "reverse",
                "update", "setdefault", "popitem"}

    @staticmethod
    def _trees(package):
        """``[(path relative to src/repro, AST)]`` under *package*."""
        top = os.path.join(ROOT, "src", "repro")
        trees = []
        for directory, _, files in os.walk(os.path.join(top, package)):
            for filename in sorted(files):
                if filename.endswith(".py"):
                    path = os.path.join(directory, filename)
                    with open(path) as handle:
                        trees.append((os.path.relpath(path, top), ast.parse(handle.read())))
        return trees

    @staticmethod
    def _targets(node):
        """What an assignment or ``del`` binds, tuples unpacked."""
        if isinstance(node, (ast.Assign, ast.Delete)):
            pending = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            pending = [node.target]
        else:
            return []
        targets = []
        while pending:
            target = pending.pop()
            if isinstance(target, (ast.Tuple, ast.List)):
                pending.extend(target.elts)
            else:
                targets.append(target)
        return targets

    @classmethod
    def _kinds_writes(cls, tree, name="kinds"):
        """Lines that bind ``<x>.kinds``, store into ``kinds[...]`` /
        ``<x>.kinds[...]`` or call a mutating method on either (*name*:
        another derived table of the dictionary)."""

        def is_kinds(node):
            return getattr(node, "attr", None) == name or getattr(node, "id", None) == name

        lines = set()
        for node in ast.walk(tree):
            for target in cls._targets(node):
                if (isinstance(target, ast.Attribute) and target.attr == name) or (
                    isinstance(target, ast.Subscript) and is_kinds(target.value)
                ):
                    lines.add(node.lineno)
            if (
                isinstance(node, ast.Call)
                and getattr(node.func, "attr", None) in cls.MUTATORS
                and is_kinds(node.func.value)
            ):
                lines.add(node.lineno)
        return lines

    @classmethod
    def _kind_definitions(cls, tree):
        """``(class name, line)`` of every binding of ``KIND`` (a bare
        name or an attribute); the class is None outside a class body."""
        owner = {
            id(statement): node.name
            for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            for statement in node.body
        }
        return {
            (owner.get(id(node)), node.lineno)
            for node in ast.walk(tree)
            for target in cls._targets(node)
            if getattr(target, "id", None) == "KIND" or getattr(target, "attr", None) == "KIND"
        }

    DECODERS = {"decode", "decode_id", "decode_term"}

    @classmethod
    def _decoding_memos(cls, tree):
        """Lines of ``Memo(...)`` calls whose arguments name a decoder."""
        return {
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and (getattr(node.func, "id", None) == "Memo" or getattr(node.func, "attr", None) == "Memo")
            and any(
                getattr(inner, "id", None) in cls.DECODERS
                or getattr(inner, "attr", None) in cls.DECODERS
                for argument in node.args + [keyword.value for keyword in node.keywords]
                for inner in ast.walk(argument)
            )
        }

    def test_the_kind_byte_is_written_in_the_dictionary_only(self):
        writers = {path for path, tree in self._trees("") if self._kinds_writes(tree)}
        assert writers == {"rdf/dictionary.py"}, sorted(writers)

    def test_the_kept_sort_keys_are_written_in_the_dictionary_only(self):
        """``TermDict.sort_keys`` is derived from the table over recycled
        IDs: only the module that frees an ID can drop its key."""
        writers = {
            path for path, tree in self._trees("") if self._kinds_writes(tree, "sort_keys")
        }
        assert writers == {"rdf/dictionary.py"}, sorted(writers)
        forbidden = ast.parse("\n".join([
            "def f(table, term_id, key):",
            "    table.sort_keys[term_id] = key",
            "    table.sort_keys.update({term_id: key})",
            "    table.sort_keys.pop(term_id)",
            "    return table.sort_keys[term_id], table.sort_keys.__getitem__",  # reads
        ]))
        assert self._kinds_writes(forbidden, "sort_keys") == {2, 3, 4}

    def test_the_kept_n3_is_written_in_the_dictionary_only(self):
        """``TermDict.n3`` is derived over recycled IDs like ``sort_keys``:
        the digests read it, only the dictionary writes it."""
        writers = {path for path, tree in self._trees("") if self._kinds_writes(tree, "n3")}
        assert writers == {"rdf/dictionary.py"}, sorted(writers)
        forbidden = ast.parse("\n".join([
            "def f(table, term_id, text):",
            "    table.n3[term_id] = text",
            "    table.n3.setdefault(term_id, text)",
            "    table.n3.clear()",
            "    return table.n3[term_id], term.n3()",  # reads, and a render
        ]))
        assert self._kinds_writes(forbidden, "n3") == {2, 3, 4}

    def test_the_kind_codes_are_defined_on_the_term_classes_only(self):
        from repro.rdf import BNode, IRI, Literal

        found = {
            (path, owner)
            for path, tree in self._trees("")
            for owner, _line in self._kind_definitions(tree)
        }
        assert found == {("rdf/terms.py", name) for name in ("IRI", "BNode", "Literal")}, found
        codes = {IRI.KIND, BNode.KIND, Literal.KIND}
        assert len(codes) == 3 and 0 not in codes and max(codes) < 256  # 0 is a free ID

    def test_no_memo_under_sparql_decodes(self):
        found = [
            f"{path}:{line}"
            for path, tree in self._trees("sparql")
            for line in self._decoding_memos(tree)
        ]
        assert not found, found

    def test_the_rules_match_the_forms_they_forbid(self):
        forbidden = ast.parse("\n".join([
            "class Shadow:",
            "    KIND = 9",
            "def f(table, term, term_id, test, decode, graph, kinds):",
            "    table.kinds = bytearray()",
            "    table.kinds.append(term.KIND)",
            "    table.kinds[term_id] = 0",
            "    kinds[term_id], other = 1, 2",
            "    verdict = Memo(lambda value: test(decode(value))).__getitem__",
            "    other = Memo(fn=lambda value: graph.decode_id(value))",
            "    IRI.KIND = 4",
            "    return table.kinds.translate(bytes(256)), Memo(len)",  # reads: not matched
        ]))
        assert self._kinds_writes(forbidden) == {4, 5, 6, 7}
        assert self._kind_definitions(forbidden) == {("Shadow", 2), (None, 10)}
        assert self._decoding_memos(forbidden) == {8, 9}


class TestDurableStoreDerivedState:
    """A shard has two derived states, the sorted run it caches and the
    manifest entry of the snapshot file that holds its content; both are
    true of the content they were taken from and of no other."""

    def test_dropping_the_run_drops_the_snapshot_entry(self):
        """Every block under ``rdf/graph.py`` and ``rdf/durability/``
        that sets ``<shard>._columns = None`` sets ``<shard>._snapshot =
        None`` too: a shard that forgot its run but still names a snapshot
        file would be skipped by the next checkpoint, which is silent loss."""

        def drops(statement, attribute):
            return (
                isinstance(statement, ast.Assign)
                and isinstance(statement.value, ast.Constant)
                and statement.value.value is None
                and any(getattr(target, "attr", None) == attribute
                        for target in statement.targets)
            )

        rdf = os.path.join(ROOT, "src", "repro", "rdf")
        paths = [os.path.join(rdf, "graph.py")] + [
            os.path.join(rdf, "durability", name)
            for name in sorted(os.listdir(os.path.join(rdf, "durability")))
            if name.endswith(".py")
        ]
        sites, lonely = 0, []
        for path in paths:
            with open(path) as handle:
                tree = ast.parse(handle.read())
            for node in ast.walk(tree):
                for field in ("body", "orelse", "finalbody"):
                    block = getattr(node, field, None)
                    if not isinstance(block, list):
                        continue
                    for statement in block:
                        if drops(statement, "_columns"):
                            sites += 1
                            if not any(drops(other, "_snapshot") for other in block):
                                lonely.append(f"{os.path.relpath(path, ROOT)}:{statement.lineno}")
        assert not lonely, lonely
        assert sites >= 3, "insert, discard and the bulk path; this check is stale"

    def test_architecture_quotes_the_crash_sweep_census(self, tmp_path):
        """ARCHITECTURE.md says how many boundaries the crash sweep hits;
        the number is whatever the sweep's own dry run counts (a shard a
        checkpoint carries contributes none), so it is read from there."""
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "_crash_sweep",
            os.path.join(ROOT, "tests", "rdf", "test_durability_recovery.py"),
        )
        sweep = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sweep)
        census = sweep._boundary_census(tmp_path).sequence
        with open(os.path.join(ROOT, "ARCHITECTURE.md")) as handle:
            quoted = re.findall(r"`CrashInjector` can hit \((\d+)\)", handle.read())
        assert quoted == [str(census)], (
            f"ARCHITECTURE.md quotes {quoted}; the sweep's census counts {census}"
        )


class TestTier1Count:
    def test_changes_quotes_the_collected_tier1_count(self, request):
        """The one counting rule: tier-1 is what ROADMAP's Tier-1 verify
        line (a bare ``pytest`` run, so ``testpaths``) collects, every
        parametrization one test.  The newest ``tier-1: N collected`` in
        CHANGES.md must be that number, so PR notes cannot drift from
        the suite.  Partial runs (paths, ``-k``, ``-m``, ``--deselect``)
        collect something else and skip."""
        config = request.config
        whole_suite = config.args_source is config.ArgsSource.TESTPATHS or [
            os.path.abspath(arg) for arg in config.args
        ] == [os.path.join(ROOT, "tests")]
        option = config.option
        if not whole_suite or option.keyword or option.markexpr or option.deselect:
            pytest.skip("not the bare tier-1 run; its count is not tier-1's")
        collected = len(request.session.items)
        print(f"tier-1: {collected} collected")
        with open(os.path.join(ROOT, "CHANGES.md")) as handle:
            quoted = re.findall(r"tier-1: (\d+) collected", handle.read())
        assert quoted, "no CHANGES.md entry quotes `tier-1: N collected`"
        assert int(quoted[-1]) == collected, (
            f"CHANGES.md's newest entry quotes tier-1: {quoted[-1]} collected; "
            f"this tree collects {collected} -- quote that in your entry"
        )


class TestRouteTable:
    """ARCHITECTURE.md's SELECT routing table names, in its ``operator``
    column, every route the evaluator writes (an ``operator=`` keyword or
    a ``_name_route`` argument) and no route it no longer writes."""

    @staticmethod
    def _written(source):
        names = set()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.keyword) and node.arg == "operator":
                value = node.value
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "_name_route":
                value = node.args[0]
            else:
                continue
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                names.add(value.value)
        return names

    @staticmethod
    def _tabled(architecture):
        """The names in the ``operator`` column of the section's first table."""
        section = architecture.split("## SELECT routing", 1)[1]
        lines = iter(section.splitlines())
        table = itertools.takewhile(
            lambda line: line.startswith("|"),
            itertools.dropwhile(lambda line: not line.startswith("|"), lines),
        )
        rows = [[cell.strip() for cell in line.strip().strip("|").split("|")] for line in table]
        column = rows[0].index("`operator`")
        return {name for row in rows[2:] for name in re.findall(r"`([^`]+)`", row[column])}

    def test_the_route_table_names_every_route_the_evaluator_writes(self):
        with open(os.path.join(ROOT, "src", "repro", "sparql", "evaluator.py")) as handle:
            written = self._written(handle.read())
        with open(os.path.join(ROOT, "ARCHITECTURE.md")) as handle:
            tabled = self._tabled(handle.read())
        assert written, "the evaluator names no route; this rule is stale"
        assert not written - tabled, (
            f"routes missing from ARCHITECTURE.md's routing table: {sorted(written - tabled)}"
        )
        assert not tabled - written, (
            f"ARCHITECTURE.md's routing table lists routes nothing writes: {sorted(tabled - written)}"
        )

    def test_the_route_rule_matches_both_drifts(self):
        source = "\n".join([
            "def sink(self):",
            "    self.stats.update(operator='topk-id', input_rows=1)",
            "    self._name_route('ask')",
            "    self.stats.update(input_rows=2)",
        ])
        architecture = "\n".join([
            "## SELECT routing",
            "| # | Shape | `operator` |",
            "|---|-------|------------|",
            "| 1 | a page | `stream-select` |",
            "| - | an ASK (`ASK`) | `ask` |",
            "",
            "| Sink | `operator` |",
            "|------|------------|",
            "| `_batch_topk` | `topk-id` |",
        ])
        assert self._written(source) == {"topk-id", "ask"}
        assert self._tabled(architecture) == {"stream-select", "ask"}


class TestObservabilityVocabulary:
    def test_the_registered_metrics_are_the_documented_ones(self):
        """Build a fully instrumented server + monitor, collect every
        metric name the stack registers, and require that set to *equal*
        the names of ARCHITECTURE.md's metric vocabulary table -- an
        undocumented metric and a documented one nothing registers are
        both vocabulary drift."""
        from repro.datagen import government_graph
        from repro.endpoint import (
            AvailabilityMonitor,
            EndpointNetwork,
            SimulationClock,
            SparqlEndpoint,
        )
        from repro.obs import Observatory
        from repro.serving import QueryServer, generate_workload

        clock = SimulationClock()
        endpoint = SparqlEndpoint(
            "http://vocab.example.org/sparql",
            government_graph(scale=0.05, seed=1),
            clock,
        )
        obs = Observatory(clock=clock, seed=0)
        server = QueryServer(endpoint, obs=obs)
        server.serve(generate_workload(sessions=2, seed=1))
        network = EndpointNetwork(clock)
        network.register(endpoint)
        AvailabilityMonitor(network, metrics=obs.metrics)

        registered = set(obs.metrics.names())
        with open(os.path.join(ROOT, "ARCHITECTURE.md")) as handle:
            architecture = handle.read()
        table = architecture.split("### Metric vocabulary", 1)[1].split("\n#", 1)[0]
        documented = {
            name
            for line in table.splitlines()
            if line.startswith("| `")
            for name in re.findall(r"`([^`]+)`", line.split("|")[1])
        }
        assert not registered - documented, (
            "metrics missing from the ARCHITECTURE.md vocabulary table: "
            f"{sorted(registered - documented)}"
        )
        assert not documented - registered, (
            "ARCHITECTURE.md documents metrics nothing registers: "
            f"{sorted(documented - registered)}"
        )


class TestDocumentation:
    def test_deliverable_documents_exist(self):
        for filename in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
            path = os.path.join(ROOT, filename)
            assert os.path.exists(path), filename
            assert os.path.getsize(path) > 2000, f"{filename} looks stubbed"

    def test_examples_exist_and_have_mains(self):
        examples_dir = os.path.join(ROOT, "examples")
        scripts = [f for f in os.listdir(examples_dir) if f.endswith(".py")]
        assert len(scripts) >= 3
        for script in scripts:
            with open(os.path.join(examples_dir, script)) as handle:
                text = handle.read()
            assert '__main__' in text, f"{script} is not runnable"
            assert text.lstrip().startswith('"""'), f"{script} lacks a docstring"

    def test_every_public_module_has_docstring(self):
        source_root = os.path.join(ROOT, "src", "repro")
        for directory, _, files in os.walk(source_root):
            for name in files:
                if not name.endswith(".py"):
                    continue
                path = os.path.join(directory, name)
                with open(path) as handle:
                    text = handle.read().lstrip()
                assert text.startswith('"""'), f"{path} lacks a module docstring"

    def test_design_lists_every_experiment(self):
        with open(os.path.join(ROOT, "DESIGN.md")) as handle:
            design = handle.read()
        for experiment in ("E1", "E2", "E3", "E4", "E5", "E6", "E7", "B1",
                           "F2", "F4", "F5", "F6", "F7"):
            assert experiment in design, f"DESIGN.md does not mention {experiment}"
