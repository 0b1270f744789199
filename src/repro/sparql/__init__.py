"""A from-scratch SPARQL engine for the subset H-BOLD's workload needs.

Implemented surface:

* query forms: ``SELECT`` (with ``DISTINCT``, expression projections,
  ``GROUP BY`` + aggregates, ``HAVING``, ``ORDER BY``, ``LIMIT``/``OFFSET``)
  and ``ASK``
* patterns: basic graph patterns with ``;``/``,`` abbreviations and ``a``,
  ``OPTIONAL``, ``UNION``, nested groups, ``FILTER``, ``VALUES``
* expressions: boolean connectives, comparisons with numeric promotion,
  arithmetic, ``IN``/``NOT IN``, ``EXISTS``/``NOT EXISTS`` and the builtin
  functions used in practice (``REGEX`` -- the Listing 1 crawl query --,
  string tests, ``STR``/``LANG``/``DATATYPE``/``BOUND``/``IRI``, numerics)
* aggregates: ``COUNT`` (incl. ``*`` and ``DISTINCT``), ``SUM``, ``AVG``,
  ``MIN``, ``MAX``, ``SAMPLE``, ``GROUP_CONCAT``

``CONSTRUCT``/``DESCRIBE``, property paths, subqueries, named graphs and
federation raise :class:`UnsupportedSparqlError`.
"""

from .errors import (
    SparqlError,
    SparqlEvaluationError,
    SparqlSyntaxError,
    UnsupportedSparqlError,
)
from .evaluator import Execution, QueryEngine, evaluate
from .nodes import AskQuery, Query, SelectQuery
from .parser import parse_query
from .results import AskResult, SelectResult

__all__ = [
    "AskQuery",
    "AskResult",
    "Execution",
    "Query",
    "QueryEngine",
    "SelectQuery",
    "SelectResult",
    "SparqlError",
    "SparqlEvaluationError",
    "SparqlSyntaxError",
    "UnsupportedSparqlError",
    "evaluate",
    "parse_query",
]
