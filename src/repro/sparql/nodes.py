"""AST node classes for the SPARQL subset.

The parser builds these; the evaluator consumes them.  Expression nodes form
their own small hierarchy under :class:`Expression`.  All nodes are plain
data holders with ``repr`` support for debugging and structural equality to
make parser tests pleasant.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

from ..rdf.terms import IRI, Literal, Term, Variable

__all__ = [
    "TriplePattern",
    "GroupPattern",
    "OptionalPattern",
    "UnionPattern",
    "FilterPattern",
    "ValuesPattern",
    "Expression",
    "TermExpression",
    "VariableExpression",
    "AndExpression",
    "OrExpression",
    "NotExpression",
    "CompareExpression",
    "ArithmeticExpression",
    "FunctionCall",
    "InExpression",
    "ExistsExpression",
    "Aggregate",
    "Projection",
    "OrderCondition",
    "SelectQuery",
    "AskQuery",
    "Query",
]


class _Node:
    """Base: structural equality + readable repr over ``__slots__``."""

    __slots__ = ()

    def _fields(self) -> Tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and other._fields() == self._fields()

    def __hash__(self) -> int:
        return hash((type(self),) + self._fields())

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__name__}({inner})"


# --------------------------------------------------------------------------
# Graph patterns
# --------------------------------------------------------------------------

PatternTerm = Union[Term, Variable]


class TriplePattern(_Node):
    """A triple pattern; any position may hold a :class:`Variable`."""

    __slots__ = ("subject", "predicate", "object")

    def __init__(self, subject: PatternTerm, predicate: PatternTerm, object: PatternTerm):
        self.subject = subject
        self.predicate = predicate
        self.object = object

    def variables(self) -> List[Variable]:
        return [t for t in (self.subject, self.predicate, self.object) if isinstance(t, Variable)]


class GroupPattern(_Node):
    """``{ ... }`` — an ordered list of pattern elements."""

    __slots__ = ("elements",)

    def __init__(self, elements: Sequence):
        self.elements = list(elements)

    def _fields(self):
        return (tuple(self.elements),)


class OptionalPattern(_Node):
    """``OPTIONAL { ... }``"""

    __slots__ = ("group",)

    def __init__(self, group: GroupPattern):
        self.group = group


class UnionPattern(_Node):
    """``{ A } UNION { B } UNION ...`` — two or more alternatives."""

    __slots__ = ("alternatives",)

    def __init__(self, alternatives: Sequence[GroupPattern]):
        self.alternatives = list(alternatives)

    def _fields(self):
        return (tuple(self.alternatives),)


class FilterPattern(_Node):
    """``FILTER ( expr )``"""

    __slots__ = ("expression",)

    def __init__(self, expression: "Expression"):
        self.expression = expression


class ValuesPattern(_Node):
    """``VALUES ?v { ... }`` / ``VALUES (?a ?b) { (..) (..) }`` inline data."""

    __slots__ = ("variables", "rows")

    def __init__(self, variables: Sequence[Variable], rows: Sequence[Tuple[Optional[Term], ...]]):
        self.variables = list(variables)
        self.rows = [tuple(row) for row in rows]

    def _fields(self):
        return (tuple(self.variables), tuple(self.rows))


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------


class Expression(_Node):
    """Marker base class for filter / projection expressions."""

    __slots__ = ()


class TermExpression(Expression):
    """A constant RDF term inside an expression."""

    __slots__ = ("term",)

    def __init__(self, term: Term):
        self.term = term


class VariableExpression(Expression):
    __slots__ = ("variable",)

    def __init__(self, variable: Variable):
        self.variable = variable


class AndExpression(Expression):
    __slots__ = ("left", "right")

    def __init__(self, left: Expression, right: Expression):
        self.left = left
        self.right = right


class OrExpression(Expression):
    __slots__ = ("left", "right")

    def __init__(self, left: Expression, right: Expression):
        self.left = left
        self.right = right


class NotExpression(Expression):
    __slots__ = ("operand",)

    def __init__(self, operand: Expression):
        self.operand = operand


class CompareExpression(Expression):
    """``=  !=  <  <=  >  >=`` on RDF terms with numeric promotion."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expression, right: Expression):
        if op not in ("=", "!=", "<", "<=", ">", ">="):
            raise ValueError(f"bad comparison operator {op!r}")
        self.op = op
        self.left = left
        self.right = right


class ArithmeticExpression(Expression):
    """``+ - * /`` on numeric literals."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expression, right: Expression):
        if op not in ("+", "-", "*", "/"):
            raise ValueError(f"bad arithmetic operator {op!r}")
        self.op = op
        self.left = left
        self.right = right


class FunctionCall(Expression):
    """A builtin call: REGEX, STR, LANG, DATATYPE, BOUND, CONTAINS, ..."""

    __slots__ = ("name", "args")

    def __init__(self, name: str, args: Sequence[Expression]):
        self.name = name.upper()
        self.args = list(args)

    def _fields(self):
        return (self.name, tuple(self.args))


class InExpression(Expression):
    """``expr IN (e1, e2, ...)`` / ``expr NOT IN (...)``"""

    __slots__ = ("operand", "choices", "negated")

    def __init__(self, operand: Expression, choices: Sequence[Expression], negated: bool):
        self.operand = operand
        self.choices = list(choices)
        self.negated = negated

    def _fields(self):
        return (self.operand, tuple(self.choices), self.negated)


class ExistsExpression(Expression):
    """``EXISTS { ... }`` / ``NOT EXISTS { ... }``"""

    __slots__ = ("group", "negated")

    def __init__(self, group: GroupPattern, negated: bool):
        self.group = group
        self.negated = negated


class Aggregate(Expression):
    """``COUNT/SUM/AVG/MIN/MAX/SAMPLE/GROUP_CONCAT`` (expr may be None for COUNT(*))."""

    __slots__ = ("function", "expression", "distinct", "separator")

    def __init__(
        self,
        function: str,
        expression: Optional[Expression],
        distinct: bool = False,
        separator: str = " ",
    ):
        function = function.upper()
        if function not in ("COUNT", "SUM", "AVG", "MIN", "MAX", "SAMPLE", "GROUP_CONCAT"):
            raise ValueError(f"unknown aggregate {function!r}")
        self.function = function
        self.expression = expression
        self.distinct = distinct
        self.separator = separator


# --------------------------------------------------------------------------
# Query forms
# --------------------------------------------------------------------------


class Projection(_Node):
    """One SELECT item: a bare variable or ``(expr AS ?alias)``."""

    __slots__ = ("expression", "alias")

    def __init__(self, expression: Expression, alias: Optional[Variable] = None):
        self.expression = expression
        self.alias = alias

    @property
    def variable(self) -> Optional[Variable]:
        """The output variable this projection binds."""
        if self.alias is not None:
            return self.alias
        if isinstance(self.expression, VariableExpression):
            return self.expression.variable
        return None


class OrderCondition(_Node):
    __slots__ = ("expression", "descending")

    def __init__(self, expression: Expression, descending: bool = False):
        self.expression = expression
        self.descending = descending

    @property
    def variable(self) -> Optional[Variable]:
        """The bare sort variable, or None for expression conditions.

        ``ORDER BY ?x``, ``ORDER BY ASC(?x)`` and ``ORDER BY (?x)`` all
        parse to a :class:`VariableExpression` condition, so this is the
        planner's one test for "can the sort key be read straight off a
        solution column".
        """
        if isinstance(self.expression, VariableExpression):
            return self.expression.variable
        return None


class SelectQuery(_Node):
    """A parsed SELECT query."""

    __slots__ = (
        "projections",
        "select_all",
        "distinct",
        "where",
        "group_by",
        "having",
        "order_by",
        "limit",
        "offset",
    )

    def __init__(
        self,
        projections: Sequence[Projection],
        where: GroupPattern,
        select_all: bool = False,
        distinct: bool = False,
        group_by: Optional[Sequence[Expression]] = None,
        having: Optional[Expression] = None,
        order_by: Optional[Sequence[OrderCondition]] = None,
        limit: Optional[int] = None,
        offset: Optional[int] = None,
    ):
        self.projections = list(projections)
        self.select_all = select_all
        self.distinct = distinct
        self.where = where
        self.group_by = list(group_by) if group_by else []
        self.having = having
        self.order_by = list(order_by) if order_by else []
        self.limit = limit
        self.offset = offset

    def _fields(self):
        return (
            tuple(self.projections),
            self.select_all,
            self.distinct,
            self.where,
            tuple(self.group_by),
            self.having,
            tuple(self.order_by),
            self.limit,
            self.offset,
        )

    def has_aggregates(self) -> bool:
        return bool(self.group_by) or any(
            _contains_aggregate(p.expression) for p in self.projections
        )

    # -- planner shape probes ------------------------------------------------
    #
    # The evaluator's streaming operators (bounded top-k ORDER BY, the
    # incremental GROUP BY fold) only cover queries whose sort keys and
    # aggregates are column-shaped.  The probes live here, next to the
    # grammar that produces the nodes, so every pipeline asks the same
    # question the same way.

    def order_variables(self) -> Optional[List[Variable]]:
        """The sort columns when every ORDER BY condition is a bare
        variable (in condition order), else None."""
        variables: List[Variable] = []
        for condition in self.order_by:
            variable = condition.variable
            if variable is None:
                return None
            variables.append(variable)
        return variables

    def aggregate_plan(self):
        """``(group_vars, items)`` when grouping/aggregation is bare-variable
        shaped, else None.

        ``items`` holds one entry per projection: ``("var", Variable, name)``
        for a bare grouped variable, ``("agg", Aggregate, name)`` for an
        aggregate whose argument is ``*`` or a bare variable.  This is the
        shape both the columnar aggregate sink and the streaming fold can
        execute without the expression interpreter.
        """
        group_vars: List[Variable] = []
        for expression in self.group_by:
            if not isinstance(expression, VariableExpression):
                return None
            group_vars.append(expression.variable)
        items = []
        for projection in self.projections:
            variable = projection.variable
            if variable is None:
                return None
            expression = projection.expression
            if isinstance(expression, VariableExpression):
                items.append(("var", expression.variable, variable.name))
            elif isinstance(expression, Aggregate):
                if expression.expression is not None and not isinstance(
                    expression.expression, VariableExpression
                ):
                    return None
                items.append(("agg", expression, variable.name))
            else:
                return None
        return group_vars, items

    def having_aggregate_conjuncts(self):
        """``[(aggregate, op, constant)]`` when HAVING is a conjunction of
        aggregate-vs-constant comparisons, else None.

        The shape the incremental fold can gate at result time:
        ``HAVING (COUNT(?s) > 3)``, ``HAVING (2 <= COUNT(?s) &&
        SUM(?n) < 10)`` and the like.  Each conjunct must compare one
        column-shaped aggregate (argument ``*`` or a bare variable)
        against a ground term; the aggregate may sit on either side
        (the operator is flipped so it always reads aggregate-vs-
        constant).  Anything else -- non-aggregate operands, nested
        expressions, OR -- returns None and stays on the materialized
        member-list path.
        """
        if self.having is None:
            return None
        conjuncts: List[Tuple[Aggregate, str, Term]] = []
        _FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}

        def walk(expression: Expression) -> bool:
            if isinstance(expression, AndExpression):
                return walk(expression.left) and walk(expression.right)
            if not isinstance(expression, CompareExpression):
                return False
            left, right = expression.left, expression.right
            if isinstance(left, Aggregate) and isinstance(right, TermExpression):
                aggregate, op, constant = left, expression.op, right.term
            elif isinstance(right, Aggregate) and isinstance(left, TermExpression):
                aggregate, op, constant = right, _FLIP[expression.op], left.term
            else:
                return False
            if aggregate.expression is not None and not isinstance(
                aggregate.expression, VariableExpression
            ):
                return False
            conjuncts.append((aggregate, op, constant))
            return True

        return conjuncts if walk(self.having) else None


class AskQuery(_Node):
    """A parsed ASK query."""

    __slots__ = ("where",)

    def __init__(self, where: GroupPattern):
        self.where = where


Query = Union[SelectQuery, AskQuery]


def _contains_aggregate(expression: Expression) -> bool:
    if isinstance(expression, Aggregate):
        return True
    for slot in expression.__slots__:
        value = getattr(expression, slot)
        if isinstance(value, Expression) and _contains_aggregate(value):
            return True
        if isinstance(value, list):
            if any(isinstance(v, Expression) and _contains_aggregate(v) for v in value):
                return True
    return False


def contains_aggregate(expression: Expression) -> bool:
    """Public wrapper: does *expression* contain an :class:`Aggregate`?"""
    return _contains_aggregate(expression)
