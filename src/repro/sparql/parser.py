"""Recursive-descent parser for the SPARQL subset.

Grammar coverage (see package docstring for the rationale):

* ``PREFIX`` / ``BASE`` prologue
* ``SELECT [DISTINCT] (*|vars|(expr AS ?v)...) WHERE { ... }``
* ``ASK { ... }``
* group graph patterns with triple patterns (``;`` and ``,`` abbreviations),
  ``OPTIONAL``, ``UNION``, ``FILTER``, ``VALUES`` and nested groups
* expressions: ``|| && ! = != < <= > >= + - * /``, ``IN`` / ``NOT IN``,
  ``EXISTS`` / ``NOT EXISTS``, builtin functions, aggregates
* solution modifiers: ``GROUP BY``, ``HAVING``, ``ORDER BY [ASC|DESC]``
  (bare variables, bracketed expressions or builtin calls), ``LIMIT``,
  ``OFFSET``

The parsed AST exposes its *shape* to the planner: bare-variable sort
keys and bare-variable/COUNT(*) aggregates normalize to forms the
evaluator's streaming operators (bounded top-k, incremental GROUP BY
folds) can detect via :meth:`SelectQuery.order_variables` and
:meth:`SelectQuery.aggregate_plan` without re-walking expressions.

Anything else raises :class:`UnsupportedSparqlError` with the offending
token's position, which is what a user of a subset engine actually needs.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from ..rdf.namespaces import PREFIXES as DEFAULT_PREFIXES
from ..rdf.terms import BNode, IRI, Literal, Term, Variable
from .errors import SparqlSyntaxError, UnsupportedSparqlError
from .nodes import (
    Aggregate,
    AndExpression,
    ArithmeticExpression,
    AskQuery,
    CompareExpression,
    ExistsExpression,
    Expression,
    FilterPattern,
    FunctionCall,
    GroupPattern,
    InExpression,
    NotExpression,
    OptionalPattern,
    OrderCondition,
    OrExpression,
    Projection,
    Query,
    SelectQuery,
    TermExpression,
    TriplePattern,
    UnionPattern,
    ValuesPattern,
    VariableExpression,
)
from .tokenizer import Token, tokenize

__all__ = ["parse_query", "parse_cache_info", "parse_cache_clear"]

_AGGREGATES = ("COUNT", "SUM", "AVG", "MIN", "MAX", "SAMPLE", "GROUP_CONCAT")
_BUILTINS = (
    "REGEX",
    "STR",
    "LANG",
    "LANGMATCHES",
    "DATATYPE",
    "BOUND",
    "IRI",
    "URI",
    "ISIRI",
    "ISURI",
    "ISBLANK",
    "ISLITERAL",
    "ISNUMERIC",
    "CONTAINS",
    "STRSTARTS",
    "STRENDS",
    "STRLEN",
    "UCASE",
    "LCASE",
    "CONCAT",
    "REPLACE",
    "ABS",
    "CEIL",
    "FLOOR",
    "ROUND",
    "COALESCE",
    "IF",
    "STRAFTER",
    "STRBEFORE",
)

_ESCAPES = {"t": "\t", "n": "\n", "r": "\r", '"': '"', "'": "'", "\\": "\\", "b": "\b", "f": "\f"}


def _unescape(raw: str) -> str:
    out = []
    i = 0
    while i < len(raw):
        c = raw[i]
        if c != "\\":
            out.append(c)
            i += 1
            continue
        nxt = raw[i + 1] if i + 1 < len(raw) else ""
        if nxt == "u":
            out.append(chr(int(raw[i + 2 : i + 6], 16)))
            i += 6
        elif nxt == "U":
            out.append(chr(int(raw[i + 2 : i + 10], 16)))
            i += 10
        else:
            out.append(_ESCAPES.get(nxt, nxt))
            i += 2
    return "".join(out)


class _Parser:
    def __init__(self, query: str):
        self.tokens = tokenize(query)
        self.pos = 0
        self.prefixes: Dict[str, str] = {p: ns.base for p, ns in DEFAULT_PREFIXES.items()}
        self.base = ""
        self._bnode_counter = 0

    # -- token plumbing ------------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        index = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind != "EOF":
            self.pos += 1
        return token

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        token = self.peek()
        if token.kind == kind and (text is None or token.text == text):
            return self.advance()
        return None

    def accept_keyword(self, *names: str) -> Optional[Token]:
        token = self.peek()
        if token.kind == "KEYWORD" and token.text in names:
            return self.advance()
        return None

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        token = self.advance()
        if token.kind != kind or (text is not None and token.text != text):
            raise SparqlSyntaxError(
                f"expected {text or kind}, got {token.text or 'end of input'!r}",
                token.line,
                token.column,
            )
        return token

    def expect_keyword(self, name: str) -> Token:
        token = self.advance()
        if token.kind != "KEYWORD" or token.text != name:
            raise SparqlSyntaxError(
                f"expected {name}, got {token.text or 'end of input'!r}",
                token.line,
                token.column,
            )
        return token

    def error(self, message: str, token: Optional[Token] = None) -> SparqlSyntaxError:
        token = token or self.peek()
        return SparqlSyntaxError(message, token.line, token.column)

    def unsupported(self, feature: str, token: Optional[Token] = None) -> UnsupportedSparqlError:
        token = token or self.peek()
        return UnsupportedSparqlError(
            f"{feature} is outside the implemented SPARQL subset", token.line, token.column
        )

    # -- entry ---------------------------------------------------------------

    def parse(self) -> Query:
        self._parse_prologue()
        token = self.peek()
        if token.is_keyword("SELECT"):
            query = self._parse_select()
        elif token.is_keyword("ASK"):
            query = self._parse_ask()
        elif token.is_keyword("CONSTRUCT", "DESCRIBE"):
            raise self.unsupported(f"{token.text} queries")
        else:
            raise self.error(f"expected SELECT or ASK, got {token.text!r}")
        end = self.peek()
        if end.kind != "EOF":
            raise self.error(f"unexpected trailing input {end.text!r}")
        return query

    def _parse_prologue(self) -> None:
        while True:
            if self.accept_keyword("PREFIX"):
                pname = self.expect("PNAME")
                if not pname.text.endswith(":"):
                    # "dc:title" style — only the bare "dc:" form is legal here
                    raise self.error("PREFIX declaration needs a bare 'prefix:'", pname)
                iri = self.expect("IRIREF")
                self.prefixes[pname.text[:-1]] = iri.text[1:-1]
            elif self.accept_keyword("BASE"):
                iri = self.expect("IRIREF")
                self.base = iri.text[1:-1]
            else:
                return

    # -- SELECT / ASK ----------------------------------------------------------

    def _parse_select(self) -> SelectQuery:
        self.expect_keyword("SELECT")
        distinct = bool(self.accept_keyword("DISTINCT"))
        self.accept_keyword("REDUCED")  # treated as plain SELECT

        projections: List[Projection] = []
        select_all = False
        if self.accept("OP", "*"):
            select_all = True
        else:
            while True:
                token = self.peek()
                if token.kind == "VAR":
                    self.advance()
                    projections.append(Projection(VariableExpression(Variable(token.text))))
                elif token.kind == "PUNCT" and token.text == "(":
                    self.advance()
                    expression = self._parse_expression()
                    self.expect_keyword("AS")
                    var_token = self.expect("VAR")
                    self.expect("PUNCT", ")")
                    projections.append(Projection(expression, Variable(var_token.text)))
                else:
                    break
            if not projections:
                raise self.error("SELECT needs * or at least one variable")

        self.accept_keyword("WHERE")
        where = self._parse_group_pattern()

        group_by: List[Expression] = []
        having: Optional[Expression] = None
        order_by: List[OrderCondition] = []
        limit: Optional[int] = None
        offset: Optional[int] = None

        while True:
            if self.accept_keyword("GROUP"):
                self.expect_keyword("BY")
                while True:
                    token = self.peek()
                    if token.kind == "VAR":
                        self.advance()
                        group_by.append(VariableExpression(Variable(token.text)))
                    elif token.kind == "PUNCT" and token.text == "(":
                        self.advance()
                        group_by.append(self._parse_expression())
                        self.expect("PUNCT", ")")
                    else:
                        break
                if not group_by:
                    raise self.error("GROUP BY needs at least one expression")
            elif self.accept_keyword("HAVING"):
                self.expect("PUNCT", "(")
                having = self._parse_expression()
                self.expect("PUNCT", ")")
            elif self.accept_keyword("ORDER"):
                self.expect_keyword("BY")
                while True:
                    token = self.peek()
                    if token.is_keyword("ASC", "DESC"):
                        descending = token.text == "DESC"
                        self.advance()
                        self.expect("PUNCT", "(")
                        expression = self._parse_expression()
                        self.expect("PUNCT", ")")
                        order_by.append(OrderCondition(expression, descending))
                    elif token.kind == "VAR":
                        self.advance()
                        order_by.append(OrderCondition(VariableExpression(Variable(token.text))))
                    elif token.kind == "PUNCT" and token.text == "(":
                        self.advance()
                        expression = self._parse_expression()
                        self.expect("PUNCT", ")")
                        order_by.append(OrderCondition(expression))
                    elif token.is_keyword(*_BUILTINS):
                        # Constraint-shaped condition, e.g. ORDER BY STRLEN(?l)
                        self.advance()
                        args = self._parse_expression_list()
                        order_by.append(OrderCondition(FunctionCall(token.text, args)))
                    else:
                        break
                if not order_by:
                    raise self.error("ORDER BY needs at least one condition")
            elif self.accept_keyword("LIMIT"):
                limit = int(self.expect("INTEGER").text)
                if limit < 0:
                    raise self.error("LIMIT must be non-negative")
            elif self.accept_keyword("OFFSET"):
                offset = int(self.expect("INTEGER").text)
                if offset < 0:
                    raise self.error("OFFSET must be non-negative")
            else:
                break

        return SelectQuery(
            projections,
            where,
            select_all=select_all,
            distinct=distinct,
            group_by=group_by,
            having=having,
            order_by=order_by,
            limit=limit,
            offset=offset,
        )

    def _parse_ask(self) -> AskQuery:
        self.expect_keyword("ASK")
        self.accept_keyword("WHERE")
        return AskQuery(self._parse_group_pattern())

    # -- graph patterns --------------------------------------------------------

    def _parse_group_pattern(self) -> GroupPattern:
        self.expect("PUNCT", "{")
        elements: List = []
        while True:
            token = self.peek()
            if token.kind == "PUNCT" and token.text == "}":
                self.advance()
                return GroupPattern(elements)
            if token.kind == "EOF":
                raise self.error("unterminated group pattern: missing '}'")

            if token.is_keyword("FILTER"):
                self.advance()
                elements.append(FilterPattern(self._parse_filter_constraint()))
                self.accept("PUNCT", ".")
            elif token.is_keyword("OPTIONAL"):
                self.advance()
                elements.append(OptionalPattern(self._parse_group_pattern()))
                self.accept("PUNCT", ".")
            elif token.is_keyword("VALUES"):
                self.advance()
                elements.append(self._parse_values())
                self.accept("PUNCT", ".")
            elif token.kind == "PUNCT" and token.text == "{":
                group = self._parse_group_pattern()
                alternatives = [group]
                while self.accept_keyword("UNION"):
                    alternatives.append(self._parse_group_pattern())
                if len(alternatives) > 1:
                    elements.append(UnionPattern(alternatives))
                else:
                    elements.append(group)
                self.accept("PUNCT", ".")
            else:
                elements.extend(self._parse_triples_block())

    def _parse_filter_constraint(self) -> Expression:
        token = self.peek()
        if token.kind == "PUNCT" and token.text == "(":
            self.advance()
            expression = self._parse_expression()
            self.expect("PUNCT", ")")
            return expression
        # FILTER REGEX(...), FILTER EXISTS {...}, FILTER NOT EXISTS {...}
        if token.is_keyword(*_BUILTINS):
            return self._parse_primary_expression()
        if token.is_keyword("EXISTS"):
            self.advance()
            return ExistsExpression(self._parse_group_pattern(), negated=False)
        if token.is_keyword("NOT"):
            self.advance()
            self.expect_keyword("EXISTS")
            return ExistsExpression(self._parse_group_pattern(), negated=True)
        raise self.error(f"expected filter constraint, got {token.text!r}")

    def _parse_values(self) -> ValuesPattern:
        token = self.peek()
        variables: List[Variable] = []
        rows: List[Tuple[Optional[Term], ...]] = []
        if token.kind == "VAR":
            self.advance()
            variables.append(Variable(token.text))
            self.expect("PUNCT", "{")
            while not self.accept("PUNCT", "}"):
                rows.append((self._parse_values_term(),))
        elif token.kind == "PUNCT" and token.text == "(":
            self.advance()
            while not self.accept("PUNCT", ")"):
                variables.append(Variable(self.expect("VAR").text))
            self.expect("PUNCT", "{")
            while not self.accept("PUNCT", "}"):
                self.expect("PUNCT", "(")
                row: List[Optional[Term]] = []
                while not self.accept("PUNCT", ")"):
                    row.append(self._parse_values_term())
                if len(row) != len(variables):
                    raise self.error("VALUES row arity mismatch")
                rows.append(tuple(row))
        else:
            raise self.error("malformed VALUES clause")
        return ValuesPattern(variables, rows)

    def _parse_values_term(self) -> Optional[Term]:
        if self.accept_keyword("UNDEF"):
            return None
        term = self._parse_term(allow_variable=False)
        return term

    def _parse_triples_block(self) -> List[TriplePattern]:
        patterns: List[TriplePattern] = []
        subject = self._parse_term()
        while True:
            predicate = self._parse_verb()
            while True:
                obj = self._parse_term()
                patterns.append(TriplePattern(subject, predicate, obj))
                if self.accept("PUNCT", ","):
                    continue
                break
            if self.accept("PUNCT", ";"):
                nxt = self.peek()
                if nxt.kind == "PUNCT" and nxt.text in (".", "}"):
                    self.accept("PUNCT", ".")
                    return patterns
                continue
            break
        self.accept("PUNCT", ".")
        return patterns

    def _parse_verb(self):
        token = self.peek()
        if token.kind == "VAR":
            self.advance()
            return Variable(token.text)
        return self._parse_path()

    # -- property paths -----------------------------------------------------

    def _parse_path(self):
        """PathAlternative: seq ('|' seq)*  -- returns IRI or a Path node."""
        from .paths import AlternativePath

        choices = [self._parse_path_sequence()]
        while self.accept("OP", "|"):
            choices.append(self._parse_path_sequence())
        if len(choices) == 1:
            return choices[0]
        return AlternativePath(choices)

    def _parse_path_sequence(self):
        from .paths import SequencePath

        steps = [self._parse_path_elt()]
        while self.accept("OP", "/"):
            steps.append(self._parse_path_elt())
        if len(steps) == 1:
            return steps[0]
        return SequencePath(steps)

    def _parse_path_elt(self):
        from .paths import ClosurePath

        primary = self._parse_path_primary()
        if self.accept("OP", "*"):
            return ClosurePath(primary, include_zero=True)
        if self.accept("OP", "+"):
            return ClosurePath(primary, include_zero=False)
        return primary

    def _parse_path_primary(self):
        from .paths import InversePath

        token = self.peek()
        if token.kind == "CARET":
            self.advance()
            return InversePath(self._parse_path_primary())
        if token.kind == "PUNCT" and token.text == "(":
            self.advance()
            path = self._parse_path()
            self.expect("PUNCT", ")")
            return path
        if token.kind == "A":
            self.advance()
            return IRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")
        if token.kind == "IRIREF":
            self.advance()
            return IRI(self._resolve(token.text[1:-1]))
        if token.kind == "PNAME":
            self.advance()
            return self._expand_pname(token)
        raise self.error(f"expected predicate or path, got {token.text!r}")

    def _parse_term(self, allow_variable: bool = True):
        token = self.peek()
        if token.kind == "VAR":
            if not allow_variable:
                raise self.error("variable not allowed here")
            self.advance()
            return Variable(token.text)
        if token.kind == "IRIREF":
            self.advance()
            return IRI(self._resolve(token.text[1:-1]))
        if token.kind == "PNAME":
            self.advance()
            return self._expand_pname(token)
        if token.kind == "A":
            self.advance()
            return IRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")
        if token.kind == "BNODE":
            self.advance()
            return BNode(token.text[2:])
        if token.kind == "PUNCT" and token.text == "[":
            self.advance()
            self.expect("PUNCT", "]")
            self._bnode_counter += 1
            return BNode(f"anon_q{self._bnode_counter}")
        if token.kind in ("STRING", "LONG_STRING"):
            return self._parse_literal()
        if token.kind == "INTEGER":
            self.advance()
            return Literal(int(token.text))
        if token.kind == "DECIMAL":
            self.advance()
            return Literal(token.text, datatype="http://www.w3.org/2001/XMLSchema#decimal")
        if token.kind == "DOUBLE":
            self.advance()
            return Literal(float(token.text))
        if token.is_keyword("TRUE", "FALSE"):
            self.advance()
            return Literal(token.text == "TRUE")
        raise self.error(f"expected RDF term, got {token.text or 'end of input'!r}")

    def _parse_literal(self) -> Literal:
        token = self.advance()
        if token.kind == "LONG_STRING":
            raw = token.text[3:-3]
        else:
            raw = token.text[1:-1]
        lexical = _unescape(raw)
        nxt = self.peek()
        if nxt.kind == "LANGTAG":
            self.advance()
            return Literal(lexical, language=nxt.text[1:])
        if nxt.kind == "DOUBLE_CARET":
            self.advance()
            dtype_token = self.peek()
            if dtype_token.kind == "IRIREF":
                self.advance()
                return Literal(lexical, datatype=self._resolve(dtype_token.text[1:-1]))
            if dtype_token.kind == "PNAME":
                self.advance()
                return Literal(lexical, datatype=self._expand_pname(dtype_token).value)
            raise self.error("expected datatype IRI after ^^")
        return Literal(lexical)

    def _expand_pname(self, token: Token) -> IRI:
        prefix, _, local = token.text.partition(":")
        if prefix not in self.prefixes:
            raise self.error(f"unknown prefix {prefix!r}", token)
        return IRI(self.prefixes[prefix] + local)

    def _resolve(self, value: str) -> str:
        if self.base and "://" not in value and not value.startswith("urn:"):
            return self.base + value
        return value

    # -- expressions -----------------------------------------------------------

    def _parse_expression(self) -> Expression:
        return self._parse_or()

    def _parse_or(self) -> Expression:
        left = self._parse_and()
        while self.accept("OP", "||"):
            left = OrExpression(left, self._parse_and())
        return left

    def _parse_and(self) -> Expression:
        left = self._parse_relational()
        while self.accept("OP", "&&"):
            left = AndExpression(left, self._parse_relational())
        return left

    def _parse_relational(self) -> Expression:
        left = self._parse_additive()
        token = self.peek()
        if token.kind == "OP" and token.text in ("=", "!=", "<", "<=", ">", ">="):
            self.advance()
            return CompareExpression(token.text, left, self._parse_additive())
        if token.is_keyword("IN"):
            self.advance()
            return InExpression(left, self._parse_expression_list(), negated=False)
        if token.is_keyword("NOT"):
            self.advance()
            if self.accept_keyword("IN"):
                return InExpression(left, self._parse_expression_list(), negated=True)
            self.expect_keyword("EXISTS")
            return ExistsExpression(self._parse_group_pattern(), negated=True)
        return left

    def _parse_expression_list(self) -> List[Expression]:
        self.expect("PUNCT", "(")
        items: List[Expression] = []
        if not self.accept("PUNCT", ")"):
            items.append(self._parse_expression())
            while self.accept("PUNCT", ","):
                items.append(self._parse_expression())
            self.expect("PUNCT", ")")
        return items

    def _parse_additive(self) -> Expression:
        left = self._parse_multiplicative()
        while True:
            token = self.peek()
            if token.kind == "OP" and token.text in ("+", "-"):
                self.advance()
                left = ArithmeticExpression(token.text, left, self._parse_multiplicative())
            else:
                return left

    def _parse_multiplicative(self) -> Expression:
        left = self._parse_unary()
        while True:
            token = self.peek()
            if token.kind == "OP" and token.text in ("*", "/"):
                self.advance()
                left = ArithmeticExpression(token.text, left, self._parse_unary())
            else:
                return left

    def _parse_unary(self) -> Expression:
        token = self.peek()
        if token.kind == "OP" and token.text == "!":
            self.advance()
            return NotExpression(self._parse_unary())
        if token.kind == "OP" and token.text == "-":
            self.advance()
            operand = self._parse_unary()
            return ArithmeticExpression("-", TermExpression(Literal(0)), operand)
        if token.kind == "OP" and token.text == "+":
            self.advance()
            return self._parse_unary()
        return self._parse_primary_expression()

    def _parse_primary_expression(self) -> Expression:
        token = self.peek()
        if token.kind == "PUNCT" and token.text == "(":
            self.advance()
            expression = self._parse_expression()
            self.expect("PUNCT", ")")
            return expression
        if token.kind == "VAR":
            self.advance()
            return VariableExpression(Variable(token.text))
        if token.is_keyword(*_AGGREGATES):
            return self._parse_aggregate()
        if token.is_keyword(*_BUILTINS):
            self.advance()
            args = self._parse_expression_list()
            return FunctionCall(token.text, args)
        if token.is_keyword("EXISTS"):
            self.advance()
            return ExistsExpression(self._parse_group_pattern(), negated=False)
        if token.is_keyword("NOT"):
            self.advance()
            self.expect_keyword("EXISTS")
            return ExistsExpression(self._parse_group_pattern(), negated=True)
        if token.is_keyword("TRUE", "FALSE"):
            self.advance()
            return TermExpression(Literal(token.text == "TRUE"))
        if token.kind in ("STRING", "LONG_STRING", "INTEGER", "DECIMAL", "DOUBLE"):
            return TermExpression(self._parse_term())
        if token.kind in ("IRIREF", "PNAME"):
            return TermExpression(self._parse_term())
        raise self.error(f"expected expression, got {token.text or 'end of input'!r}")

    def _parse_aggregate(self) -> Aggregate:
        token = self.advance()
        function = token.text
        self.expect("PUNCT", "(")
        distinct = bool(self.accept_keyword("DISTINCT"))
        expression: Optional[Expression] = None
        separator = " "
        if self.accept("OP", "*"):
            if function != "COUNT":
                raise self.error("only COUNT accepts *", token)
        else:
            expression = self._parse_expression()
        if function == "GROUP_CONCAT" and self.accept("PUNCT", ";"):
            self.expect_keyword("SEPARATOR")
            self.expect("OP", "=")
            sep_token = self.expect("STRING")
            separator = _unescape(sep_token.text[1:-1])
        self.expect("PUNCT", ")")
        return Aggregate(function, expression, distinct=distinct, separator=separator)


#: Sized to the measured working set: one census pass over the
#: 110-endpoint fleet sends ~5.3k queries, ~3.2k of them distinct texts
#: (per-class extraction probes).  A smaller LRU evicts every probe
#: before its text recurs, and each re-parse mints a new AST whose
#: identity-keyed plan-cache entries pin the dead one.
AST_CACHE_SIZE = 8192


@lru_cache(maxsize=AST_CACHE_SIZE)
def _parse_cached(query: str) -> Query:
    return _Parser(query).parse()


def parse_query(query: str) -> Query:
    """Parse SPARQL *query* text into an AST.

    Raises :class:`SparqlSyntaxError` on malformed input and
    :class:`UnsupportedSparqlError` for syntax outside the subset.

    Repeated identical query strings return the *same* AST object from an
    LRU (``AST_CACHE_SIZE`` texts): the fleet workloads (extraction templates, liveness probes,
    the Listing 1 crawl) re-issue a handful of fixed strings against
    hundreds of endpoints, so tokenizing and parsing each time was pure
    overhead.  Caching is sound because the AST is never mutated after
    parse -- the evaluator copies nodes before any substitution -- and it
    is what lets the evaluator key compiled plans by AST identity.
    """
    return _parse_cached(query)


def parse_cache_info():
    """Hit/miss statistics of the parse LRU (for benchmarks and tests)."""
    return _parse_cached.cache_info()


def parse_cache_clear() -> None:
    """Drop every cached AST (for benchmarks and tests)."""
    _parse_cached.cache_clear()
