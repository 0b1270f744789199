"""RDF term model: IRIs, literals, blank nodes, variables and triples.

These are the atoms every other layer (triple store, SPARQL engine, endpoint
simulator, H-BOLD core) is built from.  Terms are immutable, hashable and
ordered so they can live in set-based indexes and sorted result sequences.

The ordering follows the SPARQL ``ORDER BY`` term ordering: blank nodes sort
before IRIs, IRIs before literals (SPARQL 1.1 section 15.1), with a total
order inside each kind so sorting is deterministic.
"""

from __future__ import annotations

import re
from typing import Optional, Tuple, Union

__all__ = [
    "Term",
    "IRI",
    "BNode",
    "Literal",
    "Variable",
    "Triple",
    "XSD_STRING",
    "XSD_INTEGER",
    "XSD_DECIMAL",
    "XSD_DOUBLE",
    "XSD_BOOLEAN",
    "XSD_DATETIME",
    "XSD_DATE",
]

XSD = "http://www.w3.org/2001/XMLSchema#"
XSD_STRING = XSD + "string"
XSD_INTEGER = XSD + "integer"
XSD_DECIMAL = XSD + "decimal"
XSD_DOUBLE = XSD + "double"
XSD_BOOLEAN = XSD + "boolean"
XSD_DATETIME = XSD + "dateTime"
XSD_DATE = XSD + "date"

_NUMERIC_DATATYPES = frozenset({XSD_INTEGER, XSD_DECIMAL, XSD_DOUBLE})

# Sort keys per term kind (SPARQL ordering: bnode < IRI < literal).
_KIND_BNODE = 0
_KIND_IRI = 1
_KIND_LITERAL = 2
_KIND_VARIABLE = 3

_IRI_RE = re.compile(r"^[^<>\"{}|^`\\\x00-\x20]*$")
_LANG_RE = re.compile(r"^[a-zA-Z]+(-[a-zA-Z0-9]+)*$")
_BNODE_LABEL_RE = re.compile(r"^[A-Za-z0-9_][A-Za-z0-9_.-]*$")
_VAR_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


class Term:
    """Common base for all RDF terms.

    Subclasses are slotted, immutable value objects.  ``sort_key()`` yields a
    tuple comparable across *all* term kinds.
    """

    __slots__ = ()

    def sort_key(self) -> Tuple:
        raise NotImplementedError

    def n3(self) -> str:
        """Return the N-Triples / SPARQL surface syntax for this term."""
        raise NotImplementedError

    def __lt__(self, other: "Term") -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        return self.sort_key() < other.sort_key()

    def __le__(self, other: "Term") -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        return self.sort_key() <= other.sort_key()

    def __gt__(self, other: "Term") -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        return self.sort_key() > other.sort_key()

    def __ge__(self, other: "Term") -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        return self.sort_key() >= other.sort_key()


class IRI(Term):
    """An absolute (or at least opaque) IRI reference."""

    __slots__ = ("value", "_hash")

    #: the kind code :class:`~repro.rdf.dictionary.TermDict` keeps per ID
    #: (0 is a free ID); the SPARQL term tests read it and never decode
    KIND = 1

    def __init__(self, value: str):
        if not isinstance(value, str):
            raise TypeError(f"IRI value must be str, got {type(value).__name__}")
        if not value:
            raise ValueError("IRI value must be non-empty")
        if not _IRI_RE.match(value):
            raise ValueError(f"invalid IRI: {value!r}")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "_hash", hash((IRI, value)))

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("IRI is immutable")

    @classmethod
    def _restore(cls, value: str) -> "IRI":
        """Rebuild without validation: for deserializing terms that were
        validated when first interned (the durability snapshot/WAL path,
        where per-term regex checks dominate recovery time)."""
        self = object.__new__(cls)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "_hash", hash((IRI, value)))
        return self

    def __eq__(self, other) -> bool:
        return isinstance(other, IRI) and other.value == self.value

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"IRI({self.value!r})"

    def __str__(self) -> str:
        return self.value

    def n3(self) -> str:
        return f"<{self.value}>"

    def sort_key(self) -> Tuple:
        return (_KIND_IRI, self.value)

    def local_name(self) -> str:
        """Heuristic local name: the fragment, else the last path segment."""
        value = self.value
        if "#" in value:
            frag = value.rsplit("#", 1)[1]
            if frag:
                return frag
        tail = value.rstrip("/").rsplit("/", 1)[-1]
        return tail or value

    def namespace(self) -> str:
        """The IRI minus :meth:`local_name` (best-effort prefix split)."""
        local = self.local_name()
        if local and self.value.endswith(local):
            return self.value[: -len(local)]
        return self.value


class BNode(Term):
    """A blank node with an explicit label."""

    __slots__ = ("label", "_hash")

    KIND = 2  # see IRI.KIND
    _counter = 0

    def __init__(self, label: Optional[str] = None):
        if label is None:
            BNode._counter += 1
            label = f"b{BNode._counter}"
        if not isinstance(label, str):
            raise TypeError("BNode label must be str")
        if not _BNODE_LABEL_RE.match(label):
            raise ValueError(f"invalid blank node label: {label!r}")
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "_hash", hash((BNode, label)))

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("BNode is immutable")

    @classmethod
    def _restore(cls, label: str) -> "BNode":
        """Rebuild without validation (see :meth:`IRI._restore`)."""
        self = object.__new__(cls)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "_hash", hash((BNode, label)))
        return self

    def __eq__(self, other) -> bool:
        return isinstance(other, BNode) and other.label == self.label

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"BNode({self.label!r})"

    def __str__(self) -> str:
        return f"_:{self.label}"

    def n3(self) -> str:
        return f"_:{self.label}"

    def sort_key(self) -> Tuple:
        return (_KIND_BNODE, self.label)


class Literal(Term):
    """An RDF literal: lexical form + optional language tag or datatype IRI.

    ``Literal`` accepts native Python values and maps them onto XSD types::

        Literal(3)       -> "3"^^xsd:integer
        Literal(2.5)     -> "2.5"^^xsd:double  (inf / nan -> "INF" / "NaN")
        Literal(True)    -> "true"^^xsd:boolean
        Literal("hi")    -> plain string literal (xsd:string)
    """

    __slots__ = ("lexical", "language", "datatype", "_hash")

    KIND = 3  # see IRI.KIND

    def __init__(
        self,
        value: Union[str, int, float, bool],
        language: Optional[str] = None,
        datatype: Optional[Union[str, IRI]] = None,
    ):
        if language is not None and datatype is not None:
            raise ValueError("a literal cannot carry both language and datatype")

        if isinstance(value, bool):
            lexical = "true" if value else "false"
            datatype = datatype or XSD_BOOLEAN
        elif isinstance(value, int):
            lexical = str(value)
            datatype = datatype or XSD_INTEGER
        elif isinstance(value, float):
            lexical = repr(value).replace("inf", "INF").replace("nan", "NaN")  # XSD's forms
            datatype = datatype or XSD_DOUBLE
        elif isinstance(value, str):
            lexical = value
        else:
            raise TypeError(f"unsupported literal value type: {type(value).__name__}")

        if language is not None:
            if not _LANG_RE.match(language):
                raise ValueError(f"invalid language tag: {language!r}")
            language = language.lower()

        if isinstance(datatype, IRI):
            datatype = datatype.value
        if datatype == XSD_STRING:
            datatype = None  # plain literal and xsd:string are the same value space

        object.__setattr__(self, "lexical", lexical)
        object.__setattr__(self, "language", language)
        object.__setattr__(self, "datatype", datatype)
        object.__setattr__(self, "_hash", hash((Literal, lexical, language, datatype)))

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("Literal is immutable")

    @classmethod
    def _restore(
        cls, lexical: str, language: Optional[str], datatype: Optional[str]
    ) -> "Literal":
        """Rebuild from already-normalized fields (see :meth:`IRI._restore`):
        *language* is stored lowercased and plain/xsd:string literals carry
        ``datatype=None``, so the constructor's mapping must not re-run."""
        self = object.__new__(cls)
        object.__setattr__(self, "lexical", lexical)
        object.__setattr__(self, "language", language)
        object.__setattr__(self, "datatype", datatype)
        object.__setattr__(self, "_hash", hash((Literal, lexical, language, datatype)))
        return self

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Literal)
            and other.lexical == self.lexical
            and other.language == self.language
            and other.datatype == self.datatype
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        extra = ""
        if self.language:
            extra = f", language={self.language!r}"
        elif self.datatype:
            extra = f", datatype={self.datatype!r}"
        return f"Literal({self.lexical!r}{extra})"

    def __str__(self) -> str:
        return self.lexical

    def n3(self) -> str:
        escaped = (
            self.lexical.replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n")
            .replace("\r", "\\r")
            .replace("\t", "\\t")
        )
        if self.language:
            return f'"{escaped}"@{self.language}'
        if self.datatype:
            return f'"{escaped}"^^<{self.datatype}>'
        return f'"{escaped}"'

    def sort_key(self) -> Tuple:
        """Numeric literals order by numeric value among themselves, before
        the rest.  A NaN, equal to no number, ranks as a non-numeric literal
        by its lexical form, so keys are totally ordered (ORDER BY relies
        on it).  An ``xsd:integer`` keeps its int: Python compares int with
        float exactly, where a float would overflow past ~1e308 and tie
        neighbouring integers past 2**53."""
        numeric = self.numeric_value()
        if numeric is not None and numeric == numeric:
            return (_KIND_LITERAL, 0, numeric, self.lexical)
        return (_KIND_LITERAL, 1, self.lexical, self.language or "", self.datatype or "")

    # -- value-space helpers -------------------------------------------------

    def is_numeric(self) -> bool:
        return self.datatype in _NUMERIC_DATATYPES

    def numeric_value(self) -> Optional[float]:
        """The numeric value, or None for non-numeric literals."""
        if not self.is_numeric():
            return None
        try:
            if self.datatype == XSD_INTEGER:
                return int(self.lexical)
            return float(self.lexical)
        except ValueError:
            return None

    def boolean_value(self) -> Optional[bool]:
        if self.datatype != XSD_BOOLEAN:
            return None
        if self.lexical in ("true", "1"):
            return True
        if self.lexical in ("false", "0"):
            return False
        return None

    def to_python(self) -> Union[str, int, float, bool]:
        """Best-effort conversion to a native Python value."""
        if self.datatype == XSD_INTEGER:
            try:
                return int(self.lexical)
            except ValueError:
                return self.lexical
        if self.datatype in (XSD_DECIMAL, XSD_DOUBLE):
            try:
                return float(self.lexical)
            except ValueError:
                return self.lexical
        if self.datatype == XSD_BOOLEAN:
            value = self.boolean_value()
            return self.lexical if value is None else value
        return self.lexical


class Variable(Term):
    """A SPARQL variable (``?name``). Only valid inside query patterns."""

    __slots__ = ("name", "_hash")

    def __init__(self, name: str):
        if name.startswith("?") or name.startswith("$"):
            name = name[1:]
        if not _VAR_NAME_RE.match(name):
            raise ValueError(f"invalid variable name: {name!r}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_hash", hash((Variable, name)))

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("Variable is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, Variable) and other.name == self.name

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Variable({self.name!r})"

    def __str__(self) -> str:
        return f"?{self.name}"

    def n3(self) -> str:
        return f"?{self.name}"

    def sort_key(self) -> Tuple:
        return (_KIND_VARIABLE, self.name)


class Triple:
    """An (s, p, o) ground triple.

    Subjects may be :class:`IRI` or :class:`BNode`, predicates :class:`IRI`,
    objects any ground term.  Patterns with variables are handled by the
    SPARQL layer, not by this class.
    """

    __slots__ = ("subject", "predicate", "object", "_hash")

    def __init__(self, subject: Term, predicate: IRI, object: Term):
        if not isinstance(subject, (IRI, BNode)):
            raise TypeError(f"triple subject must be IRI or BNode, got {subject!r}")
        if not isinstance(predicate, IRI):
            raise TypeError(f"triple predicate must be IRI, got {predicate!r}")
        if not isinstance(object, (IRI, BNode, Literal)):
            raise TypeError(f"triple object must be a ground term, got {object!r}")
        super().__setattr__("subject", subject)
        super().__setattr__("predicate", predicate)
        super().__setattr__("object", object)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("Triple is immutable")

    def __iter__(self):
        yield self.subject
        yield self.predicate
        yield self.object

    def __getitem__(self, index: int) -> Term:
        return (self.subject, self.predicate, self.object)[index]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Triple)
            and other.subject == self.subject
            and other.predicate == self.predicate
            and other.object == self.object
        )

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            value = hash((Triple, self.subject, self.predicate, self.object))
            super().__setattr__("_hash", value)
            return value

    def __repr__(self) -> str:
        return f"Triple({self.subject!r}, {self.predicate!r}, {self.object!r})"

    def n3(self) -> str:
        return f"{self.subject.n3()} {self.predicate.n3()} {self.object.n3()} ."

    def sort_key(self) -> Tuple:
        return (
            self.subject.sort_key(),
            self.predicate.sort_key(),
            self.object.sort_key(),
        )


_object_setattr = object.__setattr__


def _unchecked_triple(subject: Term, predicate: IRI, obj: Term) -> Triple:
    """Build a :class:`Triple` skipping positional type validation.

    Only for terms that already passed through a validated store boundary
    (the dictionary-encoded graph decodes millions of these on hot paths).
    """
    triple = Triple.__new__(Triple)
    _object_setattr(triple, "subject", subject)
    _object_setattr(triple, "predicate", predicate)
    _object_setattr(triple, "object", obj)
    return triple
