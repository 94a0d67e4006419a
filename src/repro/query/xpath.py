"""Parser for the XPath subset used by twig queries.

The surface syntax covers the fragment of the paper's query model:
child (``/``) and descendant (``//``) axes, ``*`` wildcards, structural
branches, and value predicates::

    //paper[./year >= 2001][./abstract ftcontains(synopsis, xml)]/title[. contains(Tree)]

Each location step becomes one query variable (the paper's estimation
arithmetic counts *paths*, which is exactly the semantics of binding
every step).  A bracketed branch is a subtree of variables; the optional
value test attaches to the branch's deepest variable.  A value test whose
relative path is just ``.`` constrains the current variable.

Supported value tests::

    > n      >= n      < n      <= n      = n      in [l, h]
    contains(needle)
    ftcontains(term1, term2, ...)
    ftatleast(k, term1, term2, ...)
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.query.ast import (
    MAX_TWIG_DEPTH, WILDCARD, AxisStep, EdgePath, QueryNode, TwigQuery
)
from repro.query.predicates import (
    AtLeastKPredicate,
    KeywordPredicate,
    Predicate,
    RangePredicate,
    SubstringPredicate,
)


class XPathSyntaxError(ValueError):
    """Raised on malformed twig/XPath syntax."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class _Scanner:
    """Character scanner with the few lookahead helpers the grammar needs."""

    __slots__ = ("text", "pos")

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def eof(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def startswith(self, token: str) -> bool:
        return self.text.startswith(token, self.pos)

    def take(self, token: str) -> bool:
        if self.startswith(token):
            self.pos += len(token)
            return True
        return False

    def expect(self, token: str) -> None:
        if not self.take(token):
            raise XPathSyntaxError(f"expected {token!r}", self.pos)

    def skip_spaces(self) -> None:
        while not self.eof() and self.text[self.pos] == " ":
            self.pos += 1

    def read_name(self) -> str:
        if self.take("*"):
            return WILDCARD
        start = self.pos
        while not self.eof() and (self.peek().isalnum() or self.peek() in "_-@"):
            self.pos += 1
        if self.pos == start:
            raise XPathSyntaxError("expected a name test", self.pos)
        return self.text[start : self.pos]

    def read_int(self) -> int:
        self.skip_spaces()
        start = self.pos
        if self.peek() == "-":
            self.pos += 1
        while not self.eof() and self.peek().isdigit():
            self.pos += 1
        if self.pos == start or self.text[start : self.pos] == "-":
            raise XPathSyntaxError("expected an integer", self.pos)
        return int(self.text[start : self.pos])


def _read_axis(scanner: _Scanner) -> Optional[str]:
    """Consume a path separator, returning its axis (or None)."""
    if scanner.take("//"):
        return "descendant"
    if scanner.take("/"):
        return "child"
    return None


def _read_quoted(scanner: _Scanner) -> str:
    """Consume a double-quoted string (backslash-escaped ``\"`` / ``\\``)."""
    scanner.expect('"')
    chars: List[str] = []
    while True:
        if scanner.eof():
            raise XPathSyntaxError("unterminated string literal", scanner.pos)
        char = scanner.text[scanner.pos]
        scanner.pos += 1
        if char == '"':
            return "".join(chars)
        if char == "\\":
            if scanner.eof():
                raise XPathSyntaxError("dangling escape", scanner.pos)
            char = scanner.text[scanner.pos]
            scanner.pos += 1
        chars.append(char)


def _parse_call_args(scanner: _Scanner) -> List[str]:
    """Parse the argument list of contains(...) / ftcontains(...).

    Bare arguments are whitespace-trimmed; a double-quoted argument is
    taken verbatim (minus escapes), which is how ``to_xpath`` keeps
    needles with significant edge whitespace or delimiter characters
    round-trippable.
    """
    scanner.expect("(")
    args: List[str] = []
    while True:
        scanner.skip_spaces()
        if scanner.peek() == '"':
            # A quoted string is a whole argument, taken verbatim.
            args.append(_read_quoted(scanner))
            scanner.skip_spaces()
            if scanner.take(","):
                continue
            scanner.expect(")")
            return args
        # Bare argument: consume up to a top-level ',' or the close.
        depth = 0
        chars: List[str] = []
        while True:
            if scanner.eof():
                raise XPathSyntaxError(
                    "unterminated argument list", scanner.pos
                )
            char = scanner.text[scanner.pos]
            scanner.pos += 1
            if char == "(":
                depth += 1
                chars.append(char)
            elif char == ")":
                if depth == 0:
                    text = "".join(chars).strip()
                    if text or args:
                        args.append(text)
                    return args
                depth -= 1
                chars.append(char)
            elif char == "," and depth == 0:
                args.append("".join(chars).strip())
                break
            else:
                chars.append(char)


def _parse_value_test(scanner: _Scanner) -> Optional[Predicate]:
    """Parse an optional value test at the current position."""
    scanner.skip_spaces()
    if scanner.startswith("ftatleast"):
        scanner.pos += len("ftatleast")
        args = _parse_call_args(scanner)
        if len(args) < 2:
            raise XPathSyntaxError(
                "ftatleast() needs a threshold and at least one term", scanner.pos
            )
        try:
            threshold = int(args[0])
        except ValueError:
            raise XPathSyntaxError(
                "ftatleast() threshold must be an integer", scanner.pos
            ) from None
        return AtLeastKPredicate(args[1:], threshold)
    if scanner.startswith("ftcontains"):
        scanner.pos += len("ftcontains")
        args = _parse_call_args(scanner)
        return KeywordPredicate(args)
    if scanner.startswith("contains"):
        scanner.pos += len("contains")
        args = _parse_call_args(scanner)
        if len(args) != 1:
            raise XPathSyntaxError("contains() takes exactly one argument", scanner.pos)
        return SubstringPredicate(args[0])
    if scanner.startswith("in"):
        scanner.pos += 2
        scanner.skip_spaces()
        scanner.expect("[")
        low = scanner.read_int()
        scanner.skip_spaces()
        scanner.expect(",")
        high = scanner.read_int()
        scanner.skip_spaces()
        scanner.expect("]")
        return RangePredicate(low, high)
    for operator in (">=", "<=", ">", "<", "="):
        if scanner.startswith(operator):
            scanner.pos += len(operator)
            bound = scanner.read_int()
            if operator == ">=":
                return RangePredicate(low=bound)
            if operator == "<=":
                return RangePredicate(high=bound)
            if operator == ">":
                return RangePredicate(low=bound + 1)
            if operator == "<":
                return RangePredicate(high=bound - 1)
            return RangePredicate(bound, bound)
    return None


class _TwigParser:
    """Recursive-descent parser producing a :class:`TwigQuery`."""

    def __init__(self, text: str) -> None:
        self.scanner = _Scanner(text)
        self.counter = 0

    def _next_name(self) -> str:
        self.counter += 1
        return f"q{self.counter}"

    def parse(self) -> TwigQuery:
        twig = TwigQuery()
        scanner = self.scanner
        scanner.skip_spaces()
        self._parse_path(twig.root, 0, require_leading_axis=True)
        scanner.skip_spaces()
        if not scanner.eof():
            raise XPathSyntaxError("trailing characters after query", scanner.pos)
        return twig

    def _child(self, parent: QueryNode, depth: int, step: AxisStep) -> QueryNode:
        """A new variable under ``parent``, which sits at ``depth``."""
        if depth >= MAX_TWIG_DEPTH:
            raise XPathSyntaxError(
                f"twig nested deeper than {MAX_TWIG_DEPTH} levels", self.scanner.pos
            )
        node = QueryNode(self._next_name(), EdgePath((step,)))
        parent.add_child(node)
        return node

    def _parse_path(
        self, parent: QueryNode, depth: int, require_leading_axis: bool
    ) -> QueryNode:
        """Parse ``(sep nametest branch*)+`` under ``parent``, which sits
        at ``depth``; return the leaf."""
        scanner = self.scanner
        current = parent
        first = True
        while True:
            axis = _read_axis(scanner)
            if axis is None:
                if first and require_leading_axis:
                    raise XPathSyntaxError("a path must start with '/' or '//'", scanner.pos)
                return current
            label = scanner.read_name()
            current = self._child(current, depth, AxisStep(axis, label))
            depth += 1
            first = False
            while scanner.startswith("["):
                self._parse_branch(current, depth)

    def _parse_branch(self, owner: QueryNode, depth: int) -> None:
        """Parse ``[ relpath? valuetest? ]`` attached to ``owner`` (at ``depth``)."""
        scanner = self.scanner
        scanner.expect("[")
        scanner.skip_spaces()

        target = owner
        had_path = False
        if scanner.take("."):
            # "." means the current node; ".//x" or "./x" descends from it.
            if scanner.peek() == "/":
                target = self._parse_path(owner, depth, require_leading_axis=True)
                had_path = True
        elif scanner.peek() not in ("]",) and not _at_value_test(scanner):
            # Bare relative path like "year > 2000": implicit child axis.
            label = scanner.read_name()
            node = self._child(owner, depth, AxisStep("child", label))
            target = self._parse_path(node, depth + 1, require_leading_axis=False)
            had_path = True

        predicate = _parse_value_test(scanner)
        if predicate is not None:
            if target.has_value_predicate:
                raise XPathSyntaxError(
                    "query node already carries a value predicate", scanner.pos
                )
            target.predicate = predicate
        elif not had_path:
            raise XPathSyntaxError("empty branch", scanner.pos)

        scanner.skip_spaces()
        scanner.expect("]")


def _at_value_test(scanner: _Scanner) -> bool:
    """Whether the scanner is positioned at a value test (not a path)."""
    for token in ("contains", "ftcontains", "in", ">=", "<=", ">", "<", "="):
        if scanner.startswith(token):
            # "contains"/"in" could also be element names; a value test is
            # followed by '(' or a bracketed range / number.
            probe = scanner.pos + len(token)
            rest = scanner.text[probe : probe + 2].lstrip()
            if token in ("contains", "ftcontains"):
                return rest.startswith("(")
            if token == "in":
                return rest.startswith("[")
            return True
    return False


def parse_twig(text: str) -> TwigQuery:
    """Parse a twig query from its XPath-like surface syntax.

    Raises:
        XPathSyntaxError: on malformed input.
    """
    return _TwigParser(text).parse()


def parse_edge_path(text: str) -> EdgePath:
    """Parse a bare edge path such as ``"./a//b"`` (no branches/predicates)."""
    scanner = _Scanner(text)
    scanner.take(".")
    steps: List[AxisStep] = []
    while True:
        axis = _read_axis(scanner)
        if axis is None:
            break
        steps.append(AxisStep(axis, scanner.read_name()))
    if not steps or not scanner.eof():
        raise XPathSyntaxError("malformed edge path", scanner.pos)
    return EdgePath(tuple(steps))
