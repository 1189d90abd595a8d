"""S-expression reader with positions, plus a call-style term reader.

Atoms are bare tokens; ';' starts a comment to end of line.  The call-style
reader accepts `f(a, b)` and plain atoms, for terms given on a command line.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


def long_literal(text: str) -> bool:
    """An integer literal with more digits than int() converts by default."""
    digits = text.removeprefix("-")
    return len(digits) > sys.int_info.default_max_str_digits and digits.isdigit()


@dataclass(frozen=True)
class Atom:
    text: str
    line: int
    col: int

    def __post_init__(self) -> None:
        if long_literal(self.text):  # no reader takes it, for a value or for a name
            raise ParseError("integer literal has too many digits", self.line, self.col)


@dataclass(frozen=True)
class SList:
    items: tuple
    line: int
    col: int


Node = Atom | SList

_DELIMS = set("(); \t\r\n")


def tokenize(text: str):
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
        elif c in " \t\r":
            i += 1
            col += 1
        elif c == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif c in "()":
            yield (c, line, col)
            i += 1
            col += 1
        else:
            j = i
            while j < n and text[j] not in _DELIMS:
                j += 1
            yield (text[i:j], line, col)
            col += j - i
            i = j


def parse_sexprs(text: str) -> list[Node]:
    stack: list[list] = []
    marks: list[tuple[int, int]] = []
    out: list[Node] = []
    for tok, line, col in tokenize(text):
        if tok == "(":
            stack.append([])
            marks.append((line, col))
        elif tok == ")":
            if not stack:
                raise ParseError("unbalanced ')'", line, col)
            items = stack.pop()
            l, c = marks.pop()
            node = SList(tuple(items), l, c)
            (stack[-1] if stack else out).append(node)
        else:
            node = Atom(tok, line, col)
            (stack[-1] if stack else out).append(node)
    if stack:
        l, c = marks[-1]
        raise ParseError("unclosed '('", l, c)
    return out


def parse_one(text: str) -> Node:
    nodes = parse_sexprs(text)
    if len(nodes) != 1:
        raise ParseError(f"expected one expression, found {len(nodes)}", 1, 1)
    return nodes[0]


def head(node: Node) -> str | None:
    if isinstance(node, SList) and node.items and isinstance(node.items[0], Atom):
        return node.items[0].text
    return None


def expect_list(node: Node, what: str) -> SList:
    if not isinstance(node, SList):
        raise ParseError(f"expected {what}", node.line, node.col)
    return node


def expect_atom(node: Node, what: str) -> Atom:
    if not isinstance(node, Atom):
        raise ParseError(f"expected {what}", node.line, node.col)
    return node


def show(node: Node) -> str:
    if isinstance(node, Atom):
        return node.text
    return "(" + " ".join(show(x) for x in node.items) + ")"


def parse_call_term(text: str) -> Node:
    """`f(a, b)` / `f` / `38` into the same node shape the s-expr reader yields."""
    if text.lstrip().startswith("("):
        return parse_one(text)
    pos = 0
    n = len(text)

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos] in " \t\r\n":
            pos += 1

    def atom_token() -> str:
        nonlocal pos
        start = pos
        while pos < n and text[pos] not in "(), \t\r\n":
            pos += 1
        if start == pos:
            raise ParseError("expected a name or literal", 1, pos + 1)
        return text[start:pos]

    def term() -> Node:
        nonlocal pos
        skip_ws()
        name = atom_token()
        skip_ws()
        if pos < n and text[pos] == "(":
            pos += 1
            args: list[Node] = []
            skip_ws()
            if pos < n and text[pos] == ")":
                pos += 1
            else:
                while True:
                    args.append(term())
                    skip_ws()
                    if pos < n and text[pos] == ",":
                        pos += 1
                        continue
                    if pos < n and text[pos] == ")":
                        pos += 1
                        break
                    raise ParseError("expected ',' or ')'", 1, pos + 1)
            return SList((Atom(name, 1, 1), *args), 1, 1)
        return Atom(name, 1, 1)

    node = term()
    skip_ws()
    if pos != n:
        raise ParseError("trailing input after term", 1, pos + 1)
    return node
