"""Lexer and recursive-descent parser for the ASCII formula grammar, and
the sort discipline of what it parses.

Application is sort-driven: the head's sort fixes how many argument terms
are consumed, so `p & (q)` and `P (neg Y)` need no extra punctuation.
Names resolve through the binders in scope and the signature's constants,
so every head has its declared sort and takes exactly its arity. What the
grammar cannot rule out, an argument or operand of the wrong sort or a
construct the signature's mode forbids, is checked as its node is built.
The first such SortError or ModeViolation is raised once the whole text
has parsed, so a ParseError anywhere in the text takes precedence.

The texts of one proof file can share a memo (parse_formula's and
parse_term's memo argument, one dict per file). Each bracketed group is
then parsed once per distinct text and name bindings, and every later
occurrence gets the same node, so equal subformulas across a file are one
object. A group is a parenthesized formula or argument term, a quantifier
`all v (...)` or `exists v (...)`, or a lambda term `[\\x ...]`; on a
repeat the parser skips its span without lexing it. Only groups that
parsed without a sort or mode error are kept, and a group kept with its
nesting height is parsed again where that height would cross MAX_DEPTH,
so every error is the one, at the position, the text raises when parsed
alone.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .formulas import (
    INDIVIDUAL, PROPOSITION, REL1, Relation, Sort, SortError,
    Actually, And, Box, Const, Description, Diamond, Encode, Exemplify,
    Exists, Forall, Formula, Iff, Implies, Lambda, MACRO_FORMULA_SIGS,
    MACRO_TERM_SIGS, MacroFormula, MacroTerm, Not, Or, PrimitiveEq, SOAtom,
    Term, Var, Xor, sort_of,
)
from .printer import default_sort
from .signature import Mode, ModeViolation, Signature


# Deepest nesting a formula may have. Prefix operators, binders, bracketed
# groups and the links of ->, &, |, <-> and xor chains each count a level;
# deeper input is a ParseError, raised before the parser recurses past it.
MAX_DEPTH = 64


class ParseError(Exception):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class Token(NamedTuple):
    kind: str
    text: str
    pos: int


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*[!*]?)
  | (?P<num>[0-9]+)
  | (?P<op><->|\[\]|<>|->|\[\\|[()\[\]~&|=@:\\,])
    """,
    re.VERBOSE,
)

# The brackets of a text, with comments and `[]` skipped.
_BRACKET_RE = re.compile(r"\#[^\n]*|\[\]|\[\\|[()\[\]]")

_KEYWORDS = {"all", "exists", "the", "xor"}


def lex(text: str) -> list:
    out = []
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if not m:
            raise ParseError(f"unexpected character {text[i]!r}", i)
        i = m.end()
        if m.lastgroup == "ws":
            continue
        kind = m.lastgroup
        val = m.group()
        if kind == "name" and val in _KEYWORDS:
            kind = val
        elif kind == "op":
            kind = val
        out.append(Token(kind, val, m.start()))
    out.append(Token("eof", "", len(text)))
    return out


def _closing_brackets(text: str) -> dict:
    """The offset of each `(`, `[` or `[\\` in text that is closed, mapped
    to the offset of the `)` or `]` that closes it, as lex reads them."""
    closing, open_ = {}, []
    for m in _BRACKET_RE.finditer(text):
        c = m.group()
        if c in ")]":
            if open_:
                closing[open_.pop()] = m.start()
        elif c in ("(", "[", "[\\"):
            open_.append(m.start())
    return closing


class _Parser:
    # How tightly each binary connective binds, and the node it builds.
    BINARY = {"<->": (1, Iff), "xor": (1, Xor), "->": (2, Implies),
              "|": (3, Or), "&": (4, And)}

    def __init__(self, tokens: list, sig: Signature):
        self.toks = tokens
        self.i = 0
        self.sig = sig
        self.scopes: list = []
        self.depth = 0
        self.peak = 0
        self.error = None   # the first sort or mode error

    # -- token plumbing

    def peek(self, k: int = 0) -> Token:
        return self.toks[min(self.i + k, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.toks[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def accept(self, kind: str):
        if self.peek().kind == kind:
            return self.next()
        return None

    def expect(self, kind: str) -> Token:
        t = self.peek()
        if t.kind != kind:
            raise ParseError(f"expected {kind!r}, found {t.text!r}", t.pos)
        return self.next()

    def fail(self, msg: str):
        raise ParseError(msg, self.peek().pos)

    def nested(self, parse, *args):
        """parse(*args) one nesting level deeper."""
        self.depth += 1
        if self.depth > self.peak:
            self.reach(self.depth)
        out = parse(*args)
        self.depth -= 1
        return out

    def reach(self, level: int):
        """Raise peak, the deepest level the formula nests to, to level,
        failing past MAX_DEPTH."""
        if level > MAX_DEPTH:
            self.fail(f"formula nested deeper than {MAX_DEPTH} levels")
        self.peak = level

    def check(self, ok: bool, message: str, error=SortError):
        """Keep the first sort or mode error: error(message) unless ok."""
        if not ok and self.error is None:
            self.error = error(message)

    # -- scoping

    def lookup(self, name: str):
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        return None

    # -- grammar

    def formula(self, floor: int = 0) -> Formula:
        """Unary formulas joined by the connectives that bind more tightly
        than floor, by precedence climbing. A connective puts its operands
        one level deeper, so a chain's depth is checked where it ends; ->
        chains nest to the right, and their links are counted as parsed."""
        base, outer = self.depth, self.peak
        self.peak = base
        left = self.unary()
        height = self.peak - base
        while True:
            op = self.peek().kind
            binds, node = self.BINARY.get(op, (0, None))
            if binds <= floor:
                break
            self.next()
            self.peak = base
            if op == "->":
                right = self.nested(self.formula, binds - 1)
                height = max(height + 1, self.peak - base)
            else:
                right = self.formula(binds)
                height = max(height, self.peak - base) + 1
            left = node(left, right)
        self.peak = outer
        if base + height > outer:
            self.reach(base + height)
        return left

    def unary(self) -> Formula:
        t = self.peek()
        if t.kind in ("~", "[]", "<>", "@"):
            self.next()
            body = self.nested(self.unary)
            return {"~": Not, "[]": Box, "<>": Diamond,
                    "@": Actually}[t.kind](body)
        if t.kind in ("all", "exists"):
            return self.quantifier()
        return self.atom()

    def quantifier(self) -> Formula:
        """`all v (body)` or `exists v (body)`."""
        t = self.next()
        v = self.binder_decl()
        self.expect("(")
        self.scopes.append({v.name: v})
        body = self.nested(self.formula)
        self.scopes.pop()
        self.expect(")")
        return Forall(v, body) if t.kind == "all" else Exists(v, body)

    def binder_decl(self) -> Var:
        name = self.expect("name").text
        sort = default_sort(name)
        if self.accept(":"):
            sort = self.sort_annotation()
        return Var(name, sort)

    def sort_annotation(self) -> Sort:
        t = self.expect("name")
        if t.text == "ind":
            return INDIVIDUAL
        if t.text == "prop":
            return PROPOSITION
        if t.text == "rel":
            if self.peek().kind == "num":
                return Relation(int(self.next().text))
            return REL1
        raise ParseError(f"unknown sort {t.text!r}", t.pos)

    def atom(self) -> Formula:
        t = self.peek()
        if t.kind == "(":
            if self.peek(1).kind == "the":
                head = self.primary_term()
                return self.app_tail(head)
            return self.parenthesized(self.formula)
        if t.kind in ("name", "[\\"):
            # A formula-macro head takes term arguments directly.
            if t.kind == "name" and self.lookup(t.text) is None \
                    and t.text not in self.sig.consts \
                    and t.text in MACRO_FORMULA_SIGS:
                self.next()
                return self.macro_formula(t.text, tuple(
                    self.arg_term() for _ in MACRO_FORMULA_SIGS[t.text]))
            head = self.primary_term()
            return self.app_tail(head)
        self.fail(f"unexpected token {t.text!r}")

    def app_tail(self, head: Term) -> Formula:
        sort = sort_of(head)
        if sort.kind == "so":
            arg = self.arg_term()
            self.check(sort_of(arg) == REL1,
                       "second-order atom argument is not a unary relation")
            return SOAtom(head, arg)
        if sort.kind == "rel":
            if self.peek().kind == "=":
                return self.equality(head)
            args = tuple(self.arg_term() for _ in range(sort.arity))
            self.check(all(sort_of(a) == INDIVIDUAL for a in args),
                       "exemplification argument is not an individual")
            return Exemplify(head, args)
        # individual head: encoding atom or equality
        if self.peek().kind == "[":
            self.next()
            self.check(self.sig.mode is Mode.AOT,
                       "encoding atoms require an AOT signature", ModeViolation)
            rel = self.term()
            self.check(sort_of(rel) == REL1, "only monadic encoding is supported")
            self.expect("]")
            return Encode(head, rel)
        if self.peek().kind == "=":
            return self.equality(head)
        self.fail("an individual term is not a formula")

    def equality(self, left: Term) -> Formula:
        self.expect("=")
        right = self.arg_term()
        if self.sig.mode is Mode.AOT:
            return self.macro_formula("id", (left, right))
        self.check(sort_of(left) == sort_of(right),
                   "equality between terms of different sorts")
        return PrimitiveEq(left, right)

    def macro_formula(self, name: str, args: tuple) -> Formula:
        got = [sort_of(a) for a in args]
        self.check(all(want is None or g == want for g, want
                       in zip(got, MACRO_FORMULA_SIGS[name])),
                   f"macro {name}: argument sort mismatch")
        if name == "id":
            self.check(got[0] == got[1],
                       "identity between terms of different sorts")
            self.check(self.sig.mode is Mode.AOT,
                       "defined identity belongs to AOT signatures",
                       ModeViolation)
        return MacroFormula(name, args)

    def resolve_name(self, tok: Token) -> Term:
        v = self.lookup(tok.text)
        if v is not None:
            return v
        if tok.text in self.sig.consts:
            return Const(tok.text, self.sig.consts[tok.text])
        if tok.text in MACRO_TERM_SIGS:
            arg_sorts, _ = MACRO_TERM_SIGS[tok.text]
            if arg_sorts:
                raise ParseError(
                    f"macro {tok.text!r} takes arguments; parenthesize the application",
                    tok.pos)
            return MacroTerm(tok.text)
        return Var(tok.text, default_sort(tok.text))

    def primary_term(self) -> Term:
        t = self.peek()
        if t.kind == "name":
            self.next()
            return self.resolve_name(t)
        if t.kind == "[\\":
            return self.lambda_term()
        if t.kind == "(" and self.peek(1).kind == "the":
            self.next()
            self.next()
            self.check(self.sig.mode is Mode.AOT,
                       "definite descriptions require an AOT signature",
                       ModeViolation)
            v = Var(self.expect("name").text, INDIVIDUAL)
            self.expect(":")
            self.scopes.append({v.name: v})
            body = self.nested(self.formula)
            self.scopes.pop()
            self.expect(")")
            return Description(v, body)
        self.fail(f"expected a term, found {t.text!r}")

    def lambda_term(self) -> Term:
        self.expect("[\\")
        params = []
        if self.peek().kind == "name":
            params.append(Var(self.next().text, INDIVIDUAL))
        while self.accept("\\"):
            params.append(Var(self.expect("name").text, INDIVIDUAL))
        self.scopes.append({p.name: p for p in params})
        body = self.nested(self.formula)
        self.scopes.pop()
        self.expect("]")
        return Lambda(tuple(params), body)

    def arg_term(self) -> Term:
        """A term in argument position: name, lambda, description, or (macro app)."""
        t = self.peek()
        if t.kind == "(" and self.peek(1).kind != "the":
            return self.parenthesized(self.term)
        return self.primary_term()

    def parenthesized(self, parse):
        """`(`, parse() one level deeper, `)`."""
        self.next()
        inner = self.nested(parse)
        self.expect(")")
        return inner

    def term(self) -> Term:
        """A full term: macro heads may take arguments here."""
        t = self.peek()
        if t.kind == "name" and self.lookup(t.text) is None \
                and t.text not in self.sig.consts and t.text in MACRO_TERM_SIGS:
            self.next()
            arg_sorts, _ = MACRO_TERM_SIGS[t.text]
            args = tuple(self.arg_term() for _ in arg_sorts)
            self.check(all(sort_of(a) == s for a, s in zip(args, arg_sorts)),
                       f"macro {t.text}: argument sort mismatch")
            return MacroTerm(t.text, args)
        return self.primary_term()


class _SharedParser(_Parser):
    """A parser whose bracketed groups go through a memo that the texts of
    one proof file share. It lexes on demand, so a group found in the memo
    is skipped without being lexed. Any ParseError is raised only after lex
    has run on the whole text, so lex's error still comes first."""

    def __init__(self, text: str, sig: Signature, memo: dict):
        super().__init__([], sig)
        self.text = text
        self.at = 0     # where lexing resumes
        self.memo = memo
        self.closing = _closing_brackets(text)

    def peek(self, k: int = 0) -> Token:
        j = self.i + k
        toks = self.toks
        while j >= len(toks):
            if toks and toks[-1].kind == "eof":
                return toks[-1]
            m = _TOKEN_RE.match(self.text, self.at)
            if m is None:
                if self.at < len(self.text):
                    lex(self.text)  # raises lex's error
                toks.append(Token("eof", "", len(self.text)))
                continue
            self.at = m.end()
            kind, val = m.lastgroup, m.group()
            if kind == "ws":
                continue
            if kind == "op" or kind == "name" and val in _KEYWORDS:
                kind = val  # as lex reads it
            toks.append(Token(kind, val, m.start()))
        return toks[j]

    def quantifier(self) -> Formula:
        start = self.peek().pos
        return self.group("quantifier", start, self.text.find("(", start),
                          super().quantifier)

    def lambda_term(self) -> Term:
        start = self.peek().pos
        return self.group("lambda", start, start, super().lambda_term)

    def parenthesized(self, parse):
        start = self.peek().pos
        return self.group(parse.__name__, start, start,
                          super().parenthesized, parse)

    def group(self, kind: str, start: int, opening: int, parse, *args):
        """parse(*args) for the group that spans the text from offset start
        to the bracket closing the one at offset opening, or the node the
        memo holds for it. A group that parsed without a sort or mode error
        is kept with the nesting height it reached, and a kept node is used
        only where that height stays within MAX_DEPTH."""
        closing = self.closing.get(opening)
        if closing is None:
            return parse(*args)
        span = self.text[start:closing + 1]
        key = (kind, span, self.bindings(span))
        depth = self.depth
        kept = self.memo.get(key)
        if kept is not None and depth + kept[1] <= MAX_DEPTH:
            del self.toks[self.i:]
            self.at = closing + 1
            self.peak = max(self.peak, depth + kept[1])
            return kept[0]
        outer, self.peak = self.peak, depth
        clean = self.error is None
        node = parse(*args)
        height = self.peak - depth
        self.peak = max(self.peak, outer)
        if clean and self.error is None:
            self.memo[key] = node, height
        return node

    def bindings(self, span: str) -> tuple:
        """The variables that the binders in scope give to names span may
        mention: all that a group's parse reads besides its text and the
        signature. A variable is left out where its name, unbound, would
        resolve to an equal one: a name of its default sort that names no
        constant or macro."""
        out, seen = [], set()
        for scope in reversed(self.scopes):
            for name, v in scope.items():
                if name in seen:
                    continue
                seen.add(name)
                if name in span and not (
                        v.sort == default_sort(name)
                        and name not in self.sig.consts
                        and name not in MACRO_TERM_SIGS
                        and name not in MACRO_FORMULA_SIGS):
                    out.append(v)
        return tuple(out)


def _parse(text: str, sig: Signature, start, memo):
    if memo is None:
        p = _Parser(lex(text), sig)
    else:
        p = _SharedParser(text, sig, memo)
    try:
        x = start(p)
        tail = p.peek()
        if tail.kind != "eof":
            raise ParseError(f"trailing input {tail.text!r}", tail.pos)
    except ParseError:
        if memo is not None:
            lex(text)   # a lazy parse may stop before lex's error
        raise
    if p.error is not None:
        raise p.error
    return x


def parse_formula(text: str, sig: Signature, memo: dict | None = None
                  ) -> Formula:
    """text parsed as a formula under sig. Calls that share a memo, a dict
    that starts empty and serves one sig, hand out one node for equal
    bracketed groups under equal bindings, and each raises what its text
    raises parsed alone."""
    return _parse(text, sig, _Parser.formula, memo)


def parse_term(text: str, sig: Signature, memo: dict | None = None) -> Term:
    """text parsed as a term under sig; memo as for parse_formula."""
    return _parse(text, sig, _Parser.term, memo)
