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
"""

from __future__ import annotations

import re
from dataclasses import dataclass

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


@dataclass(frozen=True)
class Token:
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
            self.next()
            v = self.binder_decl()
            self.expect("(")
            self.scopes.append({v.name: v})
            body = self.nested(self.formula)
            self.scopes.pop()
            self.expect(")")
            return Forall(v, body) if t.kind == "all" else Exists(v, body)
        return self.atom()

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
            self.next()
            f = self.nested(self.formula)
            self.expect(")")
            return f
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
            self.next()
            inner = self.nested(self.term)
            self.expect(")")
            return inner
        return self.primary_term()

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


def _parse(text: str, sig: Signature, start):
    p = _Parser(lex(text), sig)
    x = start(p)
    tail = p.peek()
    if tail.kind != "eof":
        raise ParseError(f"trailing input {tail.text!r}", tail.pos)
    if p.error is not None:
        raise p.error
    return x


def parse_formula(text: str, sig: Signature) -> Formula:
    return _parse(text, sig, _Parser.formula)


def parse_term(text: str, sig: Signature) -> Term:
    return _parse(text, sig, _Parser.term)
