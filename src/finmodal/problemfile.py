"""Line-oriented problem files, proof-script files, and model configs.

Problem directives: sig, logic, const, bounds, premise, conjecture,
quantifiers, expect. Declarations come before the first formula line.

Proof-script files: a `layer` line and one step per line, each written
as its rule's form in `abstraction.RULES`, line citations 1-based. Only
ax (a schema name and a `{name: value, ...}` substitution) and hyp (a
formula) are read and written apart; every other rule's words follow
its form. A proof file is parsed with one parser memo, so equal
subformulas across its lines are one node (see parse_proof).
"""

from __future__ import annotations

from dataclasses import dataclass

from .abstraction import CITATIONS, LAYER_NAMES, RULES, ProofScript, Step
from .aot import AczelConfig
from .formulas import (
    INDIVIDUAL, PROPOSITION, REL1, SECOND_ORDER, Relation, Var, free_names,
)
from .modelfind import Bounds
from .parser import ParseError, parse_formula, parse_term
from .printer import print_formula, print_term
from .signature import LogicTag, Mode, Signature


class ProblemFileError(Exception):
    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


@dataclass
class Problem:
    sig: Signature
    premises: list
    conjectures: list
    bounds: Bounds
    expectation: str | None = None
    relvar_domain: str = "full"


_LOGICS = {"K": LogicTag.K, "KB": LogicTag.KB, "S5": LogicTag.S5TOTAL}
_EXPECTATIONS = ("unsat", "sat", "valid", "countermodel")


def _strip(line: str) -> str:
    if "#" in line:
        line = line[:line.index("#")]
    return line.strip()


def _read_text(path: str) -> str:
    """The file's text; a file that cannot be read is an error naming its
    path, and a byte that is not UTF-8 one naming its line."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as e:
        raise ProblemFileError(f"cannot read {path}: {e.strerror}")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        line = data.count(b"\n", 0, e.start) + 1
        raise ProblemFileError(
            f"byte 0x{data[e.start]:02x} in {path} is not UTF-8", line)


def load_problem(path: str) -> Problem:
    return parse_problem(_read_text(path))


def parse_problem(text: str) -> Problem:
    mode = Mode.CLASSICAL
    logic = LogicTag.S5TOTAL
    consts: dict = {}
    bounds_kw: dict = {}
    expectation = None
    relvar_domain = "full"
    formula_lines: list = []

    for no, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        parts = line.split(None, 1)
        head, rest = parts[0], (parts[1] if len(parts) > 1 else "")
        if head == "sig":
            if rest not in ("classical", "aot"):
                raise ProblemFileError(f"unknown signature mode {rest!r}", no)
            mode = Mode.AOT if rest == "aot" else Mode.CLASSICAL
        elif head == "logic":
            if rest not in _LOGICS:
                raise ProblemFileError(f"unknown logic {rest!r}", no)
            logic = _LOGICS[rest]
        elif head == "const":
            try:
                name, sort_text = [p.strip() for p in rest.split(":", 1)]
                sort = _parse_sort(sort_text)
            except ValueError:
                raise ProblemFileError("expected 'const <name> : <sort>'", no)
            if name in consts:
                raise ProblemFileError(f"constant {name!r} is declared twice", no)
            consts[name] = sort
        elif head == "bounds":
            for item in rest.split():
                key, _, value = item.partition("=")
                names = {"worlds": "max_worlds", "individuals": "max_individuals"}
                if key not in names:
                    raise ProblemFileError(f"unknown bound {key!r}", no)
                if names[key] in bounds_kw:
                    raise ProblemFileError(f"bound {key!r} is given twice", no)
                if not (value.isdecimal() and int(value) >= 1):
                    raise ProblemFileError(
                        f"bound {key!r} needs a whole number of at least 1, "
                        f"got {value!r}", no)
                bounds_kw[names[key]] = int(value)
        elif head == "expect":
            if rest not in _EXPECTATIONS:
                raise ProblemFileError(f"unknown expectation {rest!r}", no)
            expectation = rest
        elif head == "quantifiers":
            if rest != "rigid":
                raise ProblemFileError("only 'quantifiers rigid' is understood", no)
            relvar_domain = "rigid"
        elif head in ("premise", "conjecture"):
            formula_lines.append((no, head, rest))
        else:
            raise ProblemFileError(f"unknown directive {head!r}", no)

    sig = Signature(mode, logic, consts)
    premises, conjectures = [], []
    for no, kind, text_f in formula_lines:
        try:
            f = parse_formula(text_f, sig)
        except (ParseError, Exception) as e:
            raise ProblemFileError(str(e), no)
        names = free_names(f)
        if names:
            raise ProblemFileError(
                f"{kind} has free variables: {', '.join(sorted(names))}", no)
        (premises if kind == "premise" else conjectures).append(f)
    return Problem(sig, premises, conjectures, Bounds(**bounds_kw),
                   expectation, relvar_domain)


def _parse_sort(text: str):
    """The sort a declaration names: one word, or `rel` and a decimal arity;
    anything else is a ValueError."""
    parts = text.split()
    sorts = {"ind": INDIVIDUAL, "prop": PROPOSITION, "so": SECOND_ORDER,
             "rel": REL1}
    if len(parts) == 1 and parts[0] in sorts:
        return sorts[parts[0]]
    if len(parts) == 2 and parts[0] == "rel" and parts[1].isdecimal():
        return Relation(int(parts[1]))
    raise ValueError(f"bad sort {text!r}")


# ---------------------------------------------------------------------------
# Proof-script files: one step per line, 1-based citations

_TERM_KEYS = {"alpha", "beta", "tau"}


def load_proof(path: str, sig: Signature):
    return parse_proof(_read_text(path), sig)


def parse_proof(text: str, sig: Signature):
    """(layer name, ProofScript).

    Each distinct formula or term text is parsed once per call, and the
    texts share one parser memo, so each distinct bracketed group under
    the same bindings is parsed once too. Equal texts and groups, on `hyp`
    and `gen` lines or as substitution values, give one shared node, so
    the facts a node stores (free names, canonical key, normal-form flags)
    are worked out once for the whole script. Only successful parses are
    kept, so a bad text raises on the first line that has it, as it does
    parsed alone, and nothing outlives the call.
    """
    parsed: dict = {}   # ("term" | "formula", text) -> node
    memo: dict = {}     # the parser's, for bracketed groups

    def parse(kind: str, text: str):
        node = parsed.get((kind, text))
        if node is None:
            parse_fn = parse_term if kind == "term" else parse_formula
            node = parsed[kind, text] = parse_fn(text, sig, memo)
        return node

    layer_name = None
    steps: list = []
    for no, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        parts = line.split(None, 1)
        head, rest = parts[0], (parts[1] if len(parts) > 1 else "")
        try:
            if head == "layer":
                if layer_name is not None:
                    raise ProblemFileError("'layer' is given twice", no)
                if rest not in LAYER_NAMES:
                    raise ProblemFileError(f"unknown layer {rest!r}", no)
                layer_name = rest
            elif head == "ax":
                name, brace, subst_text = rest.partition("{")
                if not brace:
                    raise ProblemFileError(
                        f"expected 'ax {' '.join(RULES['ax'])}'", no)
                subst_text, closing, tail = subst_text.rpartition("}")
                if not closing:
                    raise ProblemFileError(
                        "the substitution has no closing '}'", no)
                if tail.strip():
                    raise ProblemFileError(
                        f"unexpected {tail.strip()!r} after the "
                        "substitution", no)
                steps.append(Step("ax", (name.strip(),
                                         _parse_subst(subst_text, parse))))
            elif head == "hyp":
                steps.append(Step("hyp", (parse("formula", rest),)))
            elif head in RULES:
                steps.append(Step(head, _step_args(head, rest, parse)))
            else:
                raise ProblemFileError(f"unknown step {head!r}", no)
        except ProblemFileError:
            raise
        except Exception as e:
            raise ProblemFileError(str(e), no)
    if layer_name is None:
        raise ProblemFileError("missing 'layer' line", 1)
    return layer_name, ProofScript(tuple(steps))


def _step_args(rule: str, rest: str, parse) -> tuple:
    """The arguments of a step of a rule in RULES other than ax and hyp,
    from the words after its name: a line citation less 1, a premise
    number as it is, a variable parsed by parse(kind, text). The wrong
    number of words, or a number that is not a whole number, is a
    ValueError showing the rule's form."""
    form = RULES[rule]
    words = rest.split()
    if len(words) != len(form) or not all(
            w.isdecimal() for w, slot in zip(words, form)
            if slot != "<variable>"):
        raise ValueError(f"expected '{rule} {' '.join(form)}'")
    args = []
    for w, slot in zip(words, form):
        if slot == "<variable>":
            var = parse("term", w)
            if not isinstance(var, Var):
                raise ValueError(f"{rule} needs a variable")
            args.append(var)
        else:
            args.append(int(w) - 1 if slot in CITATIONS else int(w))
    return tuple(args)


def _parse_subst(text: str, parse) -> dict:
    """The `name: value` items of an ax line's substitution, split at the
    commas outside brackets: those where as many of `(` and `[` as of `)`
    and `]` come before, so a `)` too many keeps the commas after it in one
    item. parse(kind, text) parses one value."""
    out: dict = {}
    depth = 0
    start = seen = 0
    items = []
    comma = text.find(",")
    while comma >= 0:
        depth += (text.count("(", seen, comma) + text.count("[", seen, comma)
                  - text.count(")", seen, comma) - text.count("]", seen, comma))
        seen = comma
        if depth == 0:
            items.append(text[start:comma])
            start = comma + 1
        comma = text.find(",", comma + 1)
    if text[start:].strip():
        items.append(text[start:])
    for piece in items:
        name, _, value = piece.partition(":")
        name = name.strip()
        if name in out:
            raise ValueError(f"metavariable {name!r} is given twice")
        out[name] = parse("term" if name in _TERM_KEYS else "formula",
                          value.strip())
    return out


def render_proof(layer_name: str, script: ProofScript) -> str:
    lines = [f"layer {layer_name}"]
    for step in script.steps:
        rule, args = step if isinstance(step, Step) else (None, ())
        if rule == "ax":
            name, subst = args
            items = []
            for key in sorted(subst):
                value = subst[key]
                rendered = (print_term(value) if isinstance(value, (Var,))
                            or key in _TERM_KEYS else print_formula(value))
                items.append(f"{key}: {rendered}")
            lines.append(f"ax {name} {{{', '.join(items)}}}")
        elif rule == "hyp":
            lines.append(f"hyp {print_formula(args[0])}")
        elif rule in RULES:
            words = [rule]
            for a, slot in zip(args, RULES[rule]):
                words.append(a.name if slot == "<variable>" else
                             str(a + 1 if slot in CITATIONS else a))
            lines.append(" ".join(words))
        else:
            raise ValueError(f"cannot render {step!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Aczel-model configuration files

def load_aot_config(path: str) -> AczelConfig:
    return parse_aot_config(_read_text(path))


_MODEL_SIZES = {"ordinary": "n_ordinary", "special": "n_special",
                "worlds": "n_worlds", "actual": "actual"}
_SIGMA_ARGS = {"constant": 0, "membership": 1}
_CONST_FORMS = {"ordinary": "<urelement>", "abstract": "<value> ...",
                "prop": "<value>", "rel": "<value>"}


def parse_aot_config(text: str) -> AczelConfig:
    """The model a config file describes. Each of ordinary, special,
    worlds, actual and sigma is given at most once, each constant is
    declared once, and concrete may repeat. A line whose words do not fit
    its directive's form is an error showing the form."""
    kw: dict = {"consts": {}}
    concrete_bits: list = []
    for no, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        head, *words = line.split()
        try:
            if head in _MODEL_SIZES:
                key = _MODEL_SIZES[head]
                (value,) = _model_numbers(words, f"{head} <n>")
            elif head == "sigma":
                if not words:
                    raise ValueError("expected 'sigma constant' or "
                                     "'sigma membership <value>'")
                rule = words[0]
                if rule not in _SIGMA_ARGS:
                    raise ValueError(f"unknown sigma rule {rule!r}")
                count = _SIGMA_ARGS[rule]
                key, value = "sigma", (rule, *_model_numbers(
                    words[1:], f"sigma {rule}" + " <value>" * count, count))
            elif head == "concrete":
                form = "concrete u<i> w<j>"
                if [w[:1] for w in words] != ["u", "w"]:
                    raise ValueError(f"expected '{form}'")
                concrete_bits.append(
                    (no, *_model_numbers([w[1:] for w in words], form, 2)))
                continue
            elif head == "const":
                if len(words) < 2:
                    raise ValueError("expected 'const <name> <kind> ...'")
                name, kind, *values = words
                if kind not in _CONST_FORMS:
                    raise ValueError(f"unknown constant kind {kind!r}")
                form = f"const <name> {kind} {_CONST_FORMS[kind]}"
                if kind == "abstract":
                    value = ("abstract",
                             tuple(_model_numbers(values, form, None)))
                else:
                    value = (kind, *_model_numbers(
                        values, form, base=10 if kind == "ordinary" else 0))
                if name in kw["consts"]:
                    raise ValueError(f"constant {name!r} is declared twice")
                kw["consts"][name] = value
                continue
            else:
                raise ValueError(f"unknown directive {head!r}")
            if key in kw:
                raise ValueError(f"{head!r} is given twice")
            kw[key] = value
        except ValueError as e:
            raise ProblemFileError(str(e), no)
    if concrete_bits:
        defaults = AczelConfig()
        n_worlds = kw.get("n_worlds", defaults.n_worlds)
        n_u = (kw.get("n_ordinary", defaults.n_ordinary)
               + kw.get("n_special", defaults.n_special))
        e_bang = 0
        for (no, u, w) in concrete_bits:
            if not (0 <= u < n_u and 0 <= w < n_worlds):
                raise ProblemFileError(
                    f"no urelement u{u} at world w{w}: the model has "
                    f"{n_u} urelements and {n_worlds} worlds", no)
            e_bang |= 1 << (u * n_worlds + w)
        kw["e_bang"] = e_bang
    return AczelConfig(**kw)


def _model_numbers(words: list, form: str, count: int | None = 1,
                   base: int = 10) -> list:
    """words as whole numbers, count of them or any number for None: in
    base 10 decimal digits only, in base 0 any literal int() reads. Other
    words are a ValueError showing the line's form."""
    try:
        if count is not None and len(words) != count or base == 10 \
                and not all(w.isdecimal() for w in words):
            raise ValueError
        return [int(w, base) for w in words]
    except ValueError:
        raise ValueError(f"expected '{form}'") from None
