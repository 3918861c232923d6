"""Formula AST, concrete syntax, and structural queries (occurrences, addresses, elementarization).

Paths are read through ``_trail``. The printer writes atoms with ``atom_text``, connectives with
``SYMBOLS`` and every operand by the one parenthesization rule of ``_operand``."""

from __future__ import annotations

import re
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import partial, reduce
from operator import is_not

POSITIVE = 1
NEGATIVE = -1


class FormulaError(ValueError):
    pass


class ParseError(FormulaError):
    def __init__(self, message, line=None, col=None):
        super().__init__(message if line is None else f"{message} (line {line}, column {col})")
        self.message = message
        self.line = line
        self.col = col


def file_message(exc: FormulaError, lineno: int, start: int) -> str:
    """``exc``, raised by a formula that starts at 0-based column ``start`` of file line
    ``lineno``, placed in the file: a parse error by the line and column there, others by line."""
    if isinstance(exc, ParseError):
        return f"line {lineno}, column {start + exc.col}: {exc.message}"
    return f"line {lineno}: {exc}"


class PathError(FormulaError):
    pass


@dataclass(frozen=True)
class Note:
    """Strategy annotation on a general atom: kind 'h' (machine heuristic) or 's' (environment script)."""

    kind: str
    name: str


@dataclass(frozen=True)
class Formula:
    pass


@dataclass(frozen=True)
class Truth(Formula):
    value: bool


@dataclass(frozen=True)
class Elementary(Formula):
    name: str


@dataclass(frozen=True)
class General(Formula):
    name: str
    note: Note | None = None


@dataclass(frozen=True)
class Hybrid(Formula):
    """Pair of a general atom (the played game, ``name`` as on ``General``) and the elementary
    atom standing in for it; ``atom_text`` prints it ``name_elementary``."""

    name: str
    elementary: str
    note: Note | None = None


@dataclass(frozen=True)
class Not(Formula):
    child: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Chand(Formula):
    """Choice conjunction, n-ary (n >= 2); the environment picks the branch."""

    parts: tuple[Formula, ...]

    def __post_init__(self):
        if len(self.parts) < 2:
            raise FormulaError("choice conjunction needs at least two branches")


@dataclass(frozen=True)
class Chor(Formula):
    """Choice disjunction, n-ary (n >= 2); the machine picks the branch."""

    parts: tuple[Formula, ...]

    def __post_init__(self):
        if len(self.parts) < 2:
            raise FormulaError("choice disjunction needs at least two branches")


@dataclass(frozen=True)
class EnvAnn(Formula):
    """Marks a subformula as played against a named agent."""

    child: Formula
    agent: str


Path = tuple[int, ...]

ATOM_KINDS = (Truth, Elementary, General, Hybrid)
CHOICE_KINDS = (Chand, Chor)
BINARY_KINDS = (And, Or, Implies)


def children(f: Formula) -> tuple[Formula, ...]:
    if isinstance(f, BINARY_KINDS):
        return (f.left, f.right)
    if isinstance(f, (Not, EnvAnn)):
        return (f.child,)
    if isinstance(f, CHOICE_KINDS):
        return f.parts
    return ()


def rebuild(node: Formula, kids: Sequence[Formula]) -> Formula:
    """``node``'s connective over the new children ``kids``; an atom comes back as it is."""
    if isinstance(node, BINARY_KINDS):
        return type(node)(kids[0], kids[1])
    if isinstance(node, Not):
        return Not(kids[0])
    if isinstance(node, EnvAnn):
        return EnvAnn(kids[0], node.agent)
    if isinstance(node, CHOICE_KINDS):
        return type(node)(tuple(kids))
    return node


def transform(f: Formula, fn: Callable[[Formula], Formula]) -> Formula:
    """Bottom-up rewrite: ``fn`` maps each node after its children have been rewritten. A node
    whose children all come back as the same objects is passed to ``fn`` itself, not a copy."""
    kids = children(f)
    if kids:
        new = [transform(k, fn) for k in kids]
        if any(map(is_not, new, kids)):
            f = rebuild(f, new)
    return fn(f)


def _trail(f: Formula, path: Path) -> list[Formula]:
    """The nodes ``path`` passes through, from ``f`` to the node it addresses."""
    trail = [f]
    for step in path:
        kids = children(trail[-1])
        if not 1 <= step <= len(kids):
            raise PathError(f"path step {step} does not resolve in {print_formula(trail[-1])}")
        trail.append(kids[step - 1])
    return trail


def child_at(f: Formula, path: Path) -> Formula:
    return _trail(f, path)[-1]


def substitute_at(f: Formula, path: Path, g: Formula) -> Formula:
    """Replace the subformula addressed by ``path`` with ``g``, leaving every other node intact."""
    if not path:
        return g
    step = path[0]
    kids = list(children(f))
    if not 1 <= step <= len(kids):
        raise PathError(f"path step {step} does not resolve in {print_formula(f)}")
    kids[step - 1] = substitute_at(kids[step - 1], path[1:], g)
    return rebuild(f, kids)


def substitute_paths(f: Formula, replacements: dict[Path, Formula], path: Path = ()) -> Formula:
    """Replace, in one pass, the subformula at each path of ``replacements`` (paths relative to
    ``f``, none a prefix of another) with its value; ``path`` is where ``f`` sits in the walk."""
    if path in replacements:
        return replacements[path]
    kids = children(f)
    new = [substitute_paths(k, replacements, path + (i,)) for i, k in enumerate(kids, start=1)]
    return rebuild(f, new) if any(map(is_not, new, kids)) else f


def skeleton(f: Formula) -> Formula:
    """Strip every environment annotation; nothing else changes."""
    return transform(f, lambda n: n.child if isinstance(n, EnvAnn) else n)


def polarity(f: Formula, path: Path) -> int:
    """POSITIVE or NEGATIVE: parity of negations over the path, implication antecedents counting as one."""
    steps = zip(_trail(f, path), path)
    flips = sum(isinstance(node, Not) or (isinstance(node, Implies) and step == 1) for node, step in steps)
    return NEGATIVE if flips % 2 else POSITIVE


def specification(f: Formula, path: Path) -> str:
    """Dot-terminated address of a surface occurrence; transparent through negation and annotation."""
    parts = []
    for node, step in zip(_trail(f, path), path):
        if isinstance(node, CHOICE_KINDS):
            raise PathError("path crosses a choice operator; not a surface occurrence")
        if isinstance(node, BINARY_KINDS):
            parts.append(f"{step}.")
    return "".join(parts)


_SPEC_RE = re.compile(r"^(\d+\.)*$")


def resolve_spec(f: Formula, spec: str) -> Path:
    """Inverse of specification: the innermost occurrence addressed by ``spec``."""
    if not _SPEC_RE.match(spec):
        raise FormulaError(f"malformed specification string {spec!r}")
    components = [int(p) for p in spec.split(".") if p]
    node = f
    path: list[int] = []
    while True:
        if isinstance(node, (Not, EnvAnn)):
            path.append(1)
            node = children(node)[0]
            continue
        if not components:
            return tuple(path)
        if isinstance(node, (And, Or, Implies)):
            step = components.pop(0)
            kids = children(node)
            if not 1 <= step <= len(kids):
                raise FormulaError(f"specification {spec!r} does not address an occurrence")
            path.append(step)
            node = kids[step - 1]
            continue
        if isinstance(node, CHOICE_KINDS):
            raise FormulaError(f"specification {spec!r} crosses a choice operator")
        raise FormulaError(f"specification {spec!r} does not address an occurrence")


@dataclass(frozen=True)
class Occurrence:
    node: Formula
    path: Path
    spec: str
    polarity: int
    env: str | None


def _surface_walk(out: list[Occurrence], node: Formula, path: Path, spec: str, sign: int, env: str | None) -> None:
    """Append the leaf occurrences (atoms, truth constants and choices) not under a choice
    operator to ``out``, left to right: loop down annotations, negations and right children,
    and recurse only into left children."""
    while True:
        kind = type(node)  # no subclasses of these five exist; a type test is cheaper than a match
        if kind is EnvAnn:
            node, path, env = node.child, path + (1,), node.agent
        elif kind is Not:
            node, path, sign = node.child, path + (1,), -sign
        elif kind is Implies:
            _surface_walk(out, node.left, path + (1,), spec + "1.", -sign, env)
            node, path, spec = node.right, path + (2,), spec + "2."
        elif kind is And or kind is Or:
            _surface_walk(out, node.left, path + (1,), spec + "1.", sign, env)
            node, path, spec = node.right, path + (2,), spec + "2."
        else:
            out.append(Occurrence(node, path, spec, sign, env))
            return


_KIND_FILTERS = {
    "choice": lambda n: isinstance(n, CHOICE_KINDS),
    "general": lambda n: isinstance(n, General),
    "hybrid": lambda n: isinstance(n, Hybrid),
    "atom": lambda n: isinstance(n, (General, Hybrid)),
    "leaf": lambda n: True,  # the walk appends leaves only
}


def surface_occurrences(f: Formula, kind: str) -> list[Occurrence]:
    """Occurrences of the given kind ('choice', 'general', 'hybrid', 'atom', or 'leaf' for atoms
    and choices alike) not under any choice operator."""
    pick = _KIND_FILTERS[kind]
    out: list[Occurrence] = []
    _surface_walk(out, f, (), "", POSITIVE, None)
    return [occ for occ in out if pick(occ.node)]


def env_chooses(occ: Occurrence) -> bool:
    """Whether the environment picks the branch of a surface choice occurrence: a positive
    choice conjunction or a negative choice disjunction. The machine picks the other two."""
    return isinstance(occ.node, Chand) == (occ.polarity == POSITIVE)


def is_elementary(f: Formula) -> bool:
    """No choice operators, no general atoms, no hybrid atoms anywhere: exactly the kinds
    elementarization replaces, so it leaves an elementary formula as it is."""
    return elementarize(f) == f


def elementarize(f: Formula, backed: Callable[[General], bool] = lambda g: False, names: bool = False) -> Formula:
    """Collapse surface choices and general atoms to truth constants; hybrids become their
    elementary component. A negative general atom becomes T; a positive one becomes T exactly
    when ``backed(atom)`` holds (by default never), i.e. the machine already holds a way to win it.

    With ``names``, the name-level elementarization: a general atom that is not a backed
    positive one becomes the elementary atom named after it, at either polarity. General
    names are upper case and elementary ones lower case, so the two never clash."""

    def general(g: General, sign: int) -> Formula:
        if sign == POSITIVE and backed(g):
            return Truth(True)
        return Elementary(g.name) if names else Truth(sign == NEGATIVE)

    return _elementarize(f, POSITIVE, general)


def _elementarize(node: Formula, sign: int, general: Callable[[General, int], Formula]) -> Formula:
    kind = type(node)  # as in _surface_walk, a type test is cheaper than a match
    if kind is And:
        return And(_elementarize(node.left, sign, general), _elementarize(node.right, sign, general))
    if kind is Or:
        return Or(_elementarize(node.left, sign, general), _elementarize(node.right, sign, general))
    if kind is Implies:
        return Implies(_elementarize(node.left, -sign, general), _elementarize(node.right, sign, general))
    if kind is Not:
        return Not(_elementarize(node.child, -sign, general))
    if kind is General:
        return general(node, sign)
    if kind is Hybrid:
        return Elementary(node.elementary)
    if kind is EnvAnn:
        return EnvAnn(_elementarize(node.child, sign, general), node.agent)
    if kind is Chand:
        return Truth(True)
    if kind is Chor:
        return Truth(False)
    return node


def elementary_names(f: Formula) -> set[str]:
    out: set[str] = set()
    stack = [f]
    while stack:
        node = stack.pop()
        if isinstance(node, Elementary):
            out.add(node.name)
        elif isinstance(node, Hybrid):
            out.add(node.elementary)
        else:
            stack.extend(children(node))
    return out


def note_names(f: Formula, kind: str) -> set[str]:
    """Names the notes of ``kind`` ('h' or 's') carry anywhere in ``f``, under choices too."""
    own = {f.note.name} if isinstance(f, (General, Hybrid)) and f.note is not None and f.note.kind == kind else set()
    return own.union(*(note_names(c, kind) for c in children(f)))


# --- concrete syntax -------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<lower>[a-z][a-zA-Z0-9]*)
  | (?P<upper>[A-Z][A-Za-z0-9]*(_[a-z][a-z0-9]*)?)
  | (?P<quoted>"[^"\s]+")
  | (?P<punct>->|/\\|\\/|[()~&|@{}=])
    """,
    re.VERBOSE,
)


class _Lexer:
    """Tokens as ``(kind, text, offset)``; a connective or punctuation token's kind is its text."""

    def __init__(self, text):
        self.text = text
        self.tokens = []
        self.pos = 0
        i = 0
        while i < len(text):
            m = _TOKEN_RE.match(text, i)
            if not m:
                raise self.error(f"unexpected character {text[i]!r}", i)
            kind = m.lastgroup if m.lastgroup != "punct" else m.group()
            if kind == "upper" and "_" in m.group():
                kind = "hybrid"
            if kind != "ws":
                self.tokens.append((kind, m.group(), i))
            i = m.end()
        self.tokens.append(("eof", "", len(text)))

    def error(self, message, offset) -> ParseError:
        """The error to raise at character ``offset``, with its 1-based line and column."""
        line = self.text.count("\n", 0, offset) + 1
        return ParseError(message, line, offset - self.text.rfind("\n", 0, offset))

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise self.error(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok


class _Parser:
    def __init__(self, text):
        self.lex = _Lexer(text)

    def parse(self) -> Formula:
        f = self.annotated()
        tok = self.lex.peek()
        if tok[0] != "eof":
            raise self.lex.error(f"unexpected trailing input {tok[1]!r}", tok[2])
        return f

    def annotated(self) -> Formula:
        f = self.impl()
        if self.lex.peek()[0] == "@":
            self.lex.next()
            agent = self.agentid()
            f = EnvAnn(f, agent)
        return f

    def agentid(self) -> str:
        tok = self.lex.next()
        if tok[0] == "quoted":
            return tok[1][1:-1]
        if tok[0] in ("lower", "upper"):
            return tok[1]
        raise self.lex.error(f"expected an agent id, found {tok[1]!r}", tok[2])

    def impl(self) -> Formula:
        left = self.chain(partial(self.chain, self.unary, "/\\", "&", And, Chand), "\\/", "|", Or, Chor)
        if self.lex.peek()[0] == "->":
            self.lex.next()
            return Implies(left, self.impl())
        return left

    def chain(self, operand, parallel, choice, binary, nary) -> Formula:
        """One precedence level: ``operand``s joined by ``parallel`` into a left-associated
        ``binary`` chain, or by ``choice`` into one ``nary`` node; mixing the two needs parentheses."""
        parts = [operand()]
        op = None
        while (tok := self.lex.peek())[0] in (parallel, choice):
            if op is None:
                op = tok[0]
            elif tok[0] != op:
                raise self.lex.error(f"cannot mix {parallel} and {choice} at one level; parenthesize", tok[2])
            self.lex.next()
            parts.append(operand())
        return nary(tuple(parts)) if op == choice else reduce(binary, parts)

    def unary(self) -> Formula:
        tok = self.lex.peek()
        if tok[0] == "~":
            self.lex.next()
            return Not(self.unary())
        if tok[0] == "(":
            self.lex.next()
            f = self.annotated()
            self.lex.expect(")")
            return f
        return self.atom()

    def atom(self) -> Formula:
        kind, text, offset = self.lex.next()
        if kind == "lower":
            if self.lex.peek()[0] == "{":
                raise self.lex.error("strategy annotations are only allowed on general atoms", offset)
            return Elementary(text)
        if kind == "hybrid":
            gen, elem = text.split("_")
            return Hybrid(gen, elem, self.note())
        if kind == "upper":
            if text in ("T", "F"):
                if self.lex.peek()[0] == "{":
                    raise self.lex.error("truth constants take no annotation", offset)
                return Truth(text == "T")
            return General(text, self.note())
        raise self.lex.error(f"expected an atom, found {text!r}", offset)

    def note(self) -> Note | None:
        if self.lex.peek()[0] != "{":
            return None
        self.lex.next()
        tok = self.lex.next()
        if tok[0] != "lower" or tok[1] not in ("h", "s"):
            raise self.lex.error("annotation kind must be 'h' or 's'", tok[2])
        kind = tok[1]
        self.lex.expect("=")
        name_tok = self.lex.next()
        if name_tok[0] not in ("lower", "upper"):
            raise self.lex.error("annotation needs a name", name_tok[2])
        self.lex.expect("}")
        return Note(kind, name_tok[1])


def _check_no_env_switching(f: Formula, inside=False):
    if isinstance(f, EnvAnn):
        if inside:
            raise FormulaError("env-switching annotation: nested '@' is not allowed")
        inside = True
    for c in children(f):
        _check_no_env_switching(c, inside)


def parse_formula(text: str) -> Formula:
    f = _Parser(text).parse()
    _check_no_env_switching(f)
    return f


_BARE_AGENT_RE = re.compile(r"^[A-Za-z][A-Za-z0-9]*$")


def _agent_str(agent: str) -> str:
    return agent if _BARE_AGENT_RE.match(agent) else f'"{agent}"'


def atom_text(f: Formula) -> str:
    """An atom or truth constant as it prints, its note included."""
    kind = type(f)
    if kind is Truth:
        return "T" if f.value else "F"
    if kind is Elementary:
        return f.name
    if kind is not General and kind is not Hybrid:
        raise FormulaError("not an atom")
    text = f.name if kind is General else f"{f.name}_{f.elementary}"
    return text if f.note is None else f"{text}{{{f.note.kind}={f.note.name}}}"


SYMBOLS = {Not: "~", Implies: "->", And: "/\\", Or: "\\/", Chand: "&", Chor: "|"}

# The kinds each binary connective prints bare as its left and as its right operand, besides
# atoms and negations; every other operand is parenthesized.
_OPEN_KINDS = {Implies: ((), (Implies,)), And: ((And,), ()), Or: ((Or, And), (And,))}


def _operand(node: Formula, open_kinds: tuple[type, ...]) -> str:
    """``node`` printed bare when it is an atom, a negation or one of ``open_kinds``, else parenthesized."""
    text = print_formula(node)
    return text if isinstance(node, (*ATOM_KINDS, Not, *open_kinds)) else f"({text})"


def print_formula(f: Formula) -> str:
    """Canonical text; parse_formula(print_formula(f)) is structurally equal to f."""
    kind = type(f)
    if kind in _OPEN_KINDS:
        left, right = _OPEN_KINDS[kind]
        return f"{_operand(f.left, left)} {SYMBOLS[kind]} {_operand(f.right, right)}"
    if kind in CHOICE_KINDS:
        return f" {SYMBOLS[kind]} ".join(_operand(p, ()) for p in f.parts)
    if kind is Not:
        return "~" + _operand(f.child, ())
    if kind is EnvAnn:
        return f"{_operand(f.child, (Implies,))} @ {_agent_str(f.agent)}"
    return atom_text(f)
