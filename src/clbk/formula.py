"""Formula AST, concrete syntax, and structural queries (occurrences, addresses, elementarization)."""

from __future__ import annotations

import re
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from operator import is_not

POSITIVE = 1
NEGATIVE = -1


class FormulaError(ValueError):
    pass


class ParseError(FormulaError):
    def __init__(self, message, line=None, col=None):
        if line is not None:
            message = f"{message} (line {line}, column {col})"
        super().__init__(message)
        self.line = line
        self.col = col


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
    """Pair of a general atom (the played game) and the elementary atom standing in for it."""

    general: str
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


def atom_name(node: General | Hybrid) -> str:
    """Name of the game a general or hybrid atom stands for."""
    return node.name if isinstance(node, General) else node.general


def child_at(f: Formula, path: Path) -> Formula:
    node = f
    for step in path:
        kids = children(node)
        if not 1 <= step <= len(kids):
            raise PathError(f"path step {step} does not resolve in {print_formula(node)}")
        node = kids[step - 1]
    return node


def substitute_at(f: Formula, path: Path, g: Formula) -> Formula:
    """Replace the subformula addressed by ``path`` with ``g``, leaving every other node intact."""
    if not path:
        return g
    step = path[0]
    kids = list(children(f))
    if not 1 <= step <= len(kids):
        raise PathError(f"path step {step} does not resolve")
    kids[step - 1] = substitute_at(kids[step - 1], path[1:], g)
    return rebuild(f, kids)


def skeleton(f: Formula) -> Formula:
    """Strip every environment annotation; nothing else changes."""
    return transform(f, lambda n: n.child if isinstance(n, EnvAnn) else n)


def polarity(f: Formula, path: Path) -> int:
    """POSITIVE or NEGATIVE: parity of negations over the path, implication antecedents counting as one."""
    node = f
    sign = POSITIVE
    for step in path:
        kids = children(node)
        if not 1 <= step <= len(kids):
            raise PathError(f"path step {step} does not resolve")
        if isinstance(node, Not):
            sign = -sign
        elif isinstance(node, Implies) and step == 1:
            sign = -sign
        node = kids[step - 1]
    return sign


def specification(f: Formula, path: Path) -> str:
    """Dot-terminated address of a surface occurrence; transparent through negation and annotation."""
    node = f
    parts = []
    for step in path:
        kids = children(node)
        if not 1 <= step <= len(kids):
            raise PathError(f"path step {step} does not resolve")
        if isinstance(node, CHOICE_KINDS):
            raise PathError("path crosses a choice operator; not a surface occurrence")
        if isinstance(node, (And, Or, Implies)):
            parts.append(f"{step}.")
        node = kids[step - 1]
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


def _surface_walk(f: Formula):
    def walk(node, path, spec, sign, env):
        match node:
            case EnvAnn(c, agent):
                yield from walk(c, path + (1,), spec, sign, agent)
            case Not(c):
                yield Occurrence(node, path, spec, sign, env)
                yield from walk(c, path + (1,), spec, -sign, env)
            case Implies(l, r):
                yield Occurrence(node, path, spec, sign, env)
                yield from walk(l, path + (1,), spec + "1.", -sign, env)
                yield from walk(r, path + (2,), spec + "2.", sign, env)
            case And(l, r) | Or(l, r):
                yield Occurrence(node, path, spec, sign, env)
                yield from walk(l, path + (1,), spec + "1.", sign, env)
                yield from walk(r, path + (2,), spec + "2.", sign, env)
            case _:
                yield Occurrence(node, path, spec, sign, env)

    yield from walk(f, (), "", POSITIVE, None)


_KIND_FILTERS = {
    "choice": lambda n: isinstance(n, CHOICE_KINDS),
    "general": lambda n: isinstance(n, General),
    "hybrid": lambda n: isinstance(n, Hybrid),
    "atom": lambda n: isinstance(n, (General, Hybrid)),
}


def surface_occurrences(f: Formula, kind: str) -> list[Occurrence]:
    """Occurrences of the given kind ('choice', 'general', 'hybrid', 'atom') not under any choice operator."""
    pick = _KIND_FILTERS[kind]
    return [occ for occ in _surface_walk(f) if pick(occ.node)]


def env_chooses(occ: Occurrence) -> bool:
    """Whether the environment picks the branch of a surface choice occurrence: a positive
    choice conjunction or a negative choice disjunction. The machine picks the other two."""
    return isinstance(occ.node, Chand) == (occ.polarity == POSITIVE)


def is_elementary(f: Formula) -> bool:
    """No choice operators, no general atoms, no hybrid atoms anywhere."""
    match f:
        case Chand(_) | Chor(_) | General(_, _) | Hybrid(_, _, _):
            return False
        case _:
            return all(is_elementary(c) for c in children(f))


def elementarize(f: Formula, backed: Callable[[General], bool] = lambda g: False) -> Formula:
    """Collapse surface choices and general atoms to truth constants; hybrids become their
    elementary component. A negative general atom becomes T; a positive one becomes T exactly
    when ``backed(atom)`` holds (by default never), i.e. the machine already holds a way to win it."""

    def go(node, sign):
        match node:
            case Chand(_):
                return Truth(True)
            case Chor(_):
                return Truth(False)
            case General(_, _):
                return Truth(sign == NEGATIVE or backed(node))
            case Hybrid(_, elem, _):
                return Elementary(elem)
            case Not(c):
                return Not(go(c, -sign))
            case EnvAnn(c, agent):
                return EnvAnn(go(c, sign), agent)
            case And(l, r):
                return And(go(l, sign), go(r, sign))
            case Or(l, r):
                return Or(go(l, sign), go(r, sign))
            case Implies(l, r):
                return Implies(go(l, -sign), go(r, sign))
            case _:
                return node

    return go(f, POSITIVE)


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


def general_names(f: Formula) -> set[str]:
    match f:
        case General(name, _):
            return {name}
        case Hybrid(name, _, _):
            return {name}
        case _:
            out: set[str] = set()
            for c in children(f):
                out |= general_names(c)
            return out


def agent_ids(f: Formula) -> list[str]:
    """Agents named by annotations, in occurrence order, without duplicates."""
    seen: list[str] = []

    def walk(node):
        if isinstance(node, EnvAnn) and node.agent not in seen:
            seen.append(node.agent)
        for c in children(node):
            walk(c)

    walk(f)
    return seen


# --- concrete syntax -------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<arrow>->)
  | (?P<andc>/\\)
  | (?P<orc>\\/)
  | (?P<lower>[a-z][a-zA-Z0-9]*)
  | (?P<upper>[A-Z][A-Za-z0-9]*(_[a-z][a-z0-9]*)?)
  | (?P<quoted>"[^"\s]+")
  | (?P<punct>[()~&|@{}=])
    """,
    re.VERBOSE,
)


class _Lexer:
    def __init__(self, text):
        self.text = text
        self.tokens = []
        self.pos = 0
        line, col = 1, 1
        i = 0
        while i < len(text):
            m = _TOKEN_RE.match(text, i)
            if not m:
                raise ParseError(f"unexpected character {text[i]!r}", line, col)
            kind = m.lastgroup if m.lastgroup != "punct" else m.group()
            if kind == "upper" and "_" in m.group():
                kind = "hybrid"
            if kind != "ws":
                self.tokens.append((kind, m.group(), line, col))
            for ch in m.group():
                if ch == "\n":
                    line, col = line + 1, 1
                else:
                    col += 1
            i = m.end()
        self.tokens.append(("eof", "", line, col))

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2], tok[3])
        return tok


class _Parser:
    def __init__(self, text):
        self.lex = _Lexer(text)

    def parse(self) -> Formula:
        f = self.annotated()
        tok = self.lex.peek()
        if tok[0] != "eof":
            raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2], tok[3])
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
        raise ParseError(f"expected an agent id, found {tok[1]!r}", tok[2], tok[3])

    def impl(self) -> Formula:
        left = self.orx()
        if self.lex.peek()[0] == "arrow":
            self.lex.next()
            return Implies(left, self.impl())
        return left

    def orx(self) -> Formula:
        first = self.andx()
        op = None
        parts = [first]
        while self.lex.peek()[0] in ("orc", "|"):
            tok = self.lex.next()
            if op is None:
                op = tok[0]
            elif op != tok[0]:
                raise ParseError("cannot mix \\/ and | at one level; parenthesize", tok[2], tok[3])
            parts.append(self.andx())
        if op is None:
            return first
        if op == "orc":
            out = parts[0]
            for p in parts[1:]:
                out = Or(out, p)
            return out
        return Chor(tuple(parts))

    def andx(self) -> Formula:
        first = self.unary()
        op = None
        parts = [first]
        while self.lex.peek()[0] in ("andc", "&"):
            tok = self.lex.next()
            if op is None:
                op = tok[0]
            elif op != tok[0]:
                raise ParseError("cannot mix /\\ and & at one level; parenthesize", tok[2], tok[3])
            parts.append(self.unary())
        if op is None:
            return first
        if op == "andc":
            out = parts[0]
            for p in parts[1:]:
                out = And(out, p)
            return out
        return Chand(tuple(parts))

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
        tok = self.lex.next()
        kind, text, line, col = tok
        if kind == "lower":
            if self.lex.peek()[0] == "{":
                raise ParseError("strategy annotations are only allowed on general atoms", line, col)
            return Elementary(text)
        if kind == "hybrid":
            gen, elem = text.split("_")
            return Hybrid(gen, elem, self.note())
        if kind == "upper":
            if text in ("T", "F"):
                if self.lex.peek()[0] == "{":
                    raise ParseError("truth constants take no annotation", line, col)
                return Truth(text == "T")
            return General(text, self.note())
        raise ParseError(f"expected an atom, found {text!r}", line, col)

    def note(self) -> Note | None:
        if self.lex.peek()[0] != "{":
            return None
        self.lex.next()
        tok = self.lex.next()
        if tok[0] != "lower" or tok[1] not in ("h", "s"):
            raise ParseError("annotation kind must be 'h' or 's'", tok[2], tok[3])
        kind = tok[1]
        self.lex.expect("=")
        name_tok = self.lex.next()
        if name_tok[0] not in ("lower", "upper"):
            raise ParseError("annotation needs a name", name_tok[2], name_tok[3])
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


def _atom_str(f: Formula) -> str:
    match f:
        case Truth(v):
            return "T" if v else "F"
        case Elementary(name):
            return name
        case General(name, note):
            return name + (f"{{{note.kind}={note.name}}}" if note else "")
        case Hybrid(gen, elem, note):
            return f"{gen}_{elem}" + (f"{{{note.kind}={note.name}}}" if note else "")
    raise FormulaError("not an atom")


def print_formula(f: Formula) -> str:
    """Canonical text; parse_formula(print_formula(f)) is structurally equal to f."""

    def bare(node):
        return isinstance(node, ATOM_KINDS) or isinstance(node, Not)

    def pr(node):
        match node:
            case EnvAnn(c, agent):
                inner = pr(c)
                if isinstance(c, (And, Or, Chand, Chor)):
                    inner = f"({inner})"
                return f"{inner} @ {_agent_str(agent)}"
            case Implies(l, r):
                ls = pr(l) if bare(l) else f"({pr(l)})"
                rs = pr(r) if bare(r) or isinstance(r, Implies) else f"({pr(r)})"
                return f"{ls} -> {rs}"
            case And(l, r):
                ls = pr(l) if bare(l) or isinstance(l, And) else f"({pr(l)})"
                rs = pr(r) if bare(r) else f"({pr(r)})"
                return f"{ls} /\\ {rs}"
            case Or(l, r):
                ls = pr(l) if bare(l) or isinstance(l, (Or, And)) else f"({pr(l)})"
                rs = pr(r) if bare(r) or isinstance(r, And) else f"({pr(r)})"
                return f"{ls} \\/ {rs}"
            case Chand(parts):
                return " & ".join(pr(p) if bare(p) else f"({pr(p)})" for p in parts)
            case Chor(parts):
                return " | ".join(pr(p) if bare(p) else f"({pr(p)})" for p in parts)
            case Not(c):
                return "~" + (pr(c) if bare(c) else f"({pr(c)})")
            case _:
                return _atom_str(node)

    return pr(f)
