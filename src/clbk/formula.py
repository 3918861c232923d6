"""Formula AST, concrete syntax, and structural queries (occurrences and their addresses).

The formula kinds are plain slotted records (see ``records``), so importing this module
generates no code. A formula's surface walk is memoized on the formula itself:
``surface_occurrences`` keeps the first walk of a non-leaf formula in its slot ``_surface``,
so the simulator, the proof checker and the engine read one walk of each session formula.
``surface_leaves`` reads that walk where there is one, and otherwise walks afresh and keeps
nothing, for the prover's search nodes.
An occurrence has one address, its spec: ``occurrence_at`` is the one descent along a spec, and
``substitute_at`` rebuilds a formula along that same descent. The printer writes atoms with
``atom_text``, connectives with ``SYMBOLS`` and parenthesizes every operand whose kind is not
bare on its side (``_BARE_SIDES``)."""

from __future__ import annotations

import re
from collections.abc import Callable, Sequence
from functools import reduce
from itertools import islice
from operator import is_not
from typing import NamedTuple

from .records import Frozen, set_field

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


def file_message(exc: ParseError, lineno: int, start: int) -> str:
    """``exc``, raised by a formula that starts at 0-based column ``start`` of file line
    ``lineno``, placed in the file by the line and column there."""
    return f"line {lineno}, column {start + exc.col}: {exc.message}"


class Note(Frozen):
    """Strategy annotation on a general atom: kind 'h' (machine heuristic) or 's' (environment script)."""

    __slots__ = __match_args__ = ("kind", "name")

    def __init__(self, kind: str, name: str):
        set_field(self, "kind", kind)
        set_field(self, "name", name)


class Formula(Frozen):
    """Base of the formula kinds, immutable records (see ``records``). They compare and hash
    the tuple of their fields, so a subformula that both sides share is matched by identity,
    without a call. A negation, an annotation and a binary node keep their surface walk in the
    slot ``_surface`` (see ``surface_occurrences``); the leaf kinds of the walk read this
    class's None."""

    __slots__ = ()
    _surface = None


class Truth(Formula):
    __slots__ = __match_args__ = ("value",)

    def __init__(self, value: bool):
        set_field(self, "value", value)


class Elementary(Formula):
    __slots__ = __match_args__ = ("name",)

    def __init__(self, name: str):
        set_field(self, "name", name)


class General(Formula):
    __slots__ = __match_args__ = ("name", "note")

    def __init__(self, name: str, note: Note | None = None):
        set_field(self, "name", name)
        set_field(self, "note", note)


class Hybrid(Formula):
    """Pair of a general atom (the played game, ``name`` as on ``General``) and the elementary
    atom standing in for it; ``atom_text`` prints it ``name_elementary``."""

    __slots__ = __match_args__ = ("name", "elementary", "note")

    def __init__(self, name: str, elementary: str, note: Note | None = None):
        set_field(self, "name", name)
        set_field(self, "elementary", elementary)
        set_field(self, "note", note)


class Not(Formula):
    __match_args__ = ("child",)
    __slots__ = (*__match_args__, "_surface")

    def __init__(self, child: Formula):
        set_field(self, "child", child)
        set_field(self, "_surface", None)


class _Binary(Formula):
    """The shape of ``And``, ``Or`` and ``Implies``, the kinds the prover builds most."""

    __match_args__ = ("left", "right")
    __slots__ = (*__match_args__, "_surface")

    def __init__(self, left: Formula, right: Formula):
        _set_left(self, left)
        _set_right(self, right)
        _set_binary_walk(self, None)


# each slot's own setter, which costs less than set_field's lookup of the slot by name
_set_left, _set_right, _set_binary_walk = (_Binary.__dict__[name].__set__ for name in _Binary.__slots__)


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Implies(_Binary):
    __slots__ = ()


class _Choice(Formula):
    """The shape of ``Chand`` and ``Chor``: n-ary, n >= 2."""

    __slots__ = __match_args__ = ("parts",)

    def __init__(self, parts: tuple[Formula, ...]):
        if len(parts) < 2:
            raise FormulaError(f"{self._connective} needs at least two branches")
        set_field(self, "parts", parts)


class Chand(_Choice):
    """Choice conjunction; the environment picks the branch."""

    __slots__ = ()
    _connective = "choice conjunction"


class Chor(_Choice):
    """Choice disjunction; the machine picks the branch."""

    __slots__ = ()
    _connective = "choice disjunction"


class EnvAnn(Formula):
    """Marks a subformula as played against a named agent."""

    __match_args__ = ("child", "agent")
    __slots__ = (*__match_args__, "_surface")

    def __init__(self, child: Formula, agent: str):
        set_field(self, "child", child)
        set_field(self, "agent", agent)
        set_field(self, "_surface", None)


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


def substitute_at(f: Formula, spec: str, g: Formula) -> Formula:
    """``f`` with the node ``occurrence_at(f, spec)`` reaches replaced by ``g``, passing every
    negation and annotation as that descent does and keeping every node off the way. ``spec``
    must be read to the end (``occurrence_at(f, spec).spec == spec``), as a walk's specs are."""
    kind = type(f)
    if kind is Not or kind is EnvAnn:
        return rebuild(f, (substitute_at(f.child, spec, g),))
    if not spec:
        return g
    if spec[0] == "1":
        return kind(substitute_at(f.left, spec[2:], g), f.right)
    return kind(f.left, substitute_at(f.right, spec[2:], g))


class Occurrence(NamedTuple):
    """A node of a walked formula: its ``node``, its ``spec``, which is its one address, its
    ``polarity`` and the agent ``env`` of its innermost annotation, if any. The surface walk
    makes one per surface leaf, and ``occurrence_at`` one for the node a spec leads to. A
    tuple, so cheap to build and immutable. Equality and hashing are by fields, as for any
    tuple, which compares or hashes ``node`` in full; ``PairPremise.leaves`` finds its two
    occurrences in a walk by identity (``is``) instead."""

    node: Formula
    spec: str
    polarity: int
    env: str | None


# A spec: one dot-terminated step per binary connective on the way, in ASCII digits. The
# pattern is what a bind line or an interactive move reads as its spec; a step other than
# ``1.`` or ``2.`` matches it but leads nowhere.
SPEC_RE = re.compile(r"(?:[0-9]+\.)*")


def occurrence_at(f: Formula, spec: str) -> Occurrence:
    """The one descent along a spec. From ``f``'s root it passes every negation and
    annotation, and takes a step at a binary connective while ``spec`` goes on with ``1.``
    or ``2.``; it stops where neither applies. The result is the innermost node reached,
    with its polarity and agent, and its ``spec`` is the part of ``spec`` read: ``spec``
    itself exactly when ``spec`` addresses that node. Along a surface leaf's spec it gives
    the leaf as ``surface_leaves`` does."""
    steps = spec.split(".")
    steps[-1] = None  # what follows the last dot is no step, even when empty
    node, sign, env, i = f, POSITIVE, None, 0
    while True:
        kind = type(node)  # as in _surface_walk, a type test is cheaper than isinstance
        if kind is EnvAnn:
            node, env = node.child, node.agent
        elif kind is Not:
            node, sign = node.child, -sign
        elif kind in BINARY_KINDS and (step := steps[i]) in ("1", "2"):
            if step == "1":
                node, sign = node.left, (-sign if kind is Implies else sign)
            else:
                node = node.right
            i += 1
        else:  # each step read is two characters
            return Occurrence(node, spec[: 2 * i], sign, env)


def _surface_walk(out: list[Occurrence], node: Formula, spec: str, sign: int, env: str | None) -> None:
    """Append the leaf occurrences (atoms, truth constants and choices) not under a choice
    operator to ``out``, left to right: loop down annotations, negations and right children,
    and recurse only into left children."""
    while True:
        kind = type(node)  # no subclasses of these five exist; a type test is cheaper than a match
        if kind is EnvAnn:
            node, env = node.child, node.agent
        elif kind is Not:
            node, sign = node.child, -sign
        elif kind is Implies:
            _surface_walk(out, node.left, spec + "1.", -sign, env)
            node, spec = node.right, spec + "2."
        elif kind is And or kind is Or:
            _surface_walk(out, node.left, spec + "1.", sign, env)
            node, spec = node.right, spec + "2."
        else:
            out.append(Occurrence(node, spec, sign, env))
            return


def surface_leaves(f: Formula) -> Sequence[Occurrence]:
    """Every surface leaf occurrence of ``f`` (atoms, truth constants and choices): ``f``'s
    kept walk if it has one (see ``surface_occurrences``), else a walk of its own that nothing
    keeps, for formulas visited once, such as the prover's search nodes."""
    walk = f._surface
    if walk is not None:
        return walk
    out: list[Occurrence] = []
    _surface_walk(out, f, "", POSITIVE, None)
    return out


_KIND_FILTERS = {
    "choice": CHOICE_KINDS,
    "general": (General,),
    "hybrid": (Hybrid,),
    "atom": (General, Hybrid),
}


def surface_occurrences(f: Formula, kind: str) -> list[Occurrence]:
    """Occurrences of the given kind ('choice', 'general', 'hybrid', 'atom', or 'leaf' for atoms
    and choices alike) not under any choice operator.

    The first call on ``f`` keeps its walk in ``f``'s slot ``_surface`` (no field, so
    equality, hashing and printing ignore it), and every later call filters that walk:
    callers share the same ``Occurrence`` objects. A leaf ``f`` is walked anew each time,
    since its walk would hold ``f`` itself, a reference cycle."""
    walk = f._surface
    if walk is None:
        walk = tuple(surface_leaves(f))
        if walk[0].node is not f:
            set_field(f, "_surface", walk)
    if kind == "leaf":
        return list(walk)
    kinds = _KIND_FILTERS[kind]
    return [occ for occ in walk if isinstance(occ.node, kinds)]


def env_chooses(occ: Occurrence) -> bool:
    """Whether the environment picks the branch of a surface choice occurrence: a positive
    choice conjunction or a negative choice disjunction. The machine picks the other two."""
    return isinstance(occ.node, Chand) == (occ.polarity == POSITIVE)


def elementary_names(f: Formula) -> set[str]:
    """Every elementary name in ``f``, under choices too; a hybrid counts by its elementary
    component."""
    out: set[str] = set()
    stack = [f]
    while stack:
        node = stack.pop()
        kind = type(node)  # as in _surface_walk, a type test is cheaper than isinstance
        if kind is Elementary:
            out.add(node.name)
        elif kind is Hybrid:
            out.add(node.elementary)
        elif kind is not General and kind is not Truth:
            stack.extend(children(node))
    return out


def note_names(f: Formula, kind: str) -> set[str]:
    """Names the notes of ``kind`` ('h' or 's') carry anywhere in ``f``, under choices too."""
    out: set[str] = set()
    stack = [f]
    while stack:
        node = stack.pop()
        if isinstance(node, (General, Hybrid)):
            if node.note is not None and node.note.kind == kind:
                out.add(node.note.name)
        else:
            stack.extend(children(node))
    return out


# --- concrete syntax -------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    [a-z][a-zA-Z0-9]*                       # elementary atom, or an agent id
  | [A-Z][A-Za-z0-9]*(?:_[a-z][a-z0-9]*)?   # general atom, truth constant, hybrid atom, or an agent id
  | "[^"\s]+"                               # quoted agent id
  | ->|/\\|\\/|[()~&|@{}=]                  # connectives and punctuation
    """,
    re.VERBOSE,
)

# The longest prefix that splits into whitespace and tokens: it ends at the first character
# that starts no token. The star never backtracks, since nothing follows it.
_LEXED_RE = re.compile(rf"(?:\s+|{_TOKEN_RE.pattern})*", re.VERBOSE)

# The two binary levels, loosest first: (parallel, choice, binary kind, n-ary kind).
_LEVELS = (("\\/", "|", Or, Chor), ("/\\", "&", And, Chand))


class _Parser:
    """Recursive descent over the token texts of one ``_TOKEN_RE.findall`` scan, with ``""``
    for the end of input; a token's kind is read from its text. A character that starts no
    token is reported before any syntax error, and an error's offset is found by a second
    scan, made only to raise it."""

    def __init__(self, text):
        self.text = text
        self.tokens = _TOKEN_RE.findall(text)
        # findall skips what starts no token: whitespace, and any bad character
        if sum(map(len, self.tokens)) != len("".join(text.split())):
            offset = _LEXED_RE.match(text).end()
            raise _error(text, f"unexpected character {text[offset]!r}", offset)
        self.tokens.append("")
        self.pos = 0
        self.annotations = 0  # the ``@`` annotations read so far

    def error(self, message, index=None) -> ParseError:
        """The error to raise at token ``index``, by default the next one."""
        index = self.pos if index is None else index
        found = next(islice(_TOKEN_RE.finditer(self.text), index, None), None)
        return _error(self.text, message, len(self.text) if found is None else found.start())

    def parse(self) -> Formula:
        f = self.annotated()
        if self.tokens[self.pos]:
            raise self.error(f"unexpected trailing input {self.tokens[self.pos]!r}")
        return f

    def annotated(self) -> Formula:
        """An implication, annotated with ``@ agent`` only if it holds no annotation itself."""
        before = self.annotations
        f = self.impl()
        if self.tokens[self.pos] == "@":
            if self.annotations != before:
                raise self.error("env-switching annotation: nested '@' is not allowed")
            self.pos += 1
            f = EnvAnn(f, self.agentid())
            self.annotations += 1
        return f

    def agentid(self) -> str:
        tok = self.tokens[self.pos]
        if tok[:1] == '"':
            self.pos += 1
            return tok[1:-1]
        if tok[:1].isalpha() and "_" not in tok:
            self.pos += 1
            return tok
        raise self.error(f"expected an agent id, found {tok!r}")

    def impl(self) -> Formula:
        left = self.level(0)
        if self.tokens[self.pos] == "->":
            self.pos += 1
            return Implies(left, self.impl())
        return left

    def level(self, depth: int) -> Formula:
        """One binary level of ``_LEVELS``: operands joined by its parallel connective into a
        left-associated chain, or by its choice connective into one n-ary node; mixing the
        two needs parentheses. The operands are the next level's, or unary ones."""
        parallel, choice, binary, nary = _LEVELS[depth]
        f = self.unary() if depth else self.level(1)
        op = self.tokens[self.pos]
        if op != parallel and op != choice:
            return f
        parts = [f]
        while self.tokens[self.pos] == op:
            self.pos += 1
            parts.append(self.unary() if depth else self.level(1))
        if self.tokens[self.pos] in (parallel, choice):
            raise self.error(f"cannot mix {parallel} and {choice} at one level; parenthesize")
        return nary(tuple(parts)) if op == choice else reduce(binary, parts)

    def unary(self) -> Formula:
        tok = self.tokens[self.pos]
        self.pos += 1
        if tok == "~":
            return Not(self.unary())
        if tok == "(":
            f = self.annotated()
            self.expect(")")
            return f
        if tok[:1].islower():
            if self.tokens[self.pos] == "{":
                raise self.error("strategy annotations are only allowed on general atoms", self.pos - 1)
            return Elementary(tok)
        if not tok[:1].isupper():
            raise self.error(f"expected an atom, found {tok!r}", self.pos - 1)
        if "_" in tok:
            gen, elem = tok.split("_")
            return Hybrid(gen, elem, self.note())
        if tok == "T" or tok == "F":
            if self.tokens[self.pos] == "{":
                raise self.error("truth constants take no annotation", self.pos - 1)
            return Truth(tok == "T")
        return General(tok, self.note())

    def expect(self, tok: str) -> None:
        if self.tokens[self.pos] != tok:
            raise self.error(f"expected {tok!r}, found {self.tokens[self.pos]!r}")
        self.pos += 1

    def note(self) -> Note | None:
        if self.tokens[self.pos] != "{":
            return None
        kind = self.tokens[self.pos + 1]
        if kind != "h" and kind != "s":
            raise self.error("annotation kind must be 'h' or 's'", self.pos + 1)
        self.pos += 2
        self.expect("=")
        name = self.tokens[self.pos]
        if not name[:1].isalpha() or "_" in name:
            raise self.error("annotation needs a name")
        self.pos += 1
        self.expect("}")
        return Note(kind, name)


def _error(text: str, message: str, offset: int) -> ParseError:
    """The error to raise at character ``offset`` of ``text``, with its 1-based line and column."""
    line = text.count("\n", 0, offset) + 1
    return ParseError(message, line, offset - text.rfind("\n", 0, offset))


def parse_formula(text: str) -> Formula:
    return _Parser(text).parse()


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

# The kinds that print bare as an operand: atoms and negations everywhere, and by side the
# connectives that bind at least as tightly or associate that way; every other operand is
# parenthesized. Each binary connective's entry is (left side, right side).
_BARE = frozenset((*ATOM_KINDS, Not))
_BARE_SIDES = {
    Implies: (_BARE, _BARE | {Implies}),
    And: (_BARE | {And}, _BARE),
    Or: (_BARE | {Or, And}, _BARE | {And}),
}
_BARE_ANNOTATED = _BARE | {Implies}


def print_formula(f: Formula) -> str:
    """Canonical text; parse_formula(print_formula(f)) is structurally equal to f. Each
    operand is printed and parenthesized in this frame, so a formula nests one frame deep per
    level."""
    kind = type(f)
    sides = _BARE_SIDES.get(kind)
    if sides is not None:
        left, right = print_formula(f.left), print_formula(f.right)
        if type(f.left) not in sides[0]:
            left = f"({left})"
        if type(f.right) not in sides[1]:
            right = f"({right})"
        return f"{left} {SYMBOLS[kind]} {right}"
    if kind is Chand or kind is Chor:
        texts = []
        for part in f.parts:
            text = print_formula(part)
            texts.append(text if type(part) in _BARE else f"({text})")
        return f" {SYMBOLS[kind]} ".join(texts)
    if kind is Not:
        text = print_formula(f.child)
        return f"~{text}" if type(f.child) in _BARE else f"~({text})"
    if kind is EnvAnn:
        text = print_formula(f.child)
        if type(f.child) not in _BARE_ANNOTATED:
            text = f"({text})"
        return f"{text} @ {_agent_str(f.agent)}"
    return atom_text(f)
