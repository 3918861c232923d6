"""Line-oriented scenario files: agent blocks with game bindings, scripts, heuristics,
resource bases and startup queries."""

from __future__ import annotations

import re
from importlib import resources

from .agents import Agent, ResourceEntry, is_contract
from .formula import FormulaError, file_message, parse_formula
from .games import GAME_FACTORIES, GameDef, Heuristic, Script

_AGENT_RE = re.compile(r'^agent\s+("(?P<quoted>[^"\s]+)"|(?P<bare>[A-Za-z][A-Za-z0-9]*))(\s+kind=(?P<kind>provider|consumer|regular))?$')
_GAME_RE = re.compile(r"^game\s+(?P<atom>[A-Z][A-Za-z0-9]*)\s*=\s*(?P<factory>coffee|dollar)\s*\(\s*(?P<param>[a-z]+)\s*=\s*(?P<value>\d+)\s*\)$")
_GAME_PARAMS = {"coffee": "zmax", "dollar": "vmax"}  # each factory's one bound
_SCRIPT_RE = re.compile(r"^script\s+(?P<name>[a-z][a-z0-9]*)\s*=\s*\[(?P<items>[^\]]*)\]$")
_HEURISTIC_RE = re.compile(r"^heuristic\s+(?P<name>[a-z][a-zA-Z0-9]*)\s*=\s*(?P<kind>coffee|dollar)$")
_FORMULA_RE = re.compile(r"^(?P<kind>rb|query)\s+(?P<formula>.+)$")


class ScenarioError(ValueError):
    pass


def strip_comment(line: str) -> str:
    """A scenario or bind file line without its ``#`` comment and surrounding whitespace."""
    return line.partition("#")[0].strip()


def unique(key, seen, lineno: int, what: str, verb: str = "defined"):
    """``key``, unless an earlier line of the file already put it in ``seen``: then an error
    at line ``lineno`` that ``what`` is already defined (or bound, by ``verb``)."""
    if key in seen:
        raise ScenarioError(f"line {lineno}: {what} is already {verb}")
    return key


def parse_resource_directive(
    line: str, lineno: int, games: dict[str, GameDef], scripts: dict[str, Script], heuristics: list[tuple[str, str]]
) -> bool:
    """Apply a ``game``, ``script`` or ``heuristic`` line, the directives scenario and bind
    files share. Heuristics are queued as (name, kind) for ``resolve_heuristics``. Returns
    False when the line is none of the three; a game whose factory gets a parameter other than
    its own bound, or a bound below 1, a script item outside the move payload grammar and a
    second definition of one game, script or heuristic name are errors."""
    if m := _GAME_RE.match(line):
        factory, param, value = m.group("factory", "param", "value")
        bound = _GAME_PARAMS[factory]
        if param != bound or int(value) < 1:
            raise ScenarioError(f"line {lineno}: {factory} takes {bound}=N with N >= 1, not {param}={value}")
        atom = m.group("atom")
        games[unique(atom, games, lineno, f"game {atom!r}")] = GAME_FACTORIES[factory](int(value))
    elif m := _SCRIPT_RE.match(line):
        try:
            script = Script(tuple(p.strip() for p in m.group("items").split(",") if p.strip()))
        except ValueError as exc:  # an item outside the move payload grammar
            raise ScenarioError(f"line {lineno}: {exc}") from exc
        name = m.group("name")
        scripts[unique(name, scripts, lineno, f"script {name!r}")] = script
    elif m := _HEURISTIC_RE.match(line):
        name = m.group("name")
        heuristics.append((unique(name, dict(heuristics), lineno, f"heuristic {name!r}"), m.group("kind")))
    else:
        return False
    return True


def resolve_heuristics(games: dict[str, GameDef], heuristics: list[tuple[str, str]]) -> dict[str, Heuristic]:
    """Each named heuristic is the default strategy of the bound game of its kind, or of the
    factory-default game of that kind when none is bound."""
    out: dict[str, Heuristic] = {}
    for name, kind in heuristics:
        game = next((g for g in games.values() if g.name == kind), None) or GAME_FACTORIES[kind]()
        out[name] = game.default_heuristic
    return out


def parse_scenario(text: str) -> list[Agent]:
    agents: list[Agent] = []
    pending_heuristics: dict[str, list[tuple[str, str]]] = {}
    current: Agent | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = strip_comment(raw)
        if not line:
            continue
        m = _AGENT_RE.match(line)
        if m:
            current = Agent(id=m.group("quoted") or m.group("bare"), kind=m.group("kind") or "regular")
            agents.append(current)
            pending_heuristics[current.id] = []
            continue
        if current is None:
            raise ScenarioError(f"line {lineno}: directive before any agent block")
        if parse_resource_directive(line, lineno, current.games, current.scripts, pending_heuristics[current.id]):
            continue
        if m := _FORMULA_RE.match(line):
            try:
                f = parse_formula(m.group("formula"))
            except FormulaError as exc:
                indent = len(raw) - len(raw.lstrip())
                raise ScenarioError(file_message(exc, lineno, indent + m.start("formula"))) from exc
            if m.group("kind") == "rb":
                current.rb.append(ResourceEntry(f))
            else:
                current.queries.append(f)
            continue
        raise ScenarioError(f"line {lineno}: cannot parse {line!r}")
    for agent in agents:
        agent.heuristics.update(resolve_heuristics(agent.games, pending_heuristics[agent.id]))
        if agent.kind == "provider" and not any(is_contract(e.formula) for e in agent.rb):
            raise ScenarioError(f"provider {agent.id!r} has no God-annotated manual in its resource base")
    return agents


def load_scenario(path: str) -> list[Agent]:
    with open(path, encoding="utf-8") as fh:
        return parse_scenario(fh.read())


def builtin_scenario(name: str) -> str:
    return resources.files(__package__).joinpath(f"scenarios/{name}.clbk").read_text(encoding="utf-8")
