"""Agents, their resource bases and query queues, the labmove bus, and the deterministic
round-robin simulation that lets resources flow between sessions by relayed copies."""

from __future__ import annotations

from collections import Counter, deque
from collections.abc import Iterator
from dataclasses import dataclass, field

from . import engine
from .engine import Session
from .formula import (
    And,
    EnvAnn,
    Formula,
    General,
    Hybrid,
    Implies,
    NEGATIVE,
    Occurrence,
    POSITIVE,
    Truth,
    note_names,
    print_formula,
    surface_occurrences,
    transform,
)
from .games import GameDef, Heuristic, Labmove, Player, Script, subrun
from .prover import hybridize, prove

GOD = "God"


class AgentError(RuntimeError):
    pass


class BusError(AgentError):
    pass


@dataclass
class ResourceEntry:
    """One resource-base member: an annotated formula, plus the position already played on it."""

    formula: Formula
    position: tuple[Labmove, ...] = ()

    def __str__(self) -> str:
        text = print_formula(self.formula)
        if self.position:
            text += " ; " + " ".join(str(lm) for lm in self.position)
        return text


@dataclass
class Agent:
    id: str
    kind: str = "regular"
    games: dict[str, GameDef] = field(default_factory=dict)
    heuristics: dict[str, Heuristic] = field(default_factory=dict)
    scripts: dict[str, Script] = field(default_factory=dict)
    rb: list[ResourceEntry] = field(default_factory=list)
    queries: list[Formula] = field(default_factory=list)

    def manuals(self) -> dict[str, Heuristic]:
        """Atoms this agent can produce on demand: general atoms carrying an 'h' note in its RB."""
        out: dict[str, Heuristic] = {}
        for entry in self.rb:
            for occ in surface_occurrences(entry.formula, "general"):
                note = occ.node.note
                if occ.polarity == POSITIVE and note is not None and note.kind == "h":
                    fn = engine.noted_heuristic(self.heuristics, note.name, self.games.get(occ.node.name))
                    if fn is not None:
                        out[occ.node.name] = fn
        return out

    def winnable(self) -> frozenset[str]:
        """Atoms the agent can stand behind when serving: its manuals plus everything it has
        contracted to obtain (positive occurrences in its own outgoing queries)."""
        names = set(self.manuals())
        for q in self.queries:
            body, _ = split_annotation(q)
            for occ in surface_occurrences(body, "general"):
                if occ.polarity == POSITIVE:
                    names.add(occ.node.name)
        return frozenset(names)


def split_annotation(f: Formula) -> tuple[Formula, str | None]:
    if isinstance(f, EnvAnn):
        return f.child, f.agent
    return f, None


def is_contract(f: Formula) -> bool:
    """Resource-base entries addressed to God are standing contracts, not consumable conjuncts."""
    _, agent = split_annotation(f)
    return agent == GOD


def and_chain(parts: list[Formula]) -> Formula:
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


def unfold_and_chain(f: Formula, n: int, spec: str) -> list[tuple[Formula, str]]:
    """Split a left-associated conjunction back into ``n`` conjuncts with their specs."""
    if n == 1:
        return [(f, spec)]
    if not isinstance(f, And):
        raise AgentError("antecedent does not decompose into the expected conjuncts")
    return unfold_and_chain(f.left, n - 1, spec + "1.") + [(f.right, spec + "2.")]


# --- bus --------------------------------------------------------------------


@dataclass(frozen=True)
class MoveMsg:
    session_id: str
    move: Labmove


class Bus:
    """One FIFO inbox per registered receiver: each receiver gets its messages in arrival
    order, so the messages of any one sender also arrive in the order they were sent."""

    def __init__(self):
        self.inboxes: dict[str, deque[MoveMsg]] = {}

    def register(self, agent_id: str) -> None:
        self.inboxes.setdefault(agent_id, deque())

    def post(self, to: str, msg: MoveMsg) -> None:
        inbox = self.inboxes.get(to)
        if inbox is None:
            raise BusError(f"unknown recipient {to!r}")
        inbox.append(msg)

    def deliver(self, to: str) -> MoveMsg | None:
        inbox = self.inboxes.get(to)
        return inbox.popleft() if inbox else None

    def idle(self) -> bool:
        return not any(self.inboxes.values())


# --- queue and flow plumbing -------------------------------------------------


@dataclass
class QueryResult:
    qid: str
    client: str
    server: str
    formula: Formula
    status: str = "pending"  # won | lost | rejected | unfinished | pending
    winner: Player | None = None


@dataclass
class Query:
    """One query served by ``server`` for ``client``, from submission to its result.
    ``planned`` is the session formula: the server's consumable resources, if it has any,
    imply the query body. ``atoms`` are its surface atom occurrences by spec."""

    qid: str
    formula: Formula
    client: str
    server: str
    contract_ref: int | None  # index into the server's RB when self-executing a contract
    planned: Formula
    consumed: list[int]  # RB indices of the conjuncts in the planned antecedent
    atoms: dict[str, Occurrence]
    result: QueryResult
    session: Session | None = None
    early: list[Labmove] = field(default_factory=list)  # moves that arrived before opening

    @property
    def opponent(self) -> str:
        """Who plays the environment unless a binding names someone: God for a contract."""
        return GOD if self.contract_ref is not None else self.client

    def env_mover(self, spec: str) -> str:
        """Who plays the open session's environment at ``spec``: the binding's agent, else the opponent."""
        binding = self.session.bindings.get(spec)
        return (binding.env if binding else None) or self.opponent


@dataclass
class HeuristicWin:
    agent: str
    atom: str
    session_id: str
    spec: str
    payloads: tuple[str, ...]


@dataclass
class SimulationReport:
    """What a run leaves. In a quiescent run each session is won or lost, and each resource-base
    entry a session touched settles in place: a won contract and a spent conjunct are dropped,
    a partly played conjunct keeps its index with its position. A run cut short by its step
    budget leaves every opened session ``unfinished`` and every resource base unchanged."""

    quiescent: bool
    steps: int
    agent_order: list[str]
    results: list[QueryResult]
    heuristic_wins: list[HeuristicWin]
    ledgers: dict[str, dict[str, Counter]]
    final_rb: dict[str, list[str]]
    trace: list[str]
    agent_traces: dict[str, list[str]]

    def summary(self) -> str:
        parts = []
        for agent in self.agent_order:
            mine = [r for r in self.results if r.client == agent]
            if not mine:
                continue
            won = sum(1 for r in mine if r.status == "won")
            parts.append(f"{agent}: {won}/{len(mine)} won")
        return "; ".join(parts)

    def all_won(self) -> bool:
        return all(r.status == "won" for r in self.results)


class Simulation:
    """Deterministic cooperative scheduler: one bus delivery or one queue opening per visit,
    round-robin over agents in registration order.

    Three invariants keep the bookkeeping small. Every strategy move of a simulation is played
    by a session's engine: a provider's manual answers as the environment stand-in of the
    session that owes its good. Resource bases are fixed until ``_settle`` settles them, so
    each agent's manuals and winnable atoms are computed once, up front.
    Sessions are at rest between visits: every delivery is followed by ``_drive``, which
    returns only once its session is quiescent or finished, so no session is left running
    and only the bus and the unopened queries can hold work.

    A seat is an occurrence ``(qid, spec)`` where an agent relays play between sessions:
    ``seats[aid]`` maps each of ``aid``'s seats to its partner seat and whether it produces
    (relays challenges) or consumes (relays answers). Its polarity is the occurrence's in
    ``queries[qid].atoms``, and ``aid`` holds it locally when it serves ``qid``.

    The bus carries one message type, ``MoveMsg``. Each session's listener traces every move
    and relays it from the server's own seats; it also posts each machine move to the agent
    that plays the environment at its occurrence (``Query.env_mover``), if that agent holds a
    seat there. An agent that receives a ``MoveMsg`` for a session it serves plays it there
    (holding it until the session opens); any other ``MoveMsg`` informs it of play elsewhere,
    which it relays from its seat."""

    def __init__(self, agents: list[Agent]):
        self.agents: dict[str, Agent] = {}
        self.bus = Bus()
        for agent in agents:
            if agent.id in self.agents:
                raise AgentError(f"duplicate agent id {agent.id!r}")
            if agent.id == GOD:
                raise AgentError("'God' is reserved and never registered")
            self.agents[agent.id] = agent
            self.bus.register(agent.id)
        self.manuals = {aid: agent.manuals() for aid, agent in self.agents.items()}
        self.winnable = {aid: agent.winnable() for aid, agent in self.agents.items()}
        self.queries: dict[str, Query] = {}
        self.queues: dict[str, list[Query]] = {a: [] for a in self.agents}  # all queries each agent serves
        self.unopened: dict[str, deque[Query]] = {a: deque() for a in self.agents}
        self.opened: list[Query] = []
        self.seats: dict[str, dict[tuple[str, str], tuple[tuple[str, str], bool]]] = {a: {} for a in self.agents}
        self.unroutable: list[QueryResult] = []
        self.trace: list[str] = []
        self.agent_traces: dict[str, list[str]] = {a: [] for a in self.agents}
        self.steps = 0
        self._submit_startup()
        self._build_flows()

    # -- startup --------------------------------------------------------------

    def _submit_startup(self) -> None:
        for agent in self.agents.values():
            for ref, entry in enumerate(agent.rb):
                if is_contract(entry.formula):
                    self.submit_query(agent.id, entry.formula, client=agent.id, contract_ref=ref)
            for q in agent.queries:
                _, server = split_annotation(q)
                target = server or agent.id
                if target == GOD or target not in self.agents:
                    rid = f"{agent.id}!r{len(self.unroutable) + 1}"
                    self.unroutable.append(QueryResult(rid, agent.id, target, q, status="rejected"))
                    continue
                self.submit_query(target, q, client=agent.id)

    def submit_query(self, server: str, q: Formula, client: str, contract_ref: int | None = None) -> str:
        """Queue ``q`` at ``server`` on behalf of ``client``; returns the session id. Every
        script a note of the session formula names must be one of the server's."""
        if server not in self.agents:
            raise BusError(f"unknown recipient {server!r}")
        qid = f"{server}:{len(self.queues[server]) + 1}"
        planned, consumed = self._session_formula(self.agents[server], q, client, contract_ref)
        if unknown := sorted(note_names(planned, "s") - self.agents[server].scripts.keys()):
            raise AgentError(f"query {print_formula(q)} names script {unknown[0]!r}, which {server!r} does not define")
        atoms = {occ.spec: occ for occ in surface_occurrences(planned, "atom")}
        result = QueryResult(qid, client, server, q)
        query = Query(qid, q, client, server, contract_ref, planned, consumed, atoms, result)
        self.queries[qid] = query
        self.queues[server].append(query)
        self.unopened[server].append(query)
        return qid

    @staticmethod
    def _session_formula(agent: Agent, q: Formula, client: str, contract_ref: int | None) -> tuple[Formula, list[int]]:
        if contract_ref is not None:
            return q, []
        body, server = split_annotation(q)
        target = EnvAnn(body, client) if server is not None else body
        consumables = [i for i, e in enumerate(agent.rb) if not is_contract(e.formula)]
        if consumables:
            return Implies(and_chain([agent.rb[i].formula for i in consumables]), target), consumables
        return target, []

    def _build_flows(self) -> None:
        """Pair, per agent and atom, the seats where it owes answers with the seats where it
        may forward the challenge and collect the answer from a counterparty."""
        for aid, seats in self.seats.items():
            tables: dict[bool, dict[str, list[tuple[str, str]]]] = {True: {}, False: {}}  # by ``produces``

            def seat(query: Query, occ: Occurrence, produces: bool) -> None:
                tables[produces].setdefault(occ.node.name, []).append((query.qid, occ.spec))

            mine = self.queues[aid]
            # God-contract liabilities: negative occurrences of own contract sessions.
            for query in mine:
                if query.contract_ref is not None:
                    for occ in query.atoms.values():
                        if occ.polarity == NEGATIVE:
                            seat(query, occ, True)
            # Client-side answer seats on queries this agent sent elsewhere, where it plays: not
            # on the server's antecedent, whose resources other agents supply.
            for server, queries in self.queues.items():
                if server == aid:
                    continue
                for query in queries:
                    if query.client == aid:
                        for occ in query.atoms.values():
                            if occ.env == aid:
                                seat(query, occ, occ.polarity == NEGATIVE)
            # Executor seats on sessions served for others.
            for query in mine:
                if query.contract_ref is not None or query.client == aid:
                    continue
                for occ in query.atoms.values():
                    if occ.polarity == NEGATIVE:
                        seat(query, occ, False)
                    elif occ.node.name not in self.manuals[aid]:
                        seat(query, occ, True)
            for name, producers in tables[True].items():
                for produce, consume in zip(producers, tables[False].get(name, [])):
                    if produce[0] == consume[0] and self.queries[produce[0]].server == aid:
                        continue  # the session's own copy-cat joins two seats it serves
                    seats[produce] = (consume, True)
                    seats[consume] = (produce, False)

    # -- relays ----------------------------------------------------------------

    def _trace_line(self, query: Query, lm: Labmove) -> None:
        mover = query.server if lm.player is Player.MACHINE else query.env_mover(lm.spec)
        line = f"{len(self.trace) + 1} {mover} {lm.player.value} {lm.spec}{lm.payload}"
        self.trace.append(line)
        if mover in self.agent_traces:
            self.agent_traces[mover].append(line)

    def _on_append(self, query: Query, lm: Labmove) -> None:
        self._trace_line(query, lm)
        self._relay(query.server, query.qid, lm)
        if lm.player is Player.MACHINE:
            self._inform(query, lm)

    def _relay(self, aid: str, sid: str, lm: Labmove) -> None:
        """Copy a challenge at one of ``aid``'s produce seats, or an answer at a consume seat,
        to the partner seat in the same local role: played there if ``aid`` serves the
        partner's session, else posted to its server."""
        seat = self.seats[aid].get((sid, lm.spec))
        if seat is None:
            return
        (pid, pspec), produces = seat
        polarity = self.queries[sid].atoms[lm.spec].polarity
        if produces != ((lm.player is Player.ENVIRONMENT) == (polarity == POSITIVE)):
            return
        partner = self.queries[pid]
        label = lm.player if partner.atoms[pspec].polarity == polarity else lm.player.flip()
        copy = Labmove(label, pspec, lm.payload)
        if partner.server == aid:
            self._apply_local(partner, copy)
        else:
            self.bus.post(partner.server, MoveMsg(pid, copy))

    def _apply_local(self, query: Query, lm: Labmove) -> None:
        session = query.session
        if session is None:
            query.early.append(lm)
        elif lm.player is Player.MACHINE:
            session.append(lm)
        else:
            session.deliver(lm)
            self._drive(query)

    def _inform(self, query: Query, lm: Labmove) -> None:
        """Post a machine move to the agent that plays the environment at its occurrence if that
        agent holds a seat there: only that agent's ``_relay`` acts on it."""
        to = query.env_mover(lm.spec)
        if to != query.server and (query.qid, lm.spec) in self.seats.get(to, {}):
            self.bus.post(to, MoveMsg(query.qid, lm))

    def _drive(self, query: Query) -> None:
        while engine.step(query.session):
            pass

    # -- scheduling -------------------------------------------------------------

    def _deliver_one(self, aid: str) -> bool:
        msg = self.bus.deliver(aid)
        if msg is None:
            return False
        query = self.queries.get(msg.session_id)
        if query is not None and query.server == aid:
            self._apply_local(query, msg.move)
        else:
            self._relay(aid, msg.session_id, msg.move)
        return True

    def _open_next(self, aid: str) -> bool:
        if not self.unopened[aid]:
            return False
        query = self.unopened[aid].popleft()
        agent = self.agents[aid]
        tree = prove(query.planned, winnable=self.winnable[aid])
        if tree is None:
            query.result.status = "rejected"
            return True
        query.session = engine.new_session(
            hybridize(tree),
            games=agent.games,
            heuristics=agent.heuristics,
            scripts=agent.scripts,
            winnable=self.winnable[aid],
        )
        for occ in query.atoms.values():
            # At a note-less occurrence, the manual of the agent that owes the good (the server at a
            # positive one, the provider at a negative one) answers if that agent holds no seat there.
            owner = aid if occ.polarity == POSITIVE else occ.env
            manual = self.manuals.get(owner, {}).get(occ.node.name)
            if manual and occ.node.note is None and (query.qid, occ.spec) not in self.seats.get(owner, {}):
                query.session.bindings[occ.spec].heuristic = manual
        query.session.listener = lambda s, lm: self._on_append(query, lm)
        self.opened.append(query)
        for lm in query.early:
            self._apply_local(query, lm)
        self._drive(query)
        return True

    def _has_work(self) -> bool:
        return not self.bus.idle() or any(self.unopened.values())

    def exec_step(self, aid: str) -> str:
        """One visit: deliver one bus message, else open one queued query, else wait."""
        if self._deliver_one(aid):
            return "delivered"
        if self._open_next(aid):
            return "opened"
        return "wait"

    def run(self, max_steps: int = 10_000) -> SimulationReport:
        order = list(self.agents)
        while self.steps < max_steps and self._has_work():
            self.exec_step(order[self.steps % len(order)])
            self.steps += 1
        return self._settle(quiescent=not self._has_work())

    # -- settlement and reporting -------------------------------------------------

    def _settle(self, quiescent: bool) -> SimulationReport:
        """One pass over the opened sessions: results, heuristic wins and ledgers from each
        binding's local run and, only in a quiescent run, what each resource-base entry a
        session touched settles to (None when it is spent; a None wins over a leftover)."""
        wins: list[HeuristicWin] = []
        ledgers = {aid: {"received": Counter(), "paid": Counter()} for aid in self.agents}
        settled: dict[str, dict[int, ResourceEntry | None]] = {aid: {} for aid in self.agents}
        for query in self.opened:
            session, result = query.session, query.result
            session.listener = None  # play is over; without the hook no cycle keeps the simulation alive
            if quiescent:
                result.winner = engine.evaluate_winner(session)
                result.status = "won" if result.winner is Player.MACHINE else "lost"
            else:
                result.status = "unfinished"
            booked = query.opponent != GOD and query.client != query.server  # the client's side only
            prefix = "2." if query.consumed else ""
            for spec, binding in session.bindings.items():
                run = session.local_run(spec)
                if not binding.game.complete(run):
                    continue
                if binding.heuristic_fired and binding.game.winner(run) is Player.MACHINE:
                    mover = query.server if binding.polarity == POSITIVE else query.env_mover(spec)
                    atom = session.atoms[spec].node.name
                    wins.append(HeuristicWin(mover, atom, query.qid, spec, tuple(lm.payload for lm in run)))
                occ = query.atoms.get(spec)
                if booked and occ is not None and spec.startswith(prefix):
                    side = "paid" if occ.polarity == NEGATIVE else "received"
                    ledgers[query.client][side][occ.node.name] += 1
            if not quiescent:
                continue
            mine = settled[query.server]
            if query.contract_ref is not None and result.winner is Player.MACHINE:
                mine[query.contract_ref] = None
            for i, left in zip(query.consumed, _leftovers(session, len(query.consumed))):
                if i not in mine or mine[i] is not None:
                    mine[i] = left
        for aid, agent in self.agents.items():
            agent.rb = _settled_rb(agent.rb, settled[aid])
        return SimulationReport(
            quiescent=quiescent,
            steps=self.steps,
            agent_order=list(self.agents),
            results=[query.result for queries in self.queues.values() for query in queries] + list(self.unroutable),
            heuristic_wins=wins,
            ledgers=ledgers,
            final_rb={aid: [str(e) for e in agent.rb] for aid, agent in self.agents.items()},
            trace=list(self.trace),
            agent_traces={aid: list(lines) for aid, lines in self.agent_traces.items()},
        )


def _revert_hybrids(f: Formula) -> Formula:
    return transform(f, lambda n: General(n.name, n.note) if isinstance(n, Hybrid) else n)


def _leftovers(finished: Session, n: int) -> Iterator[ResourceEntry | None]:
    """What a finished session leaves of each of the first ``n`` conjuncts of its antecedent:
    None for a ``T`` or a completed atom, else the conjunct with hybrids reverted and its position."""
    if not n:
        return
    if not isinstance(finished.formula, Implies):
        raise AgentError("finished session has no antecedent to evolve from")
    for conjunct, spec in unfold_and_chain(finished.formula.left, n, "1."):
        binding = finished.bindings.get(spec)  # present exactly when the conjunct is an atom
        spent = isinstance(split_annotation(conjunct)[0], Truth) or (
            binding is not None and binding.game.complete(finished.local_run(spec))
        )
        yield None if spent else ResourceEntry(_revert_hybrids(conjunct), subrun(tuple(finished.run), spec))


def _settled_rb(rb: list[ResourceEntry], settled: dict[int, ResourceEntry | None]) -> list[ResourceEntry]:
    """``rb`` with each settled index replaced in place by what it settled to, spent ones dropped."""
    return [e for e in (settled.get(i, e) for i, e in enumerate(rb)) if e is not None]

