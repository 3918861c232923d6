"""Agents, their resource bases and query queues, the labmove bus, and the deterministic
round-robin simulation that lets resources flow between sessions by relayed copies."""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field

from . import engine
from .engine import Session, Status
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
    atom_name,
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
                    fn = self.heuristics.get(note.name)
                    if fn is None and occ.node.name in self.games:
                        fn = self.games[occ.node.name].default_heuristic
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
    """Per-(sender, receiver) FIFO channels with deterministic, arrival-ordered delivery."""

    def __init__(self):
        self.channels: dict[tuple[str, str], deque] = {}
        self.arrivals: dict[str, deque[tuple[str, str]]] = {}

    def register(self, agent_id: str) -> None:
        self.arrivals.setdefault(agent_id, deque())

    def post(self, frm: str, to: str, msg) -> None:
        if to not in self.arrivals:
            raise BusError(f"unknown recipient {to!r}")
        key = (frm, to)
        self.channels.setdefault(key, deque()).append(msg)
        self.arrivals[to].append(key)

    def deliver(self, to: str):
        queue = self.arrivals.get(to)
        if not queue:
            return None
        key = queue.popleft()
        return self.channels[key].popleft()

    def idle(self) -> bool:
        return all(not q for q in self.arrivals.values())


# --- queue and flow plumbing -------------------------------------------------


@dataclass(frozen=True)
class Slot:
    session_id: str
    spec: str
    polarity: int
    role: str  # "x" executor-held seat, "c" client-held seat


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


@dataclass
class HeuristicWin:
    agent: str
    atom: str
    session_id: str
    spec: str
    payloads: tuple[str, ...]


@dataclass
class SimulationReport:
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

    Two invariants keep the bookkeeping small. Resource bases are fixed until ``_finish``
    evolves them, so each agent's manuals and winnable atoms are computed once, up front.
    Sessions are at rest between visits: every delivery is followed by ``_drive``, which
    returns only once its session is quiescent or finished, so no session is left running
    and only the bus and the unopened queries can hold work.

    The bus carries one message type, ``MoveMsg``. Each session's listener traces every move
    and relays it to the server's paired seats; it also posts each machine move to the agent
    the engine addresses it to. An agent that receives a ``MoveMsg`` for a session it serves
    plays it there (holding it until the session opens); any other ``MoveMsg`` informs it of
    play elsewhere, which it relays from its own seats or answers from its manuals."""

    def __init__(self, agents: list[Agent], interpretation: dict[str, bool] | None = None):
        self.agents: dict[str, Agent] = {}
        self.bus = Bus()
        for agent in agents:
            if agent.id in self.agents:
                raise AgentError(f"duplicate agent id {agent.id!r}")
            if agent.id == GOD:
                raise AgentError("'God' is reserved and never registered")
            self.agents[agent.id] = agent
            self.bus.register(agent.id)
        self.interpretation = dict(interpretation or {})
        self.manuals = {aid: agent.manuals() for aid, agent in self.agents.items()}
        self.winnable = {aid: agent.winnable() for aid, agent in self.agents.items()}
        self.queries: dict[str, Query] = {}
        self.queues: dict[str, list[Query]] = {a: [] for a in self.agents}  # all queries each agent serves
        self.unopened: dict[str, deque[Query]] = {a: deque() for a in self.agents}
        self.opened: list[Query] = []
        self.slot_lookup: dict[str, dict[tuple[str, str], tuple[Slot, Slot, str]]] = {a: {} for a in self.agents}
        self.claim_views: dict[tuple[str, str, str], list[Labmove]] = {}
        self.unroutable: list[QueryResult] = []
        self.trace: list[str] = []
        self.agent_traces: dict[str, list[str]] = {a: [] for a in self.agents}
        self.steps = 0
        self._rotation = 0
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
        """Queue ``q`` at ``server`` on behalf of ``client``; returns the session id."""
        if server not in self.agents:
            raise BusError(f"unknown recipient {server!r}")
        qid = f"{server}:{len(self.queues[server]) + 1}"
        planned, consumed = self._session_formula(self.agents[server], q, client, contract_ref)
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

        def seat(table: dict[str, list[Slot]], query: Query, occ: Occurrence, role: str) -> None:
            table.setdefault(atom_name(occ.node), []).append(Slot(query.qid, occ.spec, occ.polarity, role))

        for aid in self.agents:
            produce: dict[str, list[Slot]] = {}
            consume: dict[str, list[Slot]] = {}
            mine = self.queues[aid]
            # God-contract liabilities: negative occurrences of own contract sessions.
            for query in mine:
                if query.contract_ref is not None:
                    for occ in query.atoms.values():
                        if occ.polarity == NEGATIVE:
                            seat(produce, query, occ, "x")
            # Client-side answer seats on queries this agent sent elsewhere, where it plays: not
            # on the server's antecedent, whose resources other agents supply.
            for server, queries in self.queues.items():
                if server == aid:
                    continue
                for query in queries:
                    if query.client == aid:
                        for occ in query.atoms.values():
                            if occ.env == aid:
                                seat(produce if occ.polarity == NEGATIVE else consume, query, occ, "c")
            # Executor seats on sessions served for others.
            for query in mine:
                if query.contract_ref is not None or query.client == aid:
                    continue
                for occ in query.atoms.values():
                    if occ.polarity == NEGATIVE:
                        seat(consume, query, occ, "x")
                    elif atom_name(occ.node) not in self.manuals[aid]:
                        seat(produce, query, occ, "x")
            lookup = self.slot_lookup[aid]
            for name, producers in produce.items():
                for produce_slot, consume_slot in zip(producers, consume.get(name, [])):
                    if produce_slot.role == consume_slot.role == "x" and produce_slot.session_id == consume_slot.session_id:
                        continue  # the session's own copy-cat joins two seats it serves
                    lookup[(produce_slot.session_id, produce_slot.spec)] = (produce_slot, consume_slot, "produce")
                    lookup[(consume_slot.session_id, consume_slot.spec)] = (consume_slot, produce_slot, "consume")

    # -- relays ----------------------------------------------------------------

    def _trace_line(self, query: Query, lm: Labmove) -> None:
        if lm.player is Player.MACHINE:
            mover = query.server
        else:
            binding = query.session.bindings.get(lm.spec)
            mover = (binding.env if binding and binding.env else None) or query.opponent
        line = f"{len(self.trace) + 1} {mover} {lm.player.value} {lm.spec}{lm.payload}"
        self.trace.append(line)
        if mover in self.agent_traces:
            self.agent_traces[mover].append(line)

    def _on_append(self, query: Query, lm: Labmove, to: str | None) -> None:
        self._trace_line(query, lm)
        is_machine = lm.player is Player.MACHINE
        self._relay(query.server, query.qid, lm, mover_is_self=is_machine)
        if is_machine:
            self._inform(query, to, lm)

    def _relay(self, aid: str, sid: str, lm: Labmove, mover_is_self: bool) -> None:
        entry = self.slot_lookup[aid].get((sid, lm.spec))
        if entry is None:
            if not mover_is_self:
                self._claim_answer(aid, sid, lm)
            return
        slot, partner, kind = entry
        local = lm.player if slot.polarity == POSITIVE else lm.player.flip()
        is_challenge = local is Player.ENVIRONMENT
        if kind == "produce" and is_challenge:
            self._emit(aid, partner, lm.payload, challenge=True)
        elif kind == "consume" and not is_challenge and not mover_is_self:
            self._emit(aid, partner, lm.payload, challenge=False)

    def _claim_answer(self, aid: str, sid: str, lm: Labmove) -> None:
        """A provider informed of play at an occurrence matched to it answers from its manual,
        honouring claims other agents hold on its resources."""
        query = self.queries.get(sid)
        occ = query.atoms.get(lm.spec) if query else None
        if occ is None or occ.env != aid or occ.polarity != NEGATIVE:
            return
        manual = self.manuals[aid].get(atom_name(occ.node))
        if manual is None:
            return
        view = self.claim_views.setdefault((aid, sid, lm.spec), [])
        view.append(Labmove(lm.player.flip(), "", lm.payload))
        payload = manual(tuple(view))
        if payload is not None:
            view.append(Labmove(Player.MACHINE, "", payload))
            self.bus.post(aid, query.server, MoveMsg(sid, Labmove(Player.ENVIRONMENT, lm.spec, payload)))

    def _emit(self, aid: str, slot: Slot, payload: str, challenge: bool) -> None:
        local = Player.ENVIRONMENT if challenge else Player.MACHINE
        label = local if slot.polarity == POSITIVE else local.flip()
        lm = Labmove(label, slot.spec, payload)
        query = self.queries[slot.session_id]
        if slot.role == "x":
            self._apply_local(query, lm)
        else:
            self.bus.post(aid, query.server, MoveMsg(query.qid, lm))

    def _apply_local(self, query: Query, lm: Labmove) -> None:
        session = query.session
        if session is None:
            query.early.append(lm)
        elif lm.player is Player.MACHINE:
            session.append(lm)
        else:
            session.deliver(lm)
            self._drive(query)

    def _inform(self, query: Query, target: str | None, lm: Labmove) -> None:
        to = target if target is not None else query.opponent
        if to in (GOD, query.server):
            return
        self.bus.post(query.server, to, MoveMsg(query.qid, lm))

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
            self._relay(aid, msg.session_id, msg.move, mover_is_self=False)
        return True

    def _open_next(self, aid: str) -> bool:
        if not self.unopened[aid]:
            return False
        query = self.unopened[aid].popleft()
        agent, manuals = self.agents[aid], self.manuals[aid]
        tree = prove(query.planned, winnable=self.winnable[aid])
        if tree is None:
            query.result.status = "rejected"
            return True
        query.session = engine.new_session(
            hybridize(tree),
            games=agent.games,
            heuristics=agent.heuristics,
            scripts=agent.scripts,
            interpretation=self.interpretation,
            winnable=self.winnable[aid],
        )
        for occ in query.atoms.values():
            name = atom_name(occ.node)
            if occ.polarity == POSITIVE and occ.node.note is None and name in manuals:
                query.session.bindings[occ.spec].heuristic = manuals[name]
        query.session.listener = lambda s, lm, to: self._on_append(query, lm, to)
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
            self.exec_step(order[self._rotation % len(order)])
            self._rotation += 1
            self.steps += 1
        quiescent = not self._has_work()
        return self._finish(quiescent)

    # -- evaluation and reporting -------------------------------------------------

    def _finish(self, quiescent: bool) -> SimulationReport:
        wins: list[HeuristicWin] = []
        for query in self.opened:
            session, result = query.session, query.result
            session.listener = None  # play is over; without the hook no cycle keeps the simulation alive
            if session.status is Status.QUIESCENT:
                result.winner = engine.evaluate_winner(session)
                result.status = "won" if result.winner is Player.MACHINE else "lost"
            else:
                result.status = "unfinished"
            fired = [b for b in session.bindings.values() if b.heuristic_fired]
            if not fired:
                continue
            for binding in fired:
                run = session.local_run(binding.spec)
                if binding.game.complete(run) and binding.game.winner(run) is Player.MACHINE:
                    atom = atom_name(session.atoms[binding.spec].node)
                    payloads = tuple(lm.payload for lm in run)
                    wins.append(HeuristicWin(query.server, atom, query.qid, binding.spec, payloads))
        ledgers = self._ledgers()
        self._evolve_all()
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

    def _ledgers(self) -> dict[str, dict[str, Counter]]:
        ledgers: dict[str, dict[str, Counter]] = {
            aid: {"received": Counter(), "paid": Counter()} for aid in self.agents
        }
        for query in self.opened:
            if query.opponent == GOD or query.client == query.server:
                continue
            session = query.session
            prefix = "2." if query.consumed else ""
            for occ in query.atoms.values():
                if not occ.spec.startswith(prefix):
                    continue
                binding = session.bindings.get(occ.spec)
                if binding is None or not binding.game.complete(session.local_run(occ.spec)):
                    continue
                side = "paid" if occ.polarity == NEGATIVE else "received"
                ledgers[query.client][side][atom_name(occ.node)] += 1
        return ledgers

    def _evolve_all(self) -> None:
        for query in self.opened:
            session = query.session
            if session.status is not Status.FINISHED:
                continue
            agent = self.agents[query.server]
            if query.contract_ref is not None:
                if session.winner is Player.MACHINE and query.contract_ref < len(agent.rb):
                    entry = agent.rb[query.contract_ref]
                    if entry.formula == query.formula:
                        agent.rb.remove(entry)
            elif query.consumed:
                agent.rb = evolve_rb(agent, session, query.consumed)


def _revert_hybrids(f: Formula) -> Formula:
    return transform(f, lambda n: General(n.general, n.note) if isinstance(n, Hybrid) else n)


def evolve_rb(agent: Agent, finished: Session, consumed: list[int] | None = None) -> list[ResourceEntry]:
    """Successor resource base after a served query: the antecedent residue of the final
    formula, hybrids reverted, runs attached, fully consumed conjuncts dropped."""
    if finished.status is not Status.FINISHED:
        raise AgentError("evolve_rb needs a finished session")
    if consumed is None:
        consumed = [i for i, e in enumerate(agent.rb) if not is_contract(e.formula)]
    if not consumed:
        return list(agent.rb)
    if not isinstance(finished.formula, Implies):
        raise AgentError("finished session has no antecedent to evolve from")
    conjuncts = unfold_and_chain(finished.formula.left, len(consumed), "1.")
    kept: list[ResourceEntry] = []
    for conjunct, spec in conjuncts:
        core, _ = split_annotation(conjunct)
        if isinstance(core, Truth):
            continue
        if isinstance(core, (General, Hybrid)):
            binding = finished.bindings.get(spec)
            if binding is not None and binding.game.complete(finished.local_run(spec)):
                continue
        kept.append(ResourceEntry(_revert_hybrids(conjunct), subrun(tuple(finished.run), spec)))
    out: list[ResourceEntry] = []
    consumed_set = set(consumed)
    for i, entry in enumerate(agent.rb):
        if i not in consumed_set:
            out.append(entry)
    return out + kept
