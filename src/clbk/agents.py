"""Agents, their resource bases and query queues, the labmove bus, and the deterministic
round-robin simulation that lets resources flow between sessions by relayed copies."""

from __future__ import annotations

from collections import Counter, deque
from collections.abc import Iterator
from functools import cached_property, reduce

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
from .games import GameDef, Heuristic, Labmove, Player, Script, Verdict, subrun
from .prover import hybridize, prove
from .records import Frozen, Record, set_field

GOD = "God"


class AgentError(RuntimeError):
    pass


class BusError(AgentError):
    pass


class ResourceEntry(Record):
    """One resource-base member: an annotated formula, plus the position already played on it."""

    __slots__ = __match_args__ = ("formula", "position")

    def __init__(self, formula: Formula, position: tuple[Labmove, ...] = ()):
        self.formula = formula
        self.position = position

    def __str__(self) -> str:
        text = print_formula(self.formula)
        if self.position:
            text += " ; " + " ".join(str(lm) for lm in self.position)
        return text


class Agent(Record):
    __slots__ = __match_args__ = ("id", "kind", "games", "heuristics", "scripts", "rb", "queries")

    def __init__(
        self,
        id: str,
        kind: str = "regular",
        games: dict[str, GameDef] | None = None,
        heuristics: dict[str, Heuristic] | None = None,
        scripts: dict[str, Script] | None = None,
        rb: list[ResourceEntry] | None = None,
        queries: list[Formula] | None = None,
    ):
        self.id = id
        self.kind = kind
        self.games = {} if games is None else games
        self.heuristics = {} if heuristics is None else heuristics
        self.scripts = {} if scripts is None else scripts
        self.rb = [] if rb is None else rb
        self.queries = [] if queries is None else queries

    def manuals(self) -> dict[str, Heuristic]:
        """Atoms this agent can produce on demand: general atoms carrying an 'h' note in its RB,
        each with the heuristic its note names, which the agent must define."""
        out: dict[str, Heuristic] = {}
        for entry in self.rb:
            for occ in surface_occurrences(entry.formula, "general"):
                note = occ.node.note
                if occ.polarity == POSITIVE and note is not None and note.kind == "h":
                    if (fn := self.heuristics.get(note.name)) is None:
                        raise AgentError(f"{self.id!r} names heuristic {note.name!r}, which it does not define")
                    out[occ.node.name] = fn
        return out

    def winnable(self, manuals: dict[str, Heuristic] | None = None) -> frozenset[str]:
        """Atoms the agent can stand behind when serving: its manuals (``manuals`` if already
        computed) plus everything it has contracted to obtain (positive occurrences in its own
        outgoing queries)."""
        names = set(self.manuals() if manuals is None else manuals)
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


def unfold_and_chain(f: Formula, n: int, spec: str) -> list[tuple[Formula, str]]:
    """Split a left-associated conjunction back into ``n`` conjuncts with their specs."""
    if n == 1:
        return [(f, spec)]
    return unfold_and_chain(f.left, n - 1, spec + "1.") + [(f.right, spec + "2.")]


# --- bus --------------------------------------------------------------------


class MoveMsg(Frozen):
    __slots__ = __match_args__ = ("session_id", "move")

    def __init__(self, session_id: str, move: Labmove):
        set_field(self, "session_id", session_id)
        set_field(self, "move", move)


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


class Query(Record):
    """One query of ``client`` to ``server``, from submission to its result.
    ``planned`` is the session formula: the server's consumable resources, if it has any,
    imply the query body. ``atoms`` are its surface atom occurrences by spec: the seats are
    paired, and moves relayed, by these. Settlement books the session's own atoms instead
    (``session.atoms``), so a good that play chose out of a choice is booked at the spec the
    choice left it at. An unroutable query (to God or to an unregistered agent) has no plan
    and never opens."""

    __slots__ = __match_args__ = (
        "qid", "formula", "client", "server", "contract_ref", "planned", "consumed", "atoms", "status", "session",
        "early",
    )

    def __init__(
        self,
        qid: str,
        formula: Formula,
        client: str,
        server: str,
        contract_ref: int | None = None,  # index into the server's RB when self-executing a contract
        planned: Formula | None = None,
        consumed: list[int] | None = None,  # RB indices of the conjuncts in the planned antecedent
        atoms: dict[str, Occurrence] | None = None,
        status: str = "pending",  # won | lost | rejected | unfinished | pending
    ):
        self.qid = qid
        self.formula = formula
        self.client = client
        self.server = server
        self.contract_ref = contract_ref
        self.planned = planned
        self.consumed = [] if consumed is None else consumed
        self.atoms = {} if atoms is None else atoms
        self.status = status
        self.session: Session | None = None
        self.early: list[Labmove] = []  # moves that arrived before opening

    @property
    def opponent(self) -> str:
        """Who plays the environment unless a binding names someone: God for a contract."""
        return GOD if self.contract_ref is not None else self.client

    def env_mover(self, spec: str) -> str:
        """Who plays the open session's environment at ``spec``: the binding's agent, else the opponent."""
        binding = self.session.bindings.get(spec)
        return (binding.env if binding else None) or self.opponent


class HeuristicWin(Record):
    __slots__ = __match_args__ = ("agent", "atom", "session_id", "spec", "payloads")

    def __init__(self, agent: str, atom: str, session_id: str, spec: str, payloads: tuple[str, ...]):
        self.agent = agent
        self.atom = atom
        self.session_id = session_id
        self.spec = spec
        self.payloads = payloads


class SimulationReport(Record):
    """What a run leaves. ``results`` are the simulation's own queries: the served ones grouped
    by server in registration order, each group in submission order, then the unroutable ones
    as ``<client>!rN``. Each is ``won`` or ``lost`` once its session is over, ``rejected`` when
    unprovable or unroutable, ``unfinished`` when opened in a run cut short by its step budget,
    and ``pending`` when never opened. Each session's winner is one fold over verdicts read
    once per binding (``engine.read_verdicts``), and the same verdicts give its heuristic wins,
    ledger entries and leftovers. A ledger entry books a completed atom of the session's own
    final formula (``session.atoms``), so a good chosen during play counts, while the seats
    still pair the planned formula's atoms (``Query.atoms``). A quiescent run settles in place
    each resource-base entry a session touched: a won contract and a spent conjunct are
    dropped, a partly played conjunct keeps its index with its position. A run cut short
    changes no resource base."""

    __slots__ = __match_args__ = (
        "quiescent", "steps", "results", "heuristic_wins", "ledgers", "final_rb", "trace", "agent_traces",
    )

    def __init__(
        self,
        quiescent: bool,
        steps: int,
        results: list[Query],
        heuristic_wins: list[HeuristicWin],
        ledgers: dict[str, dict[str, Counter]],
        final_rb: dict[str, list[str]],
        trace: list[str],
        agent_traces: dict[str, list[str]],
    ):
        self.quiescent = quiescent
        self.steps = steps
        self.results = results
        self.heuristic_wins = heuristic_wins
        self.ledgers = ledgers
        self.final_rb = final_rb
        self.trace = trace
        self.agent_traces = agent_traces

    def summary(self) -> str:
        parts = []
        for agent in self.ledgers:
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
    Sessions are at rest between visits: every delivery is followed by
    ``engine.run_to_quiescence``, which returns only once its session is quiescent or finished,
    so no session is left running and only the bus and the unopened queries can hold work.

    A seat is an occurrence ``(qid, spec)`` where an agent relays play between sessions:
    ``seats[aid]`` maps each of ``aid``'s seats to its partner seat and whether it produces
    (relays challenges) or consumes (relays answers). Its polarity is the occurrence's in
    ``queries[qid].atoms``, and ``aid`` holds it locally when it serves ``qid``. The seats are
    paired once, when the run first needs them, from the queries submitted by then.

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
        self.winnable = {aid: agent.winnable(self.manuals[aid]) for aid, agent in self.agents.items()}
        self.queries: dict[str, Query] = {}
        self.queues: dict[str, list[Query]] = {a: [] for a in self.agents}  # all queries each agent serves
        self.unopened: dict[str, deque[Query]] = {a: deque() for a in self.agents}
        self.opened: list[Query] = []
        self.unroutable: list[Query] = []
        self.trace: list[str] = []
        self.agent_traces: dict[str, list[str]] = {a: [] for a in self.agents}
        self.steps = 0
        self._submit_startup()

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
                    self.unroutable.append(Query(rid, q, agent.id, target, status="rejected"))
                    continue
                self.submit_query(target, q, client=agent.id)

    def submit_query(self, server: str, q: Formula, client: str, contract_ref: int | None = None) -> str:
        """Queue ``q`` at ``server`` on behalf of ``client``; returns the session id. Every
        script and heuristic a note of the session formula names must be one of the server's.
        A query submitted once play has begun gets no relay seats: they are paired before the
        first move."""
        if server not in self.agents:
            raise BusError(f"unknown recipient {server!r}")
        qid = f"{server}:{len(self.queues[server]) + 1}"
        agent = self.agents[server]
        planned, consumed = self._session_formula(agent, q, client, contract_ref)
        for kind, defined in (("script", agent.scripts), ("heuristic", agent.heuristics)):
            if unknown := sorted(note_names(planned, kind[0]) - defined.keys()):
                text = print_formula(q)
                raise AgentError(f"query {text} names {kind} {unknown[0]!r}, which {server!r} does not define")
        atoms = {occ.spec: occ for occ in surface_occurrences(planned, "atom")}
        query = Query(qid, q, client, server, contract_ref, planned, consumed, atoms)
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
            return Implies(reduce(And, [agent.rb[i].formula for i in consumables]), target), consumables
        return target, []

    @cached_property
    def seats(self) -> dict[str, dict[tuple[str, str], tuple[tuple[str, str], bool]]]:
        """Pair, per agent and atom, the seats where it owes answers with the seats where it
        may forward the challenge and collect the answer from a counterparty."""
        table = {a: {} for a in self.agents}
        # the queries each agent sent to another agent, by server in registration order and
        # each server's in submission order
        sent: dict[str, list[Query]] = {}
        for server, queries in self.queues.items():
            for query in queries:
                if query.client != server:
                    sent.setdefault(query.client, []).append(query)
        for aid, seats in table.items():
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
            for query in sent.get(aid, ()):
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
        return table

    # -- relays ----------------------------------------------------------------

    def _on_append(self, query: Query, lm: Labmove) -> None:
        mover = query.server if lm.player is Player.MACHINE else query.env_mover(lm.spec)
        line = f"{len(self.trace) + 1} {mover} {lm.player.value} {lm.spec}{lm.payload}"
        self.trace.append(line)
        if mover in self.agent_traces:
            self.agent_traces[mover].append(line)
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
        copy = lm.relabeled(label, pspec)
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
            engine.run_to_quiescence(session)

    def _inform(self, query: Query, lm: Labmove) -> None:
        """Post a machine move to the agent that plays the environment at its occurrence if that
        agent holds a seat there: only that agent's ``_relay`` acts on it."""
        to = query.env_mover(lm.spec)
        if to != query.server and (query.qid, lm.spec) in self.seats.get(to, {}):
            self.bus.post(to, MoveMsg(query.qid, lm))

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
            query.status = "rejected"
            return True
        query.session = engine.new_session(
            hybridize(tree),
            games=agent.games,
            heuristics=agent.heuristics,
            scripts=agent.scripts,
            winnable=self.winnable[aid],
        )
        for occ in query.atoms.values():
            # Unless an h= note binds a heuristic (an s= note binds the other seat), the manual of the agent
            # owing the good answers where it holds no seat: the server at a positive occurrence, else the provider.
            owner = aid if occ.polarity == POSITIVE else occ.env
            manual = self.manuals.get(owner, {}).get(occ.node.name)
            binding = query.session.bindings[occ.spec]
            if manual and binding.heuristic is None and (query.qid, occ.spec) not in self.seats.get(owner, {}):
                binding.heuristic = manual
        query.session.listener = lambda s, lm: self._on_append(query, lm)
        self.opened.append(query)
        for lm in query.early:
            self._apply_local(query, lm)
        engine.run_to_quiescence(query.session)
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
        """One pass over the opened sessions. Each binding's verdict is read once from its
        run, and the same verdicts decide the session's winner (one fold over the final
        formula), its heuristic wins and ledgers and, only in a quiescent run, what each
        resource-base entry the session touched settles to (None when it is spent; a None wins
        over a leftover)."""
        wins: list[HeuristicWin] = []
        ledgers = {aid: {"received": Counter(), "paid": Counter()} for aid in self.agents}
        settled: dict[str, dict[int, ResourceEntry | None]] = {aid: {} for aid in self.agents}
        for query in self.opened:
            session = query.session
            session.listener = None  # play is over; without the hook no cycle keeps the simulation alive
            verdicts = engine.read_verdicts(session)
            if quiescent:
                query.status = "won" if engine.evaluate_winner(session, verdicts) is Player.MACHINE else "lost"
            else:
                query.status = "unfinished"
            booked = query.opponent != GOD and query.client != query.server  # the client's side only
            prefix = "2." if query.consumed else ""
            for spec, binding in session.bindings.items():
                verdict = verdicts[spec]
                if not verdict.complete:
                    continue
                occ = session.atoms[spec]
                atom = occ.node.name
                if binding.heuristic_fired and verdict.winner is Player.MACHINE:
                    mover = query.server if binding.machine is Player.MACHINE else query.env_mover(spec)
                    wins.append(HeuristicWin(mover, atom, query.qid, spec, tuple(lm.payload for lm in binding.local)))
                if booked and spec.startswith(prefix):
                    side = "paid" if occ.polarity == NEGATIVE else "received"
                    ledgers[query.client][side][atom] += 1
            if not quiescent:
                continue
            mine = settled[query.server]
            if query.contract_ref is not None and query.status == "won":
                mine[query.contract_ref] = None
            for i, left in zip(query.consumed, _leftovers(session, verdicts, len(query.consumed))):
                if i not in mine or mine[i] is not None:
                    mine[i] = left
        for aid, agent in self.agents.items():
            agent.rb = _settled_rb(agent.rb, settled[aid])
        return SimulationReport(
            quiescent=quiescent,
            steps=self.steps,
            results=[query for queries in self.queues.values() for query in queries] + self.unroutable,
            heuristic_wins=wins,
            ledgers=ledgers,
            final_rb={aid: [str(e) for e in agent.rb] for aid, agent in self.agents.items()},
            trace=list(self.trace),
            agent_traces={aid: list(lines) for aid, lines in self.agent_traces.items()},
        )


def _revert_hybrids(f: Formula) -> Formula:
    return transform(f, lambda n: General(n.name, n.note) if isinstance(n, Hybrid) else n)


def _leftovers(finished: Session, verdicts: dict[str, Verdict], n: int) -> Iterator[ResourceEntry | None]:
    """What a finished session leaves of each of the first ``n >= 1`` conjuncts of its antecedent,
    given its bindings' ``verdicts``: None for a ``T`` or a completed atom, else the conjunct
    with hybrids reverted and its position."""
    for conjunct, spec in unfold_and_chain(finished.formula.left, n, "1."):
        verdict = verdicts.get(spec)  # present exactly when the conjunct is an atom
        spent = isinstance(split_annotation(conjunct)[0], Truth) or (verdict is not None and verdict.complete)
        yield None if spent else ResourceEntry(_revert_hybrids(conjunct), subrun(tuple(finished.run), spec))


def _settled_rb(rb: list[ResourceEntry], settled: dict[int, ResourceEntry | None]) -> list[ResourceEntry]:
    """``rb`` with each settled index replaced in place by what it settled to, spent ones dropped."""
    return [e for e in (settled.get(i, e) for i, e in enumerate(rb)) if e is not None]

