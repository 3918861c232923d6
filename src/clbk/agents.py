"""Agents, their resource bases and query queues, the labmove bus, and the deterministic
round-robin simulation that lets resources flow between sessions by relayed copies."""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field

from . import engine
from .engine import Binding, Session, Status
from .formula import (
    And,
    EnvAnn,
    Formula,
    General,
    Hybrid,
    Implies,
    NEGATIVE,
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


@dataclass(frozen=True)
class InformMsg:
    session_id: str
    move: Labmove


class Bus:
    """Per-(sender, receiver) FIFO channels with deterministic, arrival-ordered delivery."""

    def __init__(self):
        self.channels: dict[tuple[str, str], deque] = {}
        self.arrivals: dict[str, deque[tuple[str, str]]] = {}
        self.registered: list[str] = []

    def register(self, agent_id: str) -> None:
        if agent_id not in self.registered:
            self.registered.append(agent_id)
            self.arrivals[agent_id] = deque()

    def post(self, frm: str, to: str, msg) -> None:
        if to not in self.arrivals:
            raise BusError(f"unknown recipient {to!r}")
        key = (frm, to)
        self.channels.setdefault(key, deque()).append(msg)
        self.arrivals[to].append(key)

    def pending(self, to: str) -> bool:
        return bool(self.arrivals.get(to))

    def deliver(self, to: str):
        queue = self.arrivals.get(to)
        if not queue:
            return None
        key = queue.popleft()
        return self.channels[key].popleft()

    def idle(self) -> bool:
        return all(not q for q in self.arrivals.values())


def route(bus: Bus, frm: str, to: str, lm: Labmove, session_id: str | None = None) -> str:
    """Send a labmove between agents; a sender's T-move lands as the receiver's B-move.
    Moves addressed to God never leave the sender (its own scripts speak for God)."""
    if to == GOD:
        return "redirected"
    flipped = Labmove(Player.ENVIRONMENT, lm.spec, lm.payload) if lm.player is Player.MACHINE else lm
    bus.post(frm, to, MoveMsg(session_id or "", flipped))
    return "delivered"


# --- queue and flow plumbing -------------------------------------------------


@dataclass
class QueueItem:
    qid: str
    formula: Formula
    client: str
    contract_ref: int | None = None  # index into the owner's RB when self-executing a contract
    opened: bool = False


@dataclass(frozen=True)
class Slot:
    session_id: str
    spec: str
    polarity: int
    role: str  # "x" executor-held seat, "c" client-held seat
    atom: str


@dataclass
class FlowPair:
    produce: Slot
    consume: Slot


@dataclass
class QueryResult:
    qid: str
    client: str
    server: str
    formula: Formula
    status: str = "pending"  # won | lost | rejected | unfinished | pending
    winner: Player | None = None


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
    round-robin over agents in registration order."""

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
        self.queues: dict[str, list[QueueItem]] = {a: [] for a in self.agents}
        self.sessions: dict[str, Session] = {}
        self.session_exec: dict[str, str] = {}
        self.session_client: dict[str, str] = {}
        self.planned: dict[str, Formula] = {}
        self.body_prefix: dict[str, str] = {}
        self.consumed: dict[str, list[int]] = {}
        self.results: dict[str, QueryResult] = {}
        self.opened_order: list[str] = []
        self.pending_local: dict[str, list[tuple[str, Labmove]]] = {}
        self.flow_pairs: dict[str, dict[str, list[FlowPair]]] = {a: {} for a in self.agents}
        self.slot_lookup: dict[str, dict[tuple[str, str], tuple[str, int, str]]] = {a: {} for a in self.agents}
        self.claim_views: dict[tuple[str, str, str], list[Labmove]] = {}
        self.unroutable: list[QueryResult] = []
        self.trace: list[str] = []
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
        item = QueueItem(qid, q, client, contract_ref)
        self.queues[server].append(item)
        self.planned[qid] = self._session_formula(self.agents[server], item)
        self.session_exec[qid] = server
        self.session_client[qid] = GOD if contract_ref is not None else client
        self.results[qid] = QueryResult(qid, client, server, q)
        return qid

    def _session_formula(self, agent: Agent, item: QueueItem) -> Formula:
        if item.contract_ref is not None:
            self.body_prefix[item.qid] = ""
            self.consumed[item.qid] = []
            return item.formula
        body, server = split_annotation(item.formula)
        target = EnvAnn(body, item.client) if server is not None else body
        consumables = [i for i, e in enumerate(agent.rb) if not is_contract(e.formula)]
        if consumables:
            antecedent = and_chain([agent.rb[i].formula for i in consumables])
            self.body_prefix[item.qid] = "2."
            self.consumed[item.qid] = consumables
            return Implies(antecedent, target)
        self.body_prefix[item.qid] = ""
        self.consumed[item.qid] = []
        return target

    def _build_flows(self) -> None:
        """Pair, per agent and atom, the seats where it owes answers with the seats where it
        may forward the challenge and collect the answer from a counterparty."""
        atom_slots: dict[str, list] = {qid: surface_occurrences(f, "atom") for qid, f in self.planned.items()}
        for aid, agent in self.agents.items():
            manuals = agent.manuals()
            produce: dict[str, list[Slot]] = {}
            consume: dict[str, list[Slot]] = {}
            my_items = list(self.queues[aid])
            contracts = [i for i in my_items if i.contract_ref is not None]
            served = [i for i in my_items if i.contract_ref is None]
            # God-contract liabilities: negative occurrences of own contract sessions.
            for item in contracts:
                for occ in atom_slots[item.qid]:
                    if occ.polarity == NEGATIVE:
                        name = atom_name(occ.node)
                        produce.setdefault(name, []).append(Slot(item.qid, occ.spec, NEGATIVE, "x", name))
            # Client-side answer seats on queries this agent sent elsewhere.
            for server, items in self.queues.items():
                if server == aid:
                    continue
                for item in items:
                    if item.client != aid:
                        continue
                    for occ in atom_slots[item.qid]:
                        name = atom_name(occ.node)
                        if occ.polarity == NEGATIVE:
                            produce.setdefault(name, []).append(Slot(item.qid, occ.spec, NEGATIVE, "c", name))
                        else:
                            consume.setdefault(name, []).append(Slot(item.qid, occ.spec, POSITIVE, "c", name))
            # Executor seats on sessions served for others.
            for item in served:
                if item.client == aid:
                    continue
                for occ in atom_slots[item.qid]:
                    name = atom_name(occ.node)
                    if occ.polarity == POSITIVE and name not in manuals:
                        produce.setdefault(name, []).append(Slot(item.qid, occ.spec, POSITIVE, "x", name))
                    elif occ.polarity == NEGATIVE:
                        consume.setdefault(name, []).append(Slot(item.qid, occ.spec, NEGATIVE, "x", name))
            for name in produce:
                pairs = [FlowPair(p, c) for p, c in zip(produce[name], consume.get(name, []))]
                if not pairs:
                    continue
                self.flow_pairs[aid][name] = pairs
                for k, pair in enumerate(pairs):
                    self.slot_lookup[aid][(pair.produce.session_id, pair.produce.spec)] = (name, k, "produce")
                    self.slot_lookup[aid][(pair.consume.session_id, pair.consume.spec)] = (name, k, "consume")

    # -- relays ----------------------------------------------------------------

    def _trace_line(self, sid: str, lm: Labmove) -> None:
        if lm.player is Player.MACHINE:
            mover = self.session_exec[sid]
        else:
            session = self.sessions.get(sid)
            binding = session.bindings.get(lm.spec) if session else None
            mover = (binding.env if binding and binding.env else None) or self.session_client[sid]
        self.trace.append(f"{len(self.trace) + 1} {mover} {lm.player.value} {lm.spec}{lm.payload}")

    def _on_append(self, sid: str, lm: Labmove) -> None:
        self._trace_line(sid, lm)
        self._relay(self.session_exec[sid], sid, lm, mover_is_self=(lm.player is Player.MACHINE))

    def _relay(self, aid: str, sid: str, lm: Labmove, mover_is_self: bool) -> None:
        entry = self.slot_lookup[aid].get((sid, lm.spec))
        if entry is None:
            if not mover_is_self:
                self._claim_answer(aid, sid, lm)
            return
        name, k, kind = entry
        pair = self.flow_pairs[aid][name][k]
        slot = pair.produce if kind == "produce" else pair.consume
        local = lm.player if slot.polarity == POSITIVE else lm.player.flip()
        is_challenge = local is Player.ENVIRONMENT
        if kind == "produce" and is_challenge:
            self._emit(aid, pair.consume, lm.payload, challenge=True)
        elif kind == "consume" and not is_challenge and not mover_is_self:
            self._emit(aid, pair.produce, lm.payload, challenge=False)

    def _claim_answer(self, aid: str, sid: str, lm: Labmove) -> None:
        """A provider informed of play at an occurrence matched to it answers from its manual,
        honouring claims other agents hold on its resources."""
        agent = self.agents[aid]
        manuals = agent.manuals()
        planned = self.planned.get(sid)
        if planned is None:
            return
        occ = next((o for o in surface_occurrences(planned, "atom") if o.spec == lm.spec), None)
        if occ is None or occ.env != aid or occ.polarity != NEGATIVE:
            return
        manual = manuals.get(atom_name(occ.node))
        if manual is None:
            return
        view = self.claim_views.setdefault((aid, sid, lm.spec), [])
        view.append(Labmove(lm.player.flip(), "", lm.payload))
        payload = manual(tuple(view))
        if payload is not None:
            view.append(Labmove(Player.MACHINE, "", payload))
            self.bus.post(aid, self.session_exec[sid], MoveMsg(sid, Labmove(Player.ENVIRONMENT, lm.spec, payload)))

    def _emit(self, aid: str, slot: Slot, payload: str, challenge: bool) -> None:
        local = Player.ENVIRONMENT if challenge else Player.MACHINE
        label = local if slot.polarity == POSITIVE else local.flip()
        lm = Labmove(label, slot.spec, payload)
        if slot.role == "x":
            session = self.sessions.get(slot.session_id)
            if session is None:
                self.pending_local.setdefault(slot.session_id, []).append(("emit", lm))
                return
            self._apply_local(slot.session_id, session, lm)
        else:
            executor = self.session_exec[slot.session_id]
            self.bus.post(aid, executor, MoveMsg(slot.session_id, lm))

    def _apply_local(self, sid: str, session: Session, lm: Labmove) -> None:
        if lm.player is Player.MACHINE:
            session.append(lm)
            self._inform(sid, None, lm)
        else:
            session.deliver(lm)
            self._drive(sid, session)

    def _inform(self, sid: str, target: str | None, lm: Labmove) -> None:
        executor = self.session_exec[sid]
        to = target if target is not None else self.session_client[sid]
        if to in (GOD, executor):
            return
        self.bus.post(executor, to, InformMsg(sid, lm))

    def _drive(self, sid: str, session: Session) -> None:
        while True:
            progress, out = engine.step(session)
            for target, lm in out:
                self._inform(sid, target, lm)
            if not progress:
                return

    # -- scheduling -------------------------------------------------------------

    def _deliver_one(self, aid: str) -> bool:
        msg = self.bus.deliver(aid)
        if msg is None:
            return False
        if isinstance(msg, MoveMsg):
            session = self.sessions.get(msg.session_id)
            if session is None:
                self.pending_local.setdefault(msg.session_id, []).append(("emit", msg.move))
            else:
                session.deliver(msg.move)
                self._drive(msg.session_id, session)
        elif isinstance(msg, InformMsg):
            self._relay(aid, msg.session_id, msg.move, mover_is_self=False)
        return True

    def _open_next(self, aid: str) -> bool:
        agent = self.agents[aid]
        for item in self.queues[aid]:
            if item.opened:
                continue
            item.opened = True
            formula = self.planned[item.qid]
            tree = prove(formula, winnable=agent.winnable())
            if tree is None:
                self.results[item.qid].status = "rejected"
                return True
            converted = hybridize(tree)
            manuals = agent.manuals()
            bindings: dict[str, Binding] = {}
            for occ in surface_occurrences(formula, "atom"):
                name = atom_name(occ.node)
                if occ.polarity == POSITIVE and occ.node.note is None and name in manuals:
                    bindings[occ.spec] = Binding(
                        occ.spec, agent.games[name], occ.polarity, occ.env, heuristic=manuals[name]
                    )
            session = engine.new_session(
                converted,
                owner=aid,
                games=agent.games,
                heuristics=agent.heuristics,
                scripts=agent.scripts,
                bindings=bindings,
                interpretation=self.interpretation,
                winnable=agent.winnable(),
            )
            session.listener = lambda s, lm, sid=item.qid: self._on_append(sid, lm)
            self.sessions[item.qid] = session
            self.opened_order.append(item.qid)
            for kind, lm in self.pending_local.pop(item.qid, []):
                self._apply_local(item.qid, session, lm)
            self._drive(item.qid, session)
            return True
        return False

    def _has_work(self) -> bool:
        if not self.bus.idle():
            return True
        if any(not item.opened for items in self.queues.values() for item in items):
            return True
        return any(s.status is Status.RUNNING for s in self.sessions.values())

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
            aid = order[self._rotation % len(order)] if order else None
            if aid is None:
                break
            self.exec_step(aid)
            self._rotation += 1
            self.steps += 1
        quiescent = not self._has_work()
        return self._finish(quiescent)

    # -- evaluation and reporting -------------------------------------------------

    def _finish(self, quiescent: bool) -> SimulationReport:
        wins: list[HeuristicWin] = []
        for qid in self.opened_order:
            session = self.sessions[qid]
            result = self.results[qid]
            if session.status is Status.QUIESCENT:
                winner = engine.evaluate_winner(session)
                result.winner = winner
                result.status = "won" if winner is Player.MACHINE else "lost"
            else:
                result.status = "unfinished"
        for qid in self.opened_order:
            session = self.sessions[qid]
            for binding in session.bindings.values():
                if not binding.heuristic_fired:
                    continue
                run = session.local_run(binding.spec, binding.polarity)
                if binding.game.complete(run) and binding.game.winner(run) is Player.MACHINE:
                    wins.append(
                        HeuristicWin(
                            self.session_exec[qid],
                            binding_atom(session, binding),
                            qid,
                            binding.spec,
                            tuple(lm.payload for lm in run),
                        )
                    )
        ledgers = self._ledgers()
        self._evolve_all()
        final_rb = {aid: [str(e) for e in agent.rb] for aid, agent in self.agents.items()}
        agent_traces: dict[str, list[str]] = {aid: [] for aid in self.agents}
        for line in self.trace:
            mover = line.split(" ", 2)[1]
            if mover in agent_traces:
                agent_traces[mover].append(line)
        return SimulationReport(
            quiescent=quiescent,
            steps=self.steps,
            agent_order=list(self.agents),
            results=[self.results[item.qid] for items in self.queues.values() for item in items]
            + list(self.unroutable),
            heuristic_wins=wins,
            ledgers=ledgers,
            final_rb=final_rb,
            trace=list(self.trace),
            agent_traces=agent_traces,
        )

    def _ledgers(self) -> dict[str, dict[str, Counter]]:
        ledgers: dict[str, dict[str, Counter]] = {
            aid: {"received": Counter(), "paid": Counter()} for aid in self.agents
        }
        for qid in self.opened_order:
            result = self.results[qid]
            if self.session_client[qid] == GOD or result.client == result.server:
                continue
            session = self.sessions[qid]
            prefix = self.body_prefix[qid]
            body = self.planned[qid]
            for occ in surface_occurrences(body, "atom"):
                if not occ.spec.startswith(prefix):
                    continue
                binding = session.bindings.get(occ.spec)
                if binding is None or not binding.game.complete(session.local_run(occ.spec, occ.polarity)):
                    continue
                side = "paid" if occ.polarity == NEGATIVE else "received"
                ledgers[result.client][side][atom_name(occ.node)] += 1
        return ledgers

    def _evolve_all(self) -> None:
        for qid in self.opened_order:
            session = self.sessions[qid]
            if session.status is not Status.FINISHED:
                continue
            server = self.session_exec[qid]
            agent = self.agents[server]
            item = next(i for i in self.queues[server] if i.qid == qid)
            if item.contract_ref is not None:
                if session.winner is Player.MACHINE and item.contract_ref < len(agent.rb):
                    entry = agent.rb[item.contract_ref]
                    if entry.formula == item.formula:
                        agent.rb.remove(entry)
            elif self.consumed[qid]:
                agent.rb = evolve_rb(agent, session, self.consumed[qid])


def binding_atom(session: Session, binding: Binding) -> str:
    for occ in surface_occurrences(session.formula, "atom"):
        if occ.spec == binding.spec:
            return atom_name(occ.node)
    return binding.game.name


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
            run = finished.local_run(spec, NEGATIVE)
            if binding is not None and binding.game.complete(run):
                continue
        kept.append(ResourceEntry(_revert_hybrids(conjunct), subrun(tuple(finished.run), spec)))
    out: list[ResourceEntry] = []
    consumed_set = set(consumed)
    for i, entry in enumerate(agent.rb):
        if i not in consumed_set:
            out.append(entry)
    return out + kept


def run_simulation(agents: list[Agent], max_steps: int = 10_000, interpretation=None) -> SimulationReport:
    return Simulation(agents, interpretation).run(max_steps)
