from collections import Counter

import pytest

from clbk import engine, formula, games
from clbk.agents import (
    Agent,
    AgentError,
    Bus,
    BusError,
    HeuristicWin,
    MoveMsg,
    ResourceEntry,
    Simulation,
)
from clbk.cli import main
from clbk.engine import Session, Status
from clbk.formula import NEGATIVE, POSITIVE, parse_formula, surface_occurrences
from clbk.games import GameDef, Labmove, Player, coffee_game
from clbk.prover import hybridize, prove
from clbk.scenario import builtin_scenario, parse_scenario
from genlib import illegal_moves

T, B = Player.MACHINE, Player.ENVIRONMENT


MINI = """
agent f kind=provider
  game C = coffee(zmax=10)
  heuristic hx = coffee
  rb C{h=hx} @ God

agent a kind=regular
  game C = coffee(zmax=10)
  script myreq = [x=2, y=3]
  rb C @ f
  query C{s=myreq} @ a
"""


MIDDLEMAN = """
agent f kind=provider
  game C = coffee(zmax=10)
  heuristic hx = coffee
  rb C{h=hx} @ God

agent m kind=regular
  game C = coffee(zmax=10)
  script req = [x=2, y=3]
  rb C @ f

agent u kind=regular
  query C{s=req} @ m
"""


def test_bus_rejects_unknown_recipient():
    bus = Bus()
    bus.register("a")
    with pytest.raises(BusError, match="unknown recipient"):
        bus.post("ghost", MoveMsg("sid", Labmove(T, "1.", "x=3")))


def test_submit_query_refuses_an_unregistered_server():
    sim = Simulation([Agent("a")])
    with pytest.raises(BusError, match="unknown recipient 'ghost'"):
        sim.submit_query("ghost", parse_formula("p -> p"), client="a")
    assert sim.queries == {}


def test_god_agent_id_is_reserved():
    with pytest.raises(AgentError, match="reserved"):
        Simulation([Agent(id="God")])


def test_submit_query_is_fifo():
    sim = Simulation([Agent(id="a", games={"C": coffee_game(10)})])
    sim.submit_query("a", parse_formula("p -> p"), client="a")
    sim.submit_query("a", parse_formula("q -> q"), client="a")
    assert [i.qid for i in sim.queues["a"]] == ["a:1", "a:2"]
    report = sim.run(100)
    assert [r.status for r in report.results] == ["won", "won"]


def test_exec_step_waits_on_empty_queue():
    sim = Simulation([Agent(id="a")])
    assert sim.exec_step("a") == "wait"


def test_waiting_agent_is_immediately_quiescent():
    report = Simulation([Agent(id="a")]).run(10)
    assert report.quiescent
    assert report.steps == 0
    assert report.results == []


def test_zero_budget_reports_zero_steps():
    agents = parse_scenario(MINI)
    report = Simulation(agents).run(0)
    assert report.steps == 0
    assert not report.quiescent


def test_unprovable_query_is_rejected_and_queue_advances():
    agent = Agent(id="a", queries=[parse_formula("(p | ~p) @ a"), parse_formula("(p -> p) @ a")])
    report = Simulation([agent]).run(100)
    assert [r.status for r in report.results] == ["rejected", "won"]
    assert report.quiescent


def test_query_to_unknown_agent_is_rejected():
    """A query to God or to an unregistered agent never opens: it is rejected and listed after
    the served queries. Every result is the simulation's own query."""
    queries = [parse_formula(f"(p -> p) @ {to}") for to in ("God", "ghost", "a")]
    sim = Simulation([Agent(id="a", queries=queries)])
    report = sim.run(100)
    assert [(r.qid, r.status) for r in report.results] == [("a:1", "won"), ("a!r1", "rejected"), ("a!r2", "rejected")]
    assert report.results[0] is sim.queries["a:1"]


def test_consumable_resource_served_by_copycat():
    report = Simulation(parse_scenario(MINI)).run(1000)
    assert report.quiescent
    assert report.all_won()
    assert report.final_rb["a"] == []
    payloads = [line.split()[-1] for line in report.trace]
    assert payloads == ["2.x=2", "1.x=2", "2.y=3", "1.y=3", "1.z=7", "2.z=7"]


def test_middleman_relays_each_move_once():
    """A middleman's session copies its resource to its client by copy-cat alone: neither the
    middleman nor the client relays between the session's two seats, so every move is
    played once and the run comes to rest. The provider's manual answers inside the session
    as its environment stand-in, so no bus round trip to the provider is needed; and neither
    the provider nor the client holds a seat in that session, so no move is posted to them."""
    report = Simulation(parse_scenario(MIDDLEMAN)).run(1000)
    assert report.quiescent and report.all_won()
    assert [line.split(" ", 1)[1] for line in report.trace] == [
        "u B 2.x=2", "m T 1.x=2", "u B 2.y=3", "m T 1.y=3", "f B 1.z=7", "m T 2.z=7"
    ]
    assert report.steps == 2
    assert report.heuristic_wins == [HeuristicWin("f", "C", "m:1", "1.", ("x=2", "y=3", "z=7"))]


DIRECT_ORDER = """
agent "*C" kind=provider
  game C = coffee(zmax=10)
  heuristic hx = coffee
  script req = [x=2, y=3]
  rb C{h=hx} @ God

agent "+C" kind=regular
  game C = coffee(zmax=10)
  query C{s=req} @ "*C"
"""


def test_a_servers_manual_answers_a_direct_order_with_a_script_note():
    """A client orders coffee from its provider directly. The query's ``s=`` note binds the
    occurrence's environment seat, so the heuristic seat is free and the server's own manual
    answers there: the session is won, the client is booked its coffee, and the answer is
    the provider's heuristic win."""
    report = Simulation(parse_scenario(DIRECT_ORDER)).run(1000)
    assert report.quiescent and report.all_won()
    assert [line.split(" ", 1)[1] for line in report.trace] == ["+C B x=2", "+C B y=3", "*C T z=7"]
    assert report.heuristic_wins == [HeuristicWin("*C", "C", "*C:2", "", ("x=2", "y=3", "z=7"))]
    assert report.ledgers["+C"] == {"received": Counter(C=1), "paid": Counter()}


def test_an_h_note_wins_over_the_servers_manual():
    """Where an ``h=`` note binds a heuristic, the server's manual is not bound over it."""
    text = DIRECT_ORDER.replace("heuristic hx = coffee", "heuristic hx = coffee\n  heuristic hy = coffee")
    sim = Simulation(parse_scenario(text.replace("C{s=req} @", "C{h=hy} @")))
    sim.run(1000)
    (query,) = [q for q in sim.opened if q.client == "+C"]
    assert query.session.bindings[""].heuristic is sim.agents["*C"].heuristics["hy"]


CHOSEN_GOOD = """
agent f kind=provider
  game C = coffee(zmax=10)
  heuristic hx = coffee
  rb C{h=hx} @ God

agent m kind=regular
  game C = coffee(zmax=10)
  game D = dollar(vmax=5)
  script req = [x=2, y=3]
  rb C @ f

agent u kind=regular
  game C = coffee(zmax=10)
  game D = dollar(vmax=5)
  query (C{s=req} | D) @ m
"""


def test_settle_books_a_good_chosen_during_play():
    """``m`` chooses ``C`` in ``u``'s query ``(C{s=req} | D) @ m``, so the coffee it delivers
    sits at ``2.`` of the session's final formula but under a choice in the planned one.
    Settlement books from the session's own atoms, so ``u`` receives it."""
    report = Simulation(parse_scenario(CHOSEN_GOOD)).run(1000)
    assert report.quiescent and report.all_won()
    assert [line.split(" ", 1)[1] for line in report.trace] == [
        "m T 2.1", "u B 2.x=2", "m T 1.x=2", "u B 2.y=3", "m T 1.y=3", "f B 1.z=7", "m T 2.z=7"
    ]
    assert report.ledgers["u"] == {"received": Counter({"C": 1}), "paid": Counter()}


def test_settle_drops_only_the_conjunct_a_session_consumed():
    text = MINI.replace("rb C @ f", "rb C @ f\n  rb C @ f")
    report = Simulation(parse_scenario(text)).run(1000)
    assert report.all_won()
    assert report.final_rb["a"] == ["C @ f"]


def test_settle_keeps_a_partly_played_conjunct_with_its_position():
    text = MINI.replace("[x=2, y=3]", "[x=2]")
    report = Simulation(parse_scenario(text)).run(1000)
    assert report.quiescent
    assert report.final_rb["a"] == ["C @ f ; Tx=2"]


def test_settle_drops_a_truth_conjunct():
    text = MINI.replace("rb C @ f", "rb T\n  rb C @ f")
    report = Simulation(parse_scenario(text)).run(1000)
    assert report.quiescent and report.all_won()
    assert report.final_rb["a"] == []


def test_settle_keeps_the_contract_of_a_rejected_query():
    text = MINI.replace("rb C @ f", "rb C @ f\n  rb q @ God")
    report = Simulation(parse_scenario(text)).run(1000)
    assert [(r.qid, r.status) for r in report.results] == [("f:1", "won"), ("a:1", "rejected"), ("a:2", "won")]
    assert report.final_rb["a"] == ["q @ God"]


def test_a_won_contract_before_a_consumed_conjunct_settles_both():
    """Each entry settles at its own index: the won contract and the consumed conjunct after
    it are both dropped, whatever their order."""
    text = MINI.replace("  rb C @ f", "  heuristic hx = coffee\n  rb C{h=hx} @ God\n  rb C @ f")
    report = Simulation(parse_scenario(text)).run(1000)
    assert report.quiescent and report.all_won()
    assert report.final_rb["a"] == []


CD_MIDDLEMAN = """
agent f kind=provider
  game C = coffee(zmax=10)
  heuristic hx = coffee
  rb C{h=hx} @ God

agent g kind=provider
  game D = dollar(vmax=5)
  heuristic hd = dollar
  rb D{h=hd} @ God

agent m kind=regular
  game C = coffee(zmax=10)
  game D = dollar(vmax=5)
  script req = [x=2, y=3]
  script dreq = [v=2]
  rb C @ f
  rb D @ g

agent u kind=regular
  query C{s=req} @ m

agent v kind=regular
  query D{s=dreq} @ m
"""


def test_each_session_consumes_its_own_conjunct():
    """``m`` serves a coffee from ``C @ f`` and a dollar from ``D @ g``: each session leaves the
    other's conjunct unplayed, and a spent entry stays spent."""
    report = Simulation(parse_scenario(CD_MIDDLEMAN)).run(1000)
    assert report.quiescent and report.all_won()
    assert [(r.qid, r.status) for r in report.results] == [
        ("f:1", "won"), ("g:1", "won"), ("m:1", "won"), ("m:2", "won")
    ]
    assert report.final_rb["m"] == []


def test_a_partly_played_conjunct_keeps_its_index():
    text = MINI.replace("[x=2, y=3]", "[x=2]").replace("rb C @ f", "rb C @ f\n  rb q @ God")
    report = Simulation(parse_scenario(text)).run(1000)
    assert report.quiescent
    assert report.final_rb["a"] == ["C @ f ; Tx=2", "q @ God"]


def test_a_run_cut_short_settles_nothing():
    sim = Simulation(parse_scenario(MINI))
    report = sim.run(1)
    assert not report.quiescent
    assert [(r.qid, r.status) for r in report.results] == [("f:1", "unfinished"), ("a:1", "pending")]
    assert report.final_rb == {"f": ["C{h=hx} @ God"], "a": ["C @ f"]}
    assert sim.queries["f:1"].session.status is Status.QUIESCENT


def test_an_h_note_naming_no_heuristic_is_refused_before_the_run(tmp_path, capsys):
    """An ``h=`` note names a heuristic of the agent that resolves it: the holder of a
    resource-base entry, the server of a query. One that names none is not played on its
    game's default: ``Simulation`` raises ``AgentError``, naming the agent and the heuristic,
    and ``clbk simulate`` exits 2 with that message."""
    cases = {
        MINI.replace("rb C{h=hx} @ God", "rb C{h=nope} @ God"): "'f' names heuristic 'nope', which it does not define",
        MINI + "  query C{h=nope} @ f\n": "query C{h=nope} @ f names heuristic 'nope', which 'f' does not define",
    }
    for text, message in cases.items():
        with pytest.raises(AgentError) as caught:
            Simulation(parse_scenario(text))
        assert str(caught.value) == message
        path = tmp_path / "nope.clbk"
        path.write_text(text)
        assert main(["simulate", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_a_simulation_computes_each_agents_manuals_once(monkeypatch):
    """``Simulation`` reads each agent's manuals once and derives its winnable atoms from them;
    ``Agent.winnable()`` alone still computes its own."""
    agents = parse_scenario(builtin_scenario("starbucks"))
    expected = {agent.id: agent.winnable() for agent in parse_scenario(builtin_scenario("starbucks"))}
    calls = Counter()
    manuals = Agent.manuals

    def counted(agent):
        calls[agent.id] += 1
        return manuals(agent)

    monkeypatch.setattr(Agent, "manuals", counted)
    sim = Simulation(agents)
    assert sim.run(10_000).all_won()
    assert calls == Counter({agent.id: 1 for agent in agents})
    assert sim.winnable == expected and expected["*C"] == frozenset({"C"})


def test_settle_leaves_an_empty_rb_empty_without_an_antecedent():
    agent = Agent(id="a", queries=[parse_formula("(p -> p) @ a")])
    sim = Simulation([agent])
    report = sim.run(100)
    assert report.quiescent
    assert report.final_rb["a"] == []


def test_settle_keeps_a_conjunct_a_won_session_left_unplayed():
    agent = Agent(id="a", games={"C": coffee_game(10)}, rb=[ResourceEntry(parse_formula("C @ f"))])
    sim = Simulation([agent, Agent(id="f")])
    sim.submit_query("a", parse_formula("(p -> p) @ a"), client="a")
    report = sim.run(100)
    session = sim.queries["a:1"].session
    assert session.status is Status.FINISHED
    assert report.final_rb["a"] == ["C @ f"]


def test_queries_submitted_before_the_run_get_relay_seats():
    """The seats are paired when the run first needs them, so a query submitted between
    construction and ``run`` is relayed like a startup one: starbucks with ``u``'s queries
    submitted late mints the same goods and books the same ledger for ``u``."""
    agents = parse_scenario(builtin_scenario("starbucks"))
    user = next(a for a in agents if a.id == "u")
    late, user.queries = user.queries, []
    sim = Simulation(agents)
    for q in late:
        sim.submit_query(q.agent, q, client="u")
    report = sim.run(10_000)
    assert report.quiescent and report.all_won()
    assert len(report.heuristic_wins) == 20
    assert report.steps == 212
    assert report.ledgers["u"] == {"received": Counter(C=2, D=2), "paid": Counter(C=2, D=2)}


def test_starbucks_trace_deterministic():
    agents1 = parse_scenario(builtin_scenario("starbucks"))
    agents2 = parse_scenario(builtin_scenario("starbucks"))
    r1 = Simulation(agents1).run(10_000)
    r2 = Simulation(agents2).run(10_000)
    assert r1.trace == r2.trace
    assert r1.summary() == r2.summary()


@pytest.mark.parametrize(
    "text, coffees, dollars, minters",
    [(builtin_scenario("starbucks"), 10, 10, {"*C", "*1"}), (MINI, 1, 0, {"f"}), (MIDDLEMAN, 1, 0, {"f"})],
    ids=["starbucks", "mini", "middleman"],
)
def test_starbucks_conservation_copies(text, coffees, dollars, minters):
    """Every completed game in every session is a copy of a heuristic win: goods are minted
    only by manuals, played inside the sessions that owe them."""
    report = Simulation(parse_scenario(text)).run(10_000)
    assert report.quiescent
    coffee_wins = [w for w in report.heuristic_wins if w.atom == "C"]
    dollar_wins = [w for w in report.heuristic_wins if w.atom == "D"]
    assert len(coffee_wins) == coffees
    assert len(dollar_wins) == dollars
    assert {w.agent for w in report.heuristic_wins} == minters
    original_coffees = {w.payloads for w in coffee_wins}
    original_dollars = {w.payloads for w in dollar_wins}
    sim = Simulation(parse_scenario(text))
    sim.run(10_000)
    for query in sim.opened:
        session = query.session
        for binding in session.bindings.values():
            payloads = tuple(m.payload for m in binding.local if not m.is_choice())
            if not binding.game.verdict(binding.local, binding.machine).complete:
                continue
            pool = original_coffees if binding.game.name == "coffee" else original_dollars
            assert payloads in pool, (query.qid, binding.spec, payloads)


def test_starbucks_bindings_hold_the_runs_own_moves():
    """Every occurrence, positive or negative, holds the session's own move objects at its spec,
    each once and in order."""
    sim = Simulation(parse_scenario(builtin_scenario("starbucks")))
    sim.run(10_000)
    assert sim.opened
    for query in sim.opened:
        run = query.session.run
        for binding in query.session.bindings.values():
            own = [id(lm) for lm in run if lm.spec == binding.spec and not lm.is_choice()]
            assert [id(lm) for lm in binding.local] == own, (query.qid, binding.spec)
    held = [b for q in sim.opened for b in q.session.bindings.values() if b.local]
    assert {b.polarity for b in held} == {POSITIVE, NEGATIVE}


def test_a_session_reads_its_querys_walk(monkeypatch):
    """A session opens on the query's planned formula itself, so its atoms are the very
    Occurrence objects of the walk that formula keeps, from which the seats were paired:
    the formula is walked once for both."""
    opened = []
    original = engine.new_session

    def recording(tree, **kwargs):
        session = original(tree, **kwargs)
        opened.append(dict(session.atoms))
        return session

    monkeypatch.setattr(engine, "new_session", recording)
    sim = Simulation(parse_scenario(builtin_scenario("starbucks")))
    sim.run(10_000)
    assert len(opened) == len(sim.opened) == 6
    for query, atoms in zip(sim.opened, opened):
        planned = surface_occurrences(query.planned, "atom")
        assert list(atoms) == [occ.spec for occ in planned] and atoms
        assert all(atoms[occ.spec] is occ for occ in planned), query.qid


def test_starbucks_parses_each_payload_once_and_walks_each_formula_once(monkeypatch):
    """On one starbucks run, from ``Simulation`` on, a payload is parsed only where it enters
    play: the 20 heuristic answers (scripts were parsed with the scenario, and every flip,
    relay and copy-cat move is a relabelled copy). The 10 root walks are the manuals' 2 and
    the winnable sets' 4, and 4 for the queries' planned formulas (the contracts reuse the
    manuals' walks); the prover's root search nodes, the checker and the engine reuse the
    kept walks."""
    agents = parse_scenario(builtin_scenario("starbucks"))
    parses = []
    pattern = games._PAYLOAD_RE

    class Counting:
        def fullmatch(self, payload):
            parses.append(payload)
            return pattern.fullmatch(payload)

    roots = []
    walk = formula._surface_walk

    def counted(out, node, spec, *rest):
        if not spec:  # the walk recurses only into left operands, whose specs end in "1."
            roots.append(node)
        return walk(out, node, spec, *rest)

    monkeypatch.setattr(games, "_PAYLOAD_RE", Counting())
    monkeypatch.setattr(formula, "_surface_walk", counted)
    report = Simulation(agents).run(10_000)
    assert report.all_won() and len(report.heuristic_wins) == 20
    assert sorted(parses) == sorted(p for win in report.heuristic_wins for p in win.payloads if p[0] in "zr")
    assert len(parses) == 20
    assert len(roots) == 10


def test_a_heuristic_is_polled_again_only_after_its_occurrence_moves():
    """A heuristic is a pure function of its run and machine seat, so a binding's heuristic is
    polled at most once per move filed there, plus once for its empty run."""
    agents = parse_scenario(builtin_scenario("starbucks"))
    calls = []

    def counted(fn):
        def heuristic(run, machine):
            calls.append(len(run))
            return fn(run, machine)

        return heuristic

    for agent in agents:
        agent.heuristics = {name: counted(fn) for name, fn in agent.heuristics.items()}
    wrapped = {fn for agent in agents for fn in agent.heuristics.values()}
    sim = Simulation(agents)
    assert sim.run(10_000).all_won()
    bound = [
        binding
        for query in sim.opened
        for binding in query.session.bindings.values()
        if binding.heuristic in wrapped
    ]
    filed = sum(len(binding.local) for binding in bound)
    assert (filed, len(bound)) == (50, 22)
    assert 0 < len(calls) <= filed + len(bound)


def test_settle_reads_each_binding_run_once(monkeypatch):
    """Settling a starbucks run reads each opened session's binding runs once, straight from
    the bindings: one game read per binding decides the winner, the heuristic wins, the
    ledgers and the leftovers, and no local run is copied."""
    sim = Simulation(parse_scenario(builtin_scenario("starbucks")))
    settling, reads, copies = [], [], []
    read, local_run, settle = GameDef._read, Session.local_run, Simulation._settle

    def counted_read(game, run, machine):
        if settling:
            reads.append(run)
        return read(game, run, machine)

    def counted_local_run(session, spec):
        if settling:
            copies.append(spec)
        return local_run(session, spec)

    def counted_settle(simulation, quiescent):
        settling.append(quiescent)
        return settle(simulation, quiescent)

    monkeypatch.setattr(GameDef, "_read", counted_read)
    monkeypatch.setattr(Session, "local_run", counted_local_run)
    monkeypatch.setattr(Simulation, "_settle", counted_settle)
    report = sim.run(10_000)
    assert settling == [True] and report.all_won() and len(report.heuristic_wins) == 20
    bindings = [binding for query in sim.opened for binding in query.session.bindings.values()]
    assert len(sim.opened) == 6 and len(bindings) == 66
    assert sorted(map(id, reads)) == sorted(id(binding.local) for binding in bindings)
    assert copies == []


def test_starbucks_informs_only_the_environment_player_at_its_seat():
    """A post to an agent that does not serve the session informs it of a machine move: it
    goes to the agent that plays the environment at the move's occurrence, and only where
    that agent holds a seat."""
    sim = Simulation(parse_scenario(builtin_scenario("starbucks")))
    post = sim.bus.post
    informs, posts = [], []

    def checked(to, msg):
        posts.append(msg)
        query = sim.queries[msg.session_id]
        if to != query.server:
            informs.append(msg)
            assert msg.move.player is T, msg
            assert to == query.env_mover(msg.move.spec), (to, msg)
            assert (msg.session_id, msg.move.spec) in sim.seats[to], (to, msg)
        post(to, msg)

    sim.bus.post = checked
    assert sim.run(10_000).all_won()
    assert (len(informs), len(posts)) == (54, 110)


def test_no_labmove_delivered_to_god():
    sim = Simulation(parse_scenario(builtin_scenario("starbucks")))
    sim.run(10_000)
    assert "God" not in sim.bus.inboxes  # post raises BusError for a name with no inbox


@pytest.mark.parametrize("text", [MINI, builtin_scenario("starbucks")], ids=["mini", "starbucks"])
def test_sessions_rest_between_visits(text):
    """The scheduler relies on this: after every visit no session is left running."""
    sim = Simulation(parse_scenario(text))
    visit = sim.exec_step
    visits = []

    def checked(aid):
        visits.append(visit(aid))
        running = [q.qid for q in sim.queries.values() if q.session and q.session.status is Status.RUNNING]
        assert running == [], (len(visits), running)
        return visits[-1]

    sim.exec_step = checked
    report = sim.run(10_000)
    assert report.quiescent and report.all_won()
    assert len(visits) == report.steps > 0


def test_move_before_opening_is_applied_once_open():
    """Moves posted to a queued session wait on its query and are played when it opens."""
    text = MINI.replace("  script myreq = [x=2, y=3]\n", "").replace("C{s=myreq} @ a", "C @ a")
    sim = Simulation(parse_scenario(text))
    sim.bus.post("a", MoveMsg("a:1", Labmove(B, "2.", "x=2")))
    sim.bus.post("a", MoveMsg("a:1", Labmove(B, "2.", "y=3")))
    assert sim.exec_step("f") == "opened"
    assert sim.exec_step("a") == "delivered"
    query = sim.queries["a:1"]
    assert query.session is None
    assert query.early == [Labmove(B, "2.", "x=2")]
    report = sim.run(1000)
    assert report.quiescent and report.all_won()
    assert report.trace == ["1 a B 2.x=2", "2 a T 1.x=2", "3 a B 2.y=3", "4 a T 1.y=3", "5 f B 1.z=7", "6 a T 2.z=7"]
    assert query.session.run[0] == Labmove(B, "2.", "x=2")


CHAINED_ORDERS = """
agent f kind=provider
  game C = coffee(zmax=10)
  heuristic hx = coffee
  rb C{h=hx} @ God

agent m1
  game C = coffee(zmax=10)
  script req = [x=2, y=3]
  rb C @ f

agent m2
  game C = coffee(zmax=10)
  script req = [x=2, y=3]
  query C{s=req} @ m1

agent u0
  game C = coffee(zmax=10)
  query C{s=req} @ m2
"""


def test_legality_replay_of_what_the_bindings_file():
    """Each binding's run replayed through its game's ``legal``. The starbucks run files only
    legal moves. The two probes pin a known defect (ROADMAP, "Legal runs in the engine and in
    the simulator"): the engine copies environment moves the game forbids, and a middleman
    that orders a good for itself and relays a client's order for it files forbidden moves,
    yet every session is won. A change that enforces legality turns these two pins around."""
    sim = Simulation(parse_scenario(builtin_scenario("starbucks")))
    assert sim.run(10_000).all_won()
    assert sum(len(b.local) for q in sim.opened for b in q.session.bindings.values()) == 160
    assert [illegal_moves(q.session) for q in sim.opened] == [[]] * 6

    # Probe 1: interactive environment moves that the coffee game forbids, each copied.
    session = engine.new_session(hybridize(prove(parse_formula("(C -> C) @ w"))), games={"C": coffee_game(10)})
    engine.machine_turn(session)
    for spec, payload in [("2.", "y=2"), ("2.", "x=0"), ("2.", "z=99"), ("1.", "q")]:
        lm = Labmove(B, spec, payload)
        assert engine.move_refusal(session, lm) is None
        session.deliver(lm)
        engine.run_to_quiescence(session)
    assert len(session.run) == 8
    assert illegal_moves(session) == [
        ("1.", "T1.y=2"), ("1.", "T1.x=0"), ("1.", "T1.z=99"), ("1.", "B1.q"),
        ("2.", "B2.y=2"), ("2.", "B2.x=0"), ("2.", "B2.z=99"), ("2.", "T2.q"),
    ]
    assert engine.evaluate_winner(session) is T

    # Probe 2: m2 orders a coffee for itself and relays u0's order for one through m1.
    sim = Simulation(parse_scenario(CHAINED_ORDERS))
    report = sim.run(1000)
    assert report.quiescent and report.all_won() and len(report.heuristic_wins) == 1
    assert [(q.qid, sum(len(b.local) for b in q.session.bindings.values())) for q in sim.opened] == [
        ("f:1", 0), ("m1:1", 10), ("m2:1", 3)
    ]
    assert {q.qid: illegal_moves(q.session) for q in sim.opened} == {
        "f:1": [],
        "m1:1": [("1.", "T1.x=2"), ("1.", "T1.y=3"), ("2.", "B2.x=2"), ("2.", "B2.y=3")],
        "m2:1": [("", "Tz=7")],
    }
