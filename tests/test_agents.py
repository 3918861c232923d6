import pytest

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
from clbk.engine import Status
from clbk.formula import NEGATIVE, POSITIVE, parse_formula
from clbk.games import Labmove, Player, coffee_game, flip_run
from clbk.scenario import builtin_scenario, parse_scenario

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
    agent = Agent(id="a", queries=[parse_formula("(p -> p) @ ghost")])
    report = Simulation([agent]).run(100)
    assert [r.status for r in report.results] == ["rejected"]


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


def test_evolve_rb_drops_only_consumed_conjuncts():
    text = MINI.replace("rb C @ f", "rb C @ f\n  rb C @ f")
    report = Simulation(parse_scenario(text)).run(1000)
    assert report.all_won()
    assert report.final_rb["a"] == ["C @ f"]


def test_evolve_rb_keeps_a_partly_played_conjunct_with_its_position():
    text = MINI.replace("[x=2, y=3]", "[x=2]")
    report = Simulation(parse_scenario(text)).run(1000)
    assert report.quiescent
    assert report.final_rb["a"] == ["C @ f ; Tx=2"]


def test_evolve_rb_drops_a_truth_conjunct():
    text = MINI.replace("rb C @ f", "rb T\n  rb C @ f")
    report = Simulation(parse_scenario(text)).run(1000)
    assert report.quiescent and report.all_won()
    assert report.final_rb["a"] == []


def test_evolve_rb_keeps_a_served_agents_contract():
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


def test_manuals_fall_back_to_the_games_default_heuristic():
    agent = Agent(id="f", games={"C": coffee_game(10)}, rb=[ResourceEntry(parse_formula("C{h=nosuch} @ God"))])
    assert agent.manuals() == {"C": agent.games["C"].default_heuristic}


def test_evolve_rb_noop_without_antecedent():
    agent = Agent(id="a", queries=[parse_formula("(p -> p) @ a")])
    sim = Simulation([agent])
    report = sim.run(100)
    assert report.quiescent
    assert report.final_rb["a"] == []


def test_evolve_rb_direct_contract():
    agent = Agent(id="a", games={"C": coffee_game(10)}, rb=[ResourceEntry(parse_formula("C @ f"))])
    sim = Simulation([agent, Agent(id="f")])
    sim.submit_query("a", parse_formula("(p -> p) @ a"), client="a")
    report = sim.run(100)
    session = sim.queries["a:1"].session
    assert session.status is Status.FINISHED
    assert report.final_rb["a"] == ["C @ f"]


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
            run = session.local_run(binding.spec)
            payloads = tuple(m.payload for m in run if not m.is_choice())
            if not binding.game.complete(run):
                continue
            pool = original_coffees if binding.game.name == "coffee" else original_dollars
            assert payloads in pool, (query.qid, binding.spec, payloads)


def test_starbucks_bindings_hold_the_runs_own_moves():
    """A positive occurrence holds the session's own move objects; a negative one holds them
    flipped, each once."""
    sim = Simulation(parse_scenario(builtin_scenario("starbucks")))
    sim.run(10_000)
    assert sim.opened
    for query in sim.opened:
        run = query.session.run
        played = {id(lm) for lm in run}
        for binding in query.session.bindings.values():
            if binding.polarity == POSITIVE:
                assert all(id(lm) in played for lm in binding.local), (query.qid, binding.spec)
            else:
                own = tuple(lm for lm in run if lm.spec == binding.spec and not lm.is_choice())
                assert tuple(binding.local) == flip_run(own), (query.qid, binding.spec)
    held = [b for q in sim.opened for b in q.session.bindings.values() if b.local]
    assert {b.polarity for b in held} == {POSITIVE, NEGATIVE}


def test_a_heuristic_is_polled_again_only_after_its_occurrence_moves():
    """A heuristic is a pure function of its local run, so a binding's heuristic is polled at
    most once per move filed there, plus once for its empty run."""
    agents = parse_scenario(builtin_scenario("starbucks"))
    calls = []

    def counted(fn):
        def heuristic(run):
            calls.append(run)
            return fn(run)

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
