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
    evolve_rb,
)
from clbk.engine import Status
from clbk.formula import parse_formula
from clbk.games import Labmove, Player, coffee_game
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
        bus.post("a", "ghost", MoveMsg("sid", Labmove(T, "1.", "x=3")))


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
    evolved = evolve_rb(sim.agents["a"], session, consumed=[])
    assert [str(e) for e in evolved] == ["C @ f"]


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
    sim = Simulation(parse_scenario(builtin_scenario("starbucks")))
    sim.run(10_000)
    assert sim.opened
    for query in sim.opened:
        played = {id(lm) for lm in query.session.run}
        for binding in query.session.bindings.values():
            assert all(id(lm) in played for lm in binding.moves), (query.qid, binding.spec)
    assert any(b.moves for q in sim.opened for b in q.session.bindings.values())


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
    sim.bus.post("a", "a", MoveMsg("a:1", Labmove(B, "2.", "x=2")))
    sim.bus.post("a", "a", MoveMsg("a:1", Labmove(B, "2.", "y=3")))
    assert sim.exec_step("f") == "opened"
    assert sim.exec_step("a") == "delivered"
    query = sim.queries["a:1"]
    assert query.session is None
    assert query.early == [Labmove(B, "2.", "x=2")]
    report = sim.run(1000)
    assert report.quiescent and report.all_won()
    assert report.trace == ["1 a B 2.x=2", "2 a T 1.x=2", "3 a B 2.y=3", "4 a T 1.y=3", "5 f B 1.z=7", "6 a T 2.z=7"]
    assert query.session.run[0] == Labmove(B, "2.", "x=2")
