import pytest

from clbk.agents import (
    Agent,
    AgentError,
    Bus,
    BusError,
    MoveMsg,
    ResourceEntry,
    Simulation,
    evolve_rb,
    route,
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


def test_bus_routes_flip_labels():
    bus = Bus()
    bus.register("a")
    bus.register("b")
    assert route(bus, "a", "b", Labmove(T, "1.", "x=3"), "sid") == "delivered"
    msg = bus.deliver("b")
    assert isinstance(msg, MoveMsg)
    assert msg.move.player is B


def test_bus_rejects_unknown_recipient():
    bus = Bus()
    bus.register("a")
    with pytest.raises(BusError, match="unknown recipient"):
        route(bus, "a", "ghost", Labmove(T, "1.", "x=3"))


def test_route_to_god_is_redirected():
    bus = Bus()
    bus.register("a")
    assert route(bus, "a", "God", Labmove(T, "1.", "x=3")) == "redirected"
    assert bus.idle()


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


def test_evolve_rb_drops_only_consumed_conjuncts():
    text = MINI.replace("rb C @ f", "rb C @ f\n  rb C @ f")
    report = Simulation(parse_scenario(text)).run(1000)
    assert report.all_won()
    assert report.final_rb["a"] == ["C @ f"]


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
    session = sim.sessions["a:1"]
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


def test_starbucks_conservation_copies():
    report = Simulation(parse_scenario(builtin_scenario("starbucks"))).run(10_000)
    assert report.quiescent
    coffee_wins = [w for w in report.heuristic_wins if w.atom == "C"]
    dollar_wins = [w for w in report.heuristic_wins if w.atom == "D"]
    assert len(coffee_wins) == 10
    assert len(dollar_wins) == 10
    original_coffees = {w.payloads for w in coffee_wins}
    original_dollars = {w.payloads for w in dollar_wins}
    sim = Simulation(parse_scenario(builtin_scenario("starbucks")))
    sim.run(10_000)
    for qid, session in sim.sessions.items():
        for binding in session.bindings.values():
            run = session.local_run(binding.spec, binding.polarity)
            payloads = tuple(m.payload for m in run if not m.is_choice())
            if not binding.game.complete(run):
                continue
            pool = original_coffees if binding.game.name == "coffee" else original_dollars
            assert payloads in pool, (qid, binding.spec, payloads)


def test_no_labmove_delivered_to_god():
    sim = Simulation(parse_scenario(builtin_scenario("starbucks")))
    sim.run(10_000)
    assert "God" not in sim.bus.arrivals
    assert all(to != "God" for (_frm, to) in sim.bus.channels)
