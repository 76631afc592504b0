"""The session protocol checked without git or files.

``next_step`` reads what a session does next from the journal's fold
alone, so the protocol can be explored exhaustively: every trace of every
single-run workflow, each step read from ``next_step`` and journaled
through the engine's own ``journal_batch``, ``reach``, ``advance`` and
``record_event`` into a run directory held in memory. The explorer draws
only what agents, the user, the mechanical review and git decide, and
checks the protocol's invariants on every step of every trace."""

from __future__ import annotations

import itertools
import os
from collections import Counter, deque
from pathlib import Path
from typing import NamedTuple

import pytest

from gatework.barrier import DEFAULT_ACCESS_MATRIX
from gatework.clock import TickClock
from gatework.errors import DispatchError, GateworkError
from gatework.model import (
    SIGNAL_OWNERS,
    STOP_ROUTING_TARGETS,
    AgentOutcome,
    AgentRole,
    ArtifactKind,
    Signal,
    SignalKind,
    VerdictValue,
    WorkflowState,
    contracted_artifacts,
    state_order,
    terminal_state,
    workflow_by_id,
)
from gatework.orchestrator import DispatchPlan, compile_plan, journal_batch, next_step, reach, route_signal
from gatework.statemachine import RETRY_LIMIT, RunState, advance, reconstruct_run_state, record_event

R, K, S = AgentRole, ArtifactKind, WorkflowState
CLOCK = TickClock()

#: the single-run workflows; 4 and 8 wrap one of them
SINGLE_RUN = (1, 2, 3, 5, 6, 7, 9, 10)


# --- next_step, one case per step kind --------------------------------------


def _run(workflow_id: int, current: WorkflowState, done=(), **fields) -> RunState:
    run = RunState(workflow_by_id(workflow_id), current)
    run.done = set(done)
    for name, value in fields.items():
        setattr(run, name, value)
    return run


_HOLD = {"event": "signal", "kind": "HOLD", "raiser": "builder", "payload": "which estimator?"}
_ALL_BUT_SHIPPER = (R.PLANNER, R.BUILDER, R.TESTER, R.SCRIBER, R.REVIEWER)

NEXT_STEP_CASES = {
    "a pending HOLD is asked before anything else": (
        _run(2, S.SPEC_READY, done=(R.PLANNER,), pending_hold=[_HOLD], owed=[(R.BUILDER,)]), False,
        ("ask", _HOLD),
    ),
    "a fresh run reaches the entry gate": (
        _run(2, S.CREDENTIALS_VERIFIED), False, ("reach", (S.PLANNED, "entry gate")),
    ),
    "a fresh run dispatches its first stage": (_run(2, S.PLANNED), False, ("dispatch", (R.PLANNER,))),
    "owed work goes before the roles not done": (
        _run(2, S.SPEC_READY, done=(R.PLANNER,), owed=[(R.BUILDER,), (R.TESTER,)]), False,
        ("dispatch", (R.BUILDER,)),
    ),
    "a done stage's gate is reached": (
        _run(2, S.PLANNED, done=(R.PLANNER,)), False, ("reach", (S.SPEC_READY, "stage 0 complete")),
    ),
    "a STOP rewind dispatches the first stage not done": (
        _run(1, S.DOCUMENTED, done=(R.PLANNER, R.TESTER, R.SIMULATOR, R.REVIEWER)), False,
        ("dispatch", (R.BUILDER,)),
    ),
    "a session that has not reviewed re-runs the review at READY_TO_SHIP": (
        _run(2, S.READY_TO_SHIP, done=_ALL_BUT_SHIPPER), False, ("review", None),
    ),
    "a reviewed run at READY_TO_SHIP ships": (
        _run(2, S.READY_TO_SHIP, done=_ALL_BUT_SHIPPER), True, ("ship", None),
    ),
    "a shipped run ends": (_run(2, S.DONE, done=(*_ALL_BUT_SHIPPER, R.SHIPPER)), True, None),
    "a run at its terminal state ends": (
        _run(9, S.PIPELINES_COMPLETE, done=(R.BUILDER, R.TESTER)), False, None,
    ),
}


@pytest.mark.parametrize("name", NEXT_STEP_CASES)
def test_next_step(name):
    run, reviewed, expected = NEXT_STEP_CASES[name]
    assert next_step(run, compile_plan(run.workflow), reviewed) == expected


# --- the explorer -----------------------------------------------------------


_DEVNULL = Path(os.devnull)


class MemoryRunDirectory:
    """What the journal and the gates read of a run directory, held in
    memory: the journal's records, the artifacts present and review.md's
    verdict. ``status.md``, which nothing reads back, is the null device."""

    def __init__(self) -> None:
        self.records: list[dict] = []
        # the leader's own artifacts, credentials.md included: the target is a repository
        self.artifacts = {K.REQUEST, K.IMPACT, K.CREDENTIALS}
        self.verdict: VerdictValue | None = None

    def append_events(self, records) -> None:
        self.records.extend(records)

    def events(self) -> list[dict]:
        return list(self.records)

    def check_readable(self) -> None:
        pass

    def exists(self, kind: ArtifactKind) -> bool:
        return kind in self.artifacts

    def has_passing_verdict(self) -> bool:
        return self.verdict is not None and self.verdict.passing

    def artifact_path(self, kind: ArtifactKind) -> Path:
        return _DEVNULL


class Node:
    """One state of a run between two steps, and the first trace that
    reached it (the shortest: the search is breadth first)."""

    def __init__(self, run: RunState, run_dir: MemoryRunDirectory, reviewed: bool, trace: tuple):
        self.run, self.run_dir, self.reviewed, self.trace = run, run_dir, reviewed, trace

    def key(self) -> tuple:
        """What the protocol's next steps depend on: the fold's protocol
        fields, the artifacts present, the verdict and ``reviewed``; not
        the dispatch counts, which failed dispatches raise without end."""
        run = self.run
        return (
            run.current, tuple(run.retries.values()), tuple(hold["raiser"] for hold in run.pending_hold),
            frozenset(run.done), tuple(run.owed), run.merging,
            frozenset(self.run_dir.artifacts), self.run_dir.verdict, self.reviewed,
        )

    def child(self, taken: tuple) -> "Node":
        """A copy to take one more step in, ``taken`` being the step and
        its draw; records, which nothing changes once made, are shared."""
        run = object.__new__(RunState)
        run.__dict__.update((name, _copied(value)) for name, value in vars(self.run).items())
        run_dir = object.__new__(MemoryRunDirectory)
        run_dir.__dict__.update((name, _copied(value)) for name, value in vars(self.run_dir).items())
        return Node(run, run_dir, self.reviewed, (*self.trace, taken))


def _copied(value):
    """``value`` with its lists, sets and dicts of lists copied."""
    if isinstance(value, (list, set)):
        return value.copy()
    if isinstance(value, dict):
        return {key: item.copy() if isinstance(item, list) else item for key, item in value.items()}
    return value


class Draw(NamedTuple):
    """One outcome of one dispatch: what ``_dispatch_role`` returns or
    raises, whose outcome holds the artifacts it wrote, and the verdict of
    the review.md it wrote, if any."""

    label: str
    result: object
    verdict: VerdictValue | None = None


def role_draws(role: AgentRole, plan: DispatchPlan) -> list[Draw]:
    """Every outcome a dispatch of ``role`` can have: completed (the
    reviewer's with a PASS or a STOP verdict), each signal the role owns,
    and failed. A BLOCK names the simulation pipeline or none; a STOP
    routes to each target the workflow has, one it lacks, and none."""
    roles = plan.workflow.roles()
    completed = (AgentOutcome(artifacts=dict.fromkeys(contracted_artifacts(role, plan.workflow), "")), None)
    verdicts = (VerdictValue.PASS, VerdictValue.STOP) if role is R.REVIEWER else (None,)
    outcomes = [Draw(f"completed {v.value}" if v else "completed", completed, v) for v in verdicts]
    targets = [*sorted(STOP_ROUTING_TARGETS & roles), *sorted(STOP_ROUTING_TARGETS - roles)[:1]]
    payloads = {
        SignalKind.HOLD: ["which variant?"],
        SignalKind.BLOCK: ["tests fail", "tests fail\npipeline: simulation"],
        SignalKind.STOP: [*(f"target: {target.value}" for target in targets), "no target"],
    }
    for kind, owners in SIGNAL_OWNERS.items():
        for payload in payloads[kind] if role in owners else ():
            signal = Signal(kind, role, payload)
            try:  # as _dispatch_role routes it: an unroutable signal fails the dispatch
                result = (AgentOutcome(signal), route_signal(signal, plan))
            except GateworkError as exc:
                result = exc
            outcomes.append(Draw(f"{kind.value} {payload!r}", result))
    outcomes.append(Draw("failed", DispatchError(f"{role.value} failed")))
    return outcomes


def draws(step: tuple, by_role: dict[AgentRole, list[Draw]]) -> list:
    """What the user, the agents, the review or git decide at ``step``."""
    kind, argument = step
    if kind == "ask":
        return ["answered", "unanswered"]
    if kind == "dispatch":
        return list(itertools.product(*(by_role[role] for role in argument)))
    if kind == "review":
        return ["passed", "failed"]
    if kind == "ship":
        return ["refused", "shipper failed", "git failed", "shipped"]
    return [None]  # a gate is reached or not by what the run directory holds


def take(node: Node, step: tuple, draw) -> dict | None:
    """Carry out ``step`` as the engine does, with ``draw`` deciding what
    the engine does not: the fields of the halt it ends with, if any."""
    run, run_dir = node.run, node.run_dir
    kind, argument = step
    if kind == "ask":
        if draw == "unanswered":
            return {"escalation": "unanswered question", "pending": argument["payload"]}
        record_event(run, run_dir, "answer", {"role": argument["raiser"], "text": "an answer"})
    elif kind == "reach":
        return reach(run, run_dir, CLOCK, *argument)
    elif kind == "dispatch":
        for one in draw:  # each dispatch writes what it collected before the batch is journaled
            if not isinstance(one.result, GateworkError):
                run_dir.artifacts |= one.result[0].artifacts.keys()
            run_dir.verdict = one.verdict or run_dir.verdict
        batch = [(role, one.result, ()) for role, one in zip(argument, draw)]
        return journal_batch(run, run_dir, CLOCK, batch)
    elif kind == "review":
        node.reviewed = True
        record_event(run, run_dir, "review", {"passed": draw == "passed"})
        if draw == "failed":
            return {"gate_violation": "mechanical review failed"}
    else:  # ship, past the gate that refuses before the shipper is dispatched
        if draw == "refused":
            record_event(run, run_dir, "ship", {"shipped": False})
            return {"gate_violation": "ship refused"}
        shipper = DispatchError("shipper failed") if draw == "shipper failed" else (
            AgentOutcome(artifacts={K.SHIPPER: ""}), None)
        halt = journal_batch(run, run_dir, CLOCK, [(R.SHIPPER, shipper, ())])
        if halt:
            return halt
        run_dir.artifacts.add(K.SHIPPER)  # shipper.md says how far the ship got
        if draw == "git failed":
            record_event(run, run_dir, "ship", {"shipped": False})
            return {"gate_violation": "push failed"}
        assert advance(run, run_dir, CLOCK).satisfied
        record_event(run, run_dir, "ship", {"shipped": True})
    return None


def violations(before: Node, after: Node, step: tuple, halt: dict | None) -> list[str]:
    """The invariants one step breaks, given the node it left and the one
    it reached (its journal holds the halt, if the step halted)."""
    workflow, kind = before.run.workflow, step[0]
    records = after.run_dir.records[len(before.run_dir.records):]
    broken = []
    for record in records:
        if record["event"] == "transition":
            moved = (S(record["from"]), S(record["to"]))
            if moved[1] is not moved[0].successor or state_order(moved[1], terminal_state(workflow)) > 0:
                broken.append(f"transition {moved[0].value} -> {moved[1].value}")
    signals = {(r["raiser"], r["kind"]) for r in records if r["event"] == "signal"}
    if signals:
        # only a routed signal's record carries its routing
        routed = Counter(r["kind"] for r in after.run_dir.records if {"phases", "rewind"} & r.keys())
        broken += [f"{kind} routed {count} times" for kind, count in routed.items() if count > RETRY_LIMIT]
    broken += [
        f"{r['role']} raised {r['outcome']} but its batch journaled no such signal"
        for r in records
        if r["event"] == "dispatch" and r["outcome"] in SignalKind.__members__
        and (r["role"], r["outcome"]) not in signals
    ]
    if kind in ("dispatch", "ship") and before.run.current is S.DONE:
        broken.append("dispatched at DONE")
    events = [r["event"] for r in records]
    if "halt" in events and "dispatch" in events[events.index("halt"):]:
        broken.append("dispatched after a halt")
    for role in step[1] if kind == "dispatch" else (R.SHIPPER,) if kind == "ship" else ():
        # Base grants, not those at the run's state: a STOP that rewinds to the
        # planner or the pipeline stage re-dispatches the tester at DOCUMENTED,
        # where it is granted implementation.md and simulation.md while their
        # producers are not done, and so reads the previous round's outputs
        # (test_a_tester_re_dispatched_after_the_pipelines_may_read_their_outputs).
        producers = {k.producer for k in DEFAULT_ACCESS_MATRIX.grants_for(role) if k.producer is not role}
        if undone := producers & workflow.roles() - before.run.done:
            broken.append(f"{role.value} dispatched before {sorted(r.value for r in undone)} were done")
    if halt is not None and vars(reconstruct_run_state(after.run_dir, workflow)) != vars(after.run):
        broken.append("the journal's fold from scratch differs from the live fold")
    return broken


class Exploration(NamedTuple):
    states: int
    longest_session: int
    violations: list[str]


def explore(workflow_id: int) -> Exploration:
    """Walk every trace of a workflow's runs, breadth first, each session
    from its first step to its halt or its end; a halted session's run
    is resumed by a fresh one, as the CLI's ``answer`` and ``authorize``
    do. States are memoized on :meth:`Node.key`."""
    workflow = workflow_by_id(workflow_id)
    plan = compile_plan(workflow)
    by_role = {role: role_draws(role, plan) for role in workflow.roles()}
    start = Node(RunState(workflow), MemoryRunDirectory(), False, ())
    seen, queue, broken = {start.key()}, deque([start]), []
    steps: dict[tuple, set[tuple]] = {}  # each state's successors by a step that did not halt
    while queue:
        node = queue.popleft()
        step = next_step(node.run, plan, node.reviewed)
        if step is None:
            if node.run.current is not terminal_state(workflow):
                broken.append(f"ended at {node.run.current.value}; trace: {_describe(node.trace)}")
            continue
        for draw in draws(step, by_role):
            after = node.child((step, draw))
            halt = take(after, step, draw)
            if halt is not None:
                record_event(after.run, after.run_dir, "halt", halt)
                after.reviewed = False  # the next session starts afresh
            key = after.key()
            if halt is None:
                steps.setdefault(node.key(), set()).add(key)
            problems = violations(node, after, step, halt)
            broken += [f"{problem}; trace: {_describe(after.trace)}" for problem in problems]
            if key not in seen:
                seen.add(key)
                queue.append(after)
    return Exploration(len(seen), _longest_path(steps), broken)


def _describe(trace: tuple) -> str:
    """A trace as the steps it took, each with its draw."""
    steps = []
    for (kind, argument), draw in trace:
        if kind == "dispatch":
            drawn = (f"{role.value} {one.label}" for role, one in zip(argument, draw))
            steps.append("dispatch " + ", ".join(drawn))
        elif kind == "ask":
            steps.append(f"ask {argument['raiser']}: {draw}")
        elif kind == "reach":
            steps.append(f"reach {argument[0].value}")
        else:
            steps.append(f"{kind} {draw}")
    return " | ".join(steps)


def _longest_path(steps: dict[tuple, set[tuple]]) -> int:
    """The most steps a session can take without halting; raises on a
    cycle, which would be a session that never ends."""
    longest: dict[tuple, int] = {}
    on_path: set[tuple] = set()

    def walk(key: tuple) -> int:
        if key in on_path:
            raise AssertionError("a session can take steps without end")
        if key not in longest:
            on_path.add(key)
            longest[key] = max((1 + walk(after) for after in steps.get(key, ())), default=0)
            on_path.discard(key)
        return longest[key]

    return max(map(walk, list(steps)), default=0)


#: The states the explorer reaches in each workflow's runs. Workflows 2
#: and 5 share their dag. A change here is a change of the protocol, or of
#: what the explorer draws.
STATES = {1: 4031, 2: 1861, 3: 207, 5: 1861, 6: 17, 7: 7, 9: 113, 10: 2017}

#: No session takes more steps than this without halting; the longest,
#: in workflows 2 and 5, takes 35.
SESSION_STEPS = 40


@pytest.mark.parametrize("workflow_id", SINGLE_RUN)
def test_every_trace_of_a_workflow_keeps_the_protocol_invariants(workflow_id):
    exploration = explore(workflow_id)
    # breadth first, so the first listed are the shortest traces that break one
    assert not exploration.violations, "\n".join(exploration.violations[:5])
    assert exploration.longest_session <= SESSION_STEPS
    assert exploration.states == STATES[workflow_id]
