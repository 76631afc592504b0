"""A run owes the same work however many sessions carry it out: what a
session dispatches, and what it briefs, comes from the journal alone."""

from __future__ import annotations

import pytest

import conftest
from conftest import run_in_sessions
from gatework.model import AgentRole

R = AgentRole

_IMPLEMENTATION = "write implementation.md <<EOF\n# Implementation\n\nFiles changed: core module.\nEOF\n"

#: workflow 9's builder: completes, then HOLDs in the fix a BLOCK routes to it
BUILDER_FIX_HOLDS = (
    _IMPLEMENTATION + "complete\n---\n"
    'signal HOLD "which variance estimator should the fix patch?"\n---\n'
    + _IMPLEMENTATION + "complete\n"
)

#: workflow 9's builder: completes, then fails its contract in the fix
BUILDER_FIX_FAILS = _IMPLEMENTATION + "complete\n---\ncomplete\n---\n" + _IMPLEMENTATION + "complete\n"

#: workflow 2's builder: fails its contract once, then completes
BUILDER_FAILS_ONCE = "complete\n---\n" + _IMPLEMENTATION + "complete\n"

#: workflow 9's tester: BLOCKs once, then completes
TESTER_BLOCKS_ONCE = conftest.tester_script(blocks=1)

#: workflow 1's simulator: HOLDs once, then completes
SIMULATOR_HOLDS_ONCE = 'signal HOLD "which data-generating process?"\n---\n' + conftest.simulator_script()

BLOCK_DETAILS = "validation failure details: placebo test failure: no improvement over baseline"


def _history_times(run_dir) -> list[str]:
    return [e["time"] for e in run_dir.events() if e["event"] in ("transition", "signal")]


def test_an_answer_to_a_block_fix_reaches_the_fix_before_the_tester(tmp_path):
    run = run_in_sessions(
        tmp_path, 9, split=True, answers=("patch the variance",),
        scripts={R.BUILDER: BUILDER_FIX_HOLDS, R.TESTER: TESTER_BLOCKS_ONCE},
    )
    first, last = run.reports[0], run.reports[-1]
    assert first.pending == "which variance estimator should the fix patch?"
    assert last.final_state == "PIPELINES_COMPLETE" and last.exit_code == 0
    assert run.outcomes() == [
        ("builder", "completed"), ("tester", "BLOCK"), ("builder", "HOLD"),
        ("builder", "completed"), ("tester", "completed"),
    ]
    resumed_fix = run.briefings[3]
    assert resumed_fix[0] == "builder"
    assert BLOCK_DETAILS in resumed_fix[1]
    assert "user answer: patch the variance" in resumed_fix[1]
    # the fix's completion clears its lines: the tester's re-run is briefed plainly
    assert "user answer" not in run.briefings[4][1]


def test_a_failed_block_fix_is_dispatched_again_before_the_tester(tmp_path):
    run = run_in_sessions(
        tmp_path, 9, split=True,
        scripts={R.BUILDER: BUILDER_FIX_FAILS, R.TESTER: TESTER_BLOCKS_ONCE},
    )
    failed, resumed = run.reports
    assert "without contracted artifact(s): ['implementation.md']" in failed.diagnostics["builder"]
    assert failed.exit_code == 4
    assert resumed.final_state == "PIPELINES_COMPLETE" and resumed.exit_code == 0
    assert run.outcomes() == [
        ("builder", "completed"), ("tester", "BLOCK"), ("builder", "failed"),
        ("builder", "completed"), ("tester", "completed"),
    ]
    # the failed fix leaves the BLOCK's details in place for the next one
    assert BLOCK_DETAILS in run.briefings[2][1] and BLOCK_DETAILS in run.briefings[3][1]
    assert resumed.dispatch_counts == {"builder": 3, "tester": 2}


def test_a_block_beside_a_failed_dispatch_is_journaled_before_the_halt(tmp_path):
    run = run_in_sessions(
        tmp_path, 2, split=False, authorization="tok",
        scripts={R.BUILDER: BUILDER_FAILS_ONCE, R.TESTER: TESTER_BLOCKS_ONCE},
    )
    failed, resumed = run.reports
    assert "without contracted artifact(s): ['implementation.md']" in failed.diagnostics["builder"]
    assert failed.retries["BLOCK"] == 1
    assert failed.signals == [
        {"kind": "BLOCK", "raiser": "tester", "payload": "placebo test failure: no improvement over baseline"}
    ]
    assert resumed.final_state == "DONE" and resumed.exit_code == 0
    assert resumed.retries["BLOCK"] == 1 and resumed.signals == failed.signals
    # the BLOCK's fix and re-validation run in the resumed session
    assert run.outcomes()[1:5] == [
        ("builder", "failed"), ("tester", "BLOCK"), ("builder", "completed"), ("tester", "completed"),
    ]


SCENARIOS = {
    "workflow 9 BLOCK fix HOLDs": (
        9, ("patch the variance",),
        {"scripts": {R.BUILDER: BUILDER_FIX_HOLDS, R.TESTER: TESTER_BLOCKS_ONCE}},
    ),
    "workflow 2 builder HOLD": (2, ("use defaults",), {"builder_holds": 1, "authorization": "tok"}),
    "workflow 2 HOLD and BLOCK in one batch": (
        2, ("use defaults",), {"builder_holds": 1, "tester_blocks": 1, "authorization": "tok"},
    ),
    "workflow 1 two HOLDs in one batch": (
        1, ("use defaults", "a normal DGP"),
        {"builder_holds": 1, "scripts": {R.SIMULATOR: SIMULATOR_HOLDS_ONCE}},
    ),
    "workflow 9 two HOLDs": (9, ("scale 0.4", "seed 7"), {"builder_holds": 2}),
    "workflow 1 HOLD, 3 BLOCKs, STOP": (
        1, ("use the reference implementation",),
        {"planner_holds": 1, "tester_blocks": 3, "reviewer_stops": 1},
    ),
    "workflow 2 failed dispatch beside a BLOCK": (
        2, (), {"scripts": {R.BUILDER: BUILDER_FAILS_ONCE, R.TESTER: TESTER_BLOCKS_ONCE}, "authorization": "tok"},
    ),
    "workflow 9 failed fix": (
        9, (), {"scripts": {R.BUILDER: BUILDER_FIX_FAILS, R.TESTER: TESTER_BLOCKS_ONCE}},
    ),
}


@pytest.mark.parametrize("name", SCENARIOS)
def test_a_run_split_into_sessions_does_what_one_session_does(tmp_path, name):
    workflow_id, answers, kwargs = SCENARIOS[name]
    joined, split = (
        run_in_sessions(tmp_path / mode, workflow_id, split=mode == "split", answers=answers, **kwargs)
        for mode in ("joined", "split")
    )
    assert len(split.reports) == len(joined.reports) + len(answers)
    assert split.outcomes() == joined.outcomes()
    assert split.briefings_by_role() == joined.briefings_by_role()

    def journal(run):
        return [
            {k: v for k, v in e.items() if k != "time"} for e in run.run_dir.events() if e["event"] != "halt"
        ]

    assert journal(split) == journal(joined)
    for run in (joined, split):
        assert _history_times(run.run_dir) == sorted(_history_times(run.run_dir))
    fields = ("final_state", "visited_states", "retries", "signals", "dispatch_counts", "artifacts")
    assert [getattr(split.reports[-1], f) for f in fields] == [getattr(joined.reports[-1], f) for f in fields]

