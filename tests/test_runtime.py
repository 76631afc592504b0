from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from conftest import process_ended
from gatework.barrier import create_plain_sandbox
from gatework.clock import TickClock
from gatework.errors import (
    BarrierError,
    ContractError,
    DispatchError,
    DispatchTimeout,
    MisconfigurationError,
    ProtocolError,
    ScenarioError,
)
from gatework.model import (
    AgentRole,
    ArtifactKind,
    OutcomeStatus,
    SignalKind,
    workflow_by_id,
)
from gatework.rundir import RunDirectory
from gatework.runtime import (
    BackendKind,
    CompleteStep,
    DispatchRequest,
    ReadStep,
    ScriptedBackend,
    SignalStep,
    SubprocessBackend,
    WriteStep,
    contracted_artifacts,
    dispatch,
    load_backends,
    parse_scenario,
    run_scripted,
)

K = ArtifactKind
R = AgentRole


def _request(tmp_path: Path, role: AgentRole, workflow_id: int, attempt: int = 1, deadline: float = 60.0):
    run_dir = RunDirectory(tmp_path / f"run-{role.value}-{attempt}-{os.urandom(3).hex()}").create()
    sandbox = create_plain_sandbox(role, run_dir=run_dir, clock=TickClock())
    return DispatchRequest(
        role=role,
        sandbox=sandbox,
        briefing="do the thing\n",
        workflow=workflow_by_id(workflow_id),
        deadline=deadline,
        attempt=attempt,
    )


# --- scenario parsing --------------------------------------------------------


def test_parse_scenario_directives_and_rounds():
    script = parse_scenario(
        "# a scripted tester\n"
        'signal BLOCK "first failure"\n'
        "---\n"
        "read test-spec.md\n"
        "write audit.md <<EOF\n"
        "| a | b |\n"
        "EOF\n"
        "complete\n"
    )
    assert len(script.rounds) == 2
    assert script.rounds[0] == (SignalStep(SignalKind.BLOCK, "first failure"),)
    assert script.rounds[1] == (
        ReadStep("test-spec.md"),
        WriteStep("audit.md", "| a | b |\n"),
        CompleteStep(),
    )
    # steps are tuples, equal to a step of another type with equal fields
    assert [[type(step) for step in steps] for steps in script.rounds] == [
        [SignalStep], [ReadStep, WriteStep, CompleteStep]
    ]
    # the last round repeats for extra dispatches
    assert script.round_for_attempt(1) == script.rounds[0]
    assert script.round_for_attempt(2) == script.rounds[1]
    assert script.round_for_attempt(7) == script.rounds[1]


def test_parse_scenario_heredoc_signal_payload():
    script = parse_scenario("signal STOP <<EOF\ntarget: scriber\ndetails here\nEOF\n")
    step = script.rounds[0][0]
    assert isinstance(step, SignalStep)
    assert step.payload == "target: scriber\ndetails here\n"


@pytest.mark.parametrize(
    "text",
    [
        "write spec.md <<EOF\nnever terminated\n",
        "complete\nwrite x.md <<EOF\nEOF\n",  # step after the round ended
        "frobnicate the widgets\n",
        "write spec.md\n",  # write without heredoc
        "signal WAT \"x\"\n",
        "write spec.md <<EOF\nEOF\n",  # no terminator at end of round
        'signal HOLD "a" "b"\n',
    ],
)
def test_parse_scenario_rejects_malformed_scripts(text):
    with pytest.raises(ScenarioError):
        parse_scenario(text)


def test_parse_scenario_rejects_escaping_paths():
    with pytest.raises(BarrierError):
        parse_scenario("write ../../etc/x <<EOF\nboom\nEOF\ncomplete\n")
    with pytest.raises(BarrierError):
        parse_scenario("read /etc/passwd\ncomplete\n")


# --- scripted replay ---------------------------------------------------------


def test_run_scripted_single_step_completion(tmp_path):
    req = _request(tmp_path, R.TESTER, 6)
    script = parse_scenario("write audit.md <<EOF\n| r | ok |\n| - | - |\nEOF\ncomplete\n")
    outcome = dispatch(req, ScriptedBackend(script))
    assert outcome.status is OutcomeStatus.COMPLETED
    assert outcome.produced == frozenset({K.AUDIT})
    assert (req.sandbox.path / "audit.md").read_text(encoding="utf-8") == "| r | ok |\n| - | - |\n"


def test_run_scripted_block_under_builder_is_protocol_violation(tmp_path):
    req = _request(tmp_path, R.BUILDER, 9)
    script = parse_scenario('signal BLOCK "not mine to raise"\n')
    with pytest.raises(ProtocolError, match="builder may not raise BLOCK"):
        dispatch(req, ScriptedBackend(script))


def test_run_scripted_hold_outcome(tmp_path):
    req = _request(tmp_path, R.BUILDER, 9)
    script = parse_scenario('signal HOLD "which covariance estimator?"\n')
    outcome = run_scripted(script, req)
    assert outcome.status is OutcomeStatus.SIGNALED
    assert outcome.signal.kind is SignalKind.HOLD
    assert outcome.signal.raiser is R.BUILDER
    assert outcome.signal.payload == "which covariance estimator?"


def test_run_scripted_is_byte_deterministic(tmp_path):
    script = parse_scenario(
        "write audit.md <<EOF\n| t | pass |\n| - | - |\nEOF\n"
        "write extra/notes.txt <<EOF\nscratch\nEOF\n"
        "complete\n"
    )
    trees = []
    outcomes = []
    for attempt in ("a", "b"):
        run_dir = RunDirectory(tmp_path / f"run-{attempt}").create()
        sandbox = create_plain_sandbox(R.TESTER, run_dir=run_dir, clock=TickClock())
        req = DispatchRequest(
            role=R.TESTER, sandbox=sandbox, briefing="b\n", workflow=workflow_by_id(6)
        )
        outcomes.append(dispatch(req, ScriptedBackend(script)))
        tree = {
            str(p.relative_to(sandbox.path)): p.read_bytes()
            for p in sorted(sandbox.path.rglob("*"))
            if p.is_file()
        }
        trees.append(tree)
    assert trees[0] == trees[1]
    assert outcomes[0].status == outcomes[1].status
    assert outcomes[0].produced == outcomes[1].produced


def test_scripted_rounds_follow_attempt_numbers(tmp_path):
    backend = ScriptedBackend.from_text(
        'signal BLOCK "first"\n---\nwrite audit.md <<EOF\n| ok |\n| - |\nEOF\ncomplete\n'
    )
    first = backend.execute(_request(tmp_path, R.TESTER, 6, attempt=1))
    assert first.status is OutcomeStatus.SIGNALED
    second = backend.execute(_request(tmp_path, R.TESTER, 6, attempt=2))
    assert second.status is OutcomeStatus.COMPLETED


def test_dispatch_request_validates_deadline_and_attempt(tmp_path):
    req = _request(tmp_path, R.TESTER, 6)
    with pytest.raises(ValueError):
        DispatchRequest(
            role=req.role, sandbox=req.sandbox, briefing="b", workflow=req.workflow, deadline=0
        )
    with pytest.raises(ValueError):
        DispatchRequest(
            role=req.role, sandbox=req.sandbox, briefing="b", workflow=req.workflow, attempt=0
        )


# --- artifact contracts -------------------------------------------------------


def test_contracted_artifacts_spec_examples():
    # in declaration order, which gate-violation texts list them in
    wf1 = workflow_by_id(1)
    assert contracted_artifacts(R.SCRIBER, wf1) == (K.ARCHITECTURE, K.LOG_ENTRY, K.DOCS)
    assert contracted_artifacts(R.SHIPPER, wf1) == ()  # shipper absent from workflow 1
    # oracle: planner products intersected with workflow-10 gate requirements
    wf10 = workflow_by_id(10)
    assert contracted_artifacts(R.PLANNER, wf10) == (K.COMPREHENSION, K.TEST_SPEC, K.SIM_SPEC)


def test_contracted_artifacts_docs_only_planner_owes_comprehension_only():
    wf3 = workflow_by_id(3)
    assert contracted_artifacts(R.PLANNER, wf3) == (K.COMPREHENSION,)


def test_contracted_artifacts_leader_is_misconfiguration():
    with pytest.raises(MisconfigurationError):
        contracted_artifacts(R.LEADER, workflow_by_id(1))


def test_dispatch_rejects_partial_completion(tmp_path):
    req = _request(tmp_path, R.SCRIBER, 1)
    backend = ScriptedBackend.from_text(
        "write Architecture.md <<EOF\ndiagrams\nEOF\ncomplete\n"
    )
    with pytest.raises(ContractError) as excinfo:
        dispatch(req, backend)
    assert "log-entry.md" in str(excinfo.value)
    assert "docs.md" in str(excinfo.value)


def test_dispatch_accepts_full_contract(tmp_path):
    req = _request(tmp_path, R.BUILDER, 9)
    backend = ScriptedBackend.from_text("write implementation.md <<EOF\nreport\nEOF\ncomplete\n")
    outcome = dispatch(req, backend)
    assert outcome.status is OutcomeStatus.COMPLETED
    assert outcome.produced == frozenset({K.IMPLEMENTATION})


def test_dispatch_wraps_backend_crash(tmp_path):
    class Exploding(ScriptedBackend):
        def execute(self, req, log_path=None):
            raise RuntimeError("kaboom")

    req = _request(tmp_path, R.BUILDER, 9)
    with pytest.raises(DispatchError) as excinfo:
        dispatch(req, Exploding.from_text("complete\n"))
    assert "kaboom" in str(excinfo.value)


# --- subprocess backend -------------------------------------------------------

_WRITER = (
    "import pathlib, sys\n"
    "text = sys.stdin.read()\n"
    "pathlib.Path('audit.md').write_text('| check | ok |\\n| - | - |\\n')\n"
    "print('working...')\n"
    "print('OUTCOME: COMPLETED')\n"
)

_SIGNALER = (
    "import pathlib\n"
    "pathlib.Path('question.txt').write_text('proposal scale?')\n"
    "print('OUTCOME: SIGNAL HOLD question.txt')\n"
)


def test_subprocess_backend_completion(tmp_path):
    req = _request(tmp_path, R.TESTER, 6)
    backend = SubprocessBackend(["python3", "-c", _WRITER])
    log_path = tmp_path / "tester.log"
    outcome = dispatch(req, backend, log_path=log_path)
    assert outcome.status is OutcomeStatus.COMPLETED
    assert outcome.produced == frozenset({K.AUDIT})
    assert "working..." in log_path.read_text(encoding="utf-8")


def test_subprocess_backend_completes_despite_a_non_utf8_byte(tmp_path):
    req = _request(tmp_path, R.REVIEWER, 7)
    backend = SubprocessBackend([
        "python3", "-c",
        "import pathlib, sys\n"
        "pathlib.Path('review.md').write_text('# Review\\n')\n"
        "sys.stdout.buffer.write(b'caf\\xe9\\nOUTCOME: COMPLETED\\n')\n",
    ])
    log_path = tmp_path / "logs" / "reviewer.log"
    log_path.parent.mkdir()
    outcome = dispatch(req, backend, log_path=log_path)
    assert outcome.status is OutcomeStatus.COMPLETED
    assert "caf\ufffd" in log_path.read_text(encoding="utf-8")


def test_subprocess_backend_signal_with_payload_file(tmp_path):
    req = _request(tmp_path, R.BUILDER, 9)
    outcome = dispatch(req, SubprocessBackend(["python3", "-c", _SIGNALER]))
    assert outcome.status is OutcomeStatus.SIGNALED
    assert outcome.signal.kind is SignalKind.HOLD
    assert outcome.signal.payload == "proposal scale?"


def test_subprocess_backend_signal_without_payload_file_is_a_dispatch_error(tmp_path):
    req = _request(tmp_path, R.BUILDER, 9)
    backend = SubprocessBackend(
        ["python3", "-c", "print('asking'); print('OUTCOME: SIGNAL HOLD question.txt')"]
    )
    with pytest.raises(DispatchError) as excinfo:
        dispatch(req, backend)
    assert "question.txt" in str(excinfo.value)
    assert "asking" in excinfo.value.captured


def test_subprocess_backend_timeout(tmp_path):
    req = _request(tmp_path, R.BUILDER, 9, deadline=0.5)
    backend = SubprocessBackend(["sh", "-c", "echo partial-output; echo on-stderr >&2; exec sleep 10"])
    log = tmp_path / "builder.log"
    with pytest.raises(DispatchTimeout) as excinfo:
        dispatch(req, backend, log_path=log)
    # the output read before the deadline is kept as text, and logged
    assert excinfo.value.captured == "partial-output\non-stderr\n"
    assert log.read_text(encoding="utf-8") == (
        "[attempt 1] sh -c 'echo partial-output; echo on-stderr >&2; exec sleep 10'\n"
        "partial-output\non-stderr\n\n"
    )


@pytest.mark.parametrize(
    "command,raised",
    [
        ("sleep 30 >/dev/null 2>&1 & echo $! > bg.pid; echo x > implementation.md; echo 'OUTCOME: COMPLETED'", None),
        ("sleep 30 >/dev/null 2>&1 & echo $! > bg.pid; exit 3", DispatchError),
        ("sleep 30 & echo $! > bg.pid; exec sleep 30", DispatchTimeout),
    ],
    ids=["returns", "fails", "times-out"],
)
def test_no_process_of_a_subprocess_dispatch_outlives_it(tmp_path, command, raised):
    req = _request(tmp_path, R.BUILDER, 9, deadline=1.0)
    backend = SubprocessBackend(["sh", "-c", command])
    if raised is None:
        assert dispatch(req, backend).status is OutcomeStatus.COMPLETED
    else:
        with pytest.raises(raised):
            dispatch(req, backend)
    assert process_ended(int((req.sandbox.path / "bg.pid").read_text(encoding="utf-8")))


def test_subprocess_backend_missing_outcome_line(tmp_path):
    req = _request(tmp_path, R.BUILDER, 9)
    backend = SubprocessBackend(["python3", "-c", "print('no outcome here')"])
    with pytest.raises(DispatchError):
        dispatch(req, backend)


def test_subprocess_backend_nonzero_exit_captures_output(tmp_path):
    req = _request(tmp_path, R.BUILDER, 9)
    backend = SubprocessBackend(["python3", "-c", "import sys; print('boom'); sys.exit(3)"])
    with pytest.raises(DispatchError) as excinfo:
        dispatch(req, backend)
    assert "boom" in excinfo.value.captured


# --- backend config -------------------------------------------------------------


def test_load_backends_resolves_relative_scripts(tmp_path):
    (tmp_path / "planner.script").write_text("complete\n", encoding="utf-8")
    config = tmp_path / "backends.json"
    config.write_text(
        '{"backends": {"planner": {"kind": "scripted", "script": "planner.script"},\n'
        '              "builder": {"kind": "subprocess", "command": ["python3", "-c", "pass"]}}}\n',
        encoding="utf-8",
    )
    backends = load_backends(config)
    assert isinstance(backends[R.PLANNER], ScriptedBackend)
    assert isinstance(backends[R.BUILDER], SubprocessBackend)


def test_every_backend_kind_loads_from_a_config_file(tmp_path):
    (tmp_path / "planner.script").write_text("complete\n", encoding="utf-8")
    specs = {
        BackendKind.SCRIPTED: {"kind": "scripted", "script": "planner.script"},
        BackendKind.SUBPROCESS: {"kind": "subprocess", "command": ["python3", "-c", "pass"]},
    }
    assert set(specs) == set(BackendKind)
    for kind, spec in specs.items():
        config = tmp_path / f"{kind.value}.json"
        config.write_text(json.dumps({"backends": {"planner": spec}}), encoding="utf-8")
        assert load_backends(config)[R.PLANNER].kind is kind


@pytest.mark.parametrize(
    "text,role",
    [
        ("[]", None),
        ('{"backends": {"planner": "scripted"}}', "planner"),
        ('{"backends": {"planner": {"kind": "scripted"}}}', "planner"),
        ('{"backends": {"planner": {"kind": "scripted", "script": "absent.script"}}}', "planner"),
        ('{"backends": {"builder": {"kind": "subprocess"}}}', "builder"),
        ('{"backends": {"builder": {"kind": "subprocess", "command": "echo hi"}}}', "builder"),
        ('{"backends": {"builder": {"kind": "subprocess", "command": []}}}', "builder"),
        ('{"backends": {"builder": {"kind": "subprocess", "command": ["echo", 1]}}}', "builder"),
    ],
    ids=["list", "string entry", "no script", "absent script", "no command", "string command",
         "empty command", "non-string argument"],
)
def test_load_backends_names_the_file_and_the_role_of_a_malformed_config(tmp_path, text, role):
    config = tmp_path / "backends.json"
    config.write_text(text, encoding="utf-8")
    with pytest.raises(MisconfigurationError) as excinfo:
        load_backends(config)
    assert str(config) in str(excinfo.value)
    if role is not None:
        assert role in str(excinfo.value)


def test_load_backends_rejects_unknown_role_and_kind(tmp_path):
    config = tmp_path / "bad.json"
    config.write_text('{"backends": {"wizard": {"kind": "scripted", "script": "x"}}}', encoding="utf-8")
    with pytest.raises(MisconfigurationError):
        load_backends(config)
    config.write_text('{"backends": {"planner": {"kind": "remote"}}}', encoding="utf-8")
    with pytest.raises(MisconfigurationError):
        load_backends(config)
