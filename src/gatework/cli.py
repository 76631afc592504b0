"""Terminal surface: start runs, answer pending questions, authorize
shipping, inspect run state, lint workspaces, and replay recorded runs.

Exit codes: 0 success, 2 gate violation, 3 escalation, 4 environment
failure. The output of a command that runs a session of a run (``run``,
``answer``, ``authorize``), and ``authorize``'s refusal of a run that is
not ready, are mirrored to ``<run>/logs/cli.log``; nothing else is.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import traceback
from pathlib import Path
from typing import NamedTuple

from gatework.clock import Clock, SystemClock, TickClock
from gatework.errors import GateworkError, HoldUnanswered, MisconfigurationError, RunDirectoryError
from gatework.gitlayer import SubprocessGit
from gatework.model import AgentRole, WorkflowState, workflow_by_id
from gatework.orchestrator import (
    ChannelMode,
    Orchestrator,
    UserChannel,
    build_report,
    check_single_run,
    select_workflow,
    start_run,
)
from gatework.rundir import RunDirectory, write_whole
from gatework.runtime import AgentBackend, BackendKind, load_backends
from gatework.statemachine import RunState, reconstruct_run_state
from gatework.workspace import WorkspaceLayout, validate_workspace

WORKSPACE_ENV = "GATEWORK_WORKSPACE"

EXIT_OK = 0
EXIT_GATE = 2
EXIT_ESCALATION = 3
EXIT_ENVIRONMENT = 4


class _Console:
    """Print wrapper that keeps a command's output, for the commands that
    mirror it to the run's cli.log (see the module docstring)."""

    def __init__(self) -> None:
        self.lines: list[str] = []

    def echo(self, message: str = "") -> None:
        self.lines.append(message)
        print(message)

    def flush_to(self, run_dir: RunDirectory | None) -> None:
        """Append this command's output, after that of earlier commands on
        the same run."""
        if run_dir is None or not run_dir.path.exists():
            return
        run_dir.logs_dir.mkdir(exist_ok=True)
        with open(run_dir.logs_dir / "cli.log", "a", encoding="utf-8") as fh:
            fh.write("\n".join(self.lines) + "\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gatework", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="start a workflow run against a target repository")
    run.add_argument("--repo", required=True, help="target repository path")
    run.add_argument("--directive", default="", help="natural-language task directive")
    run.add_argument("--workflow", type=int, default=None, help="manual workflow override (1..10)")
    run.add_argument("--backends", required=True, help="backend config JSON path")
    run.add_argument("--answers", default=None, help="scripted answers file (one per line)")
    run.add_argument("--workspace", default=None, help=f"workspace root (or ${WORKSPACE_ENV})")
    run.add_argument("--runs-root", default=None, help="where run directories go (default: workspace runs/)")
    run.add_argument(
        "--deterministic",
        action="store_true",
        help="use a tick clock for byte-identical replays (default for all-scripted backends)",
    )

    answer = sub.add_parser("answer", help="answer a run's pending question and resume it")
    answer.add_argument("--run", required=True, help="run directory")
    answer.add_argument("text", help="the answer")

    authorize = sub.add_parser("authorize", help="authorize shipping for a READY_TO_SHIP run")
    authorize.add_argument("--run", required=True, help="run directory")
    authorize.add_argument("--yes", action="store_true", help="authorize without prompting")

    status = sub.add_parser("status", help="show a run's state, retries, and artifacts")
    status.add_argument("--run", required=True, help="run directory")

    validate = sub.add_parser("validate", help="lint a workspace repository layout")
    validate.add_argument("--workspace", default=None, help=f"workspace root (or ${WORKSPACE_ENV})")
    validate.add_argument("--repo-name", required=True, help="per-repo subdirectory to lint")

    replay = sub.add_parser("replay", help="re-run a recorded scripted run and compare reports")
    replay.add_argument("--run", required=True, help="run directory holding report.json + run-config.json")

    return parser


def _workspace_root(flag: str | None) -> Path | None:
    raw = flag or os.environ.get(WORKSPACE_ENV)
    return Path(raw).resolve() if raw else None


class _NoSuchRun(Exception):
    """A command names a run directory that does not exist."""


def _open_run(run_dir: RunDirectory) -> tuple[dict, RunState]:
    """The recorded run's config and the run as its journal records it:
    all that a command reads back of a run it resumes, shows or replays."""
    if not run_dir.path.is_dir():
        raise _NoSuchRun(run_dir.path)
    config_path = run_dir.path / "run-config.json"
    if not config_path.exists():
        raise MisconfigurationError(f"no run-config.json in {run_dir.path}")
    try:
        config = json.loads(config_path.read_text(encoding="utf-8"))
    except ValueError as exc:  # cut short, in a token or inside a character
        raise RunDirectoryError(f"{config_path} does not parse: {exc}") from None
    if not isinstance(config, dict) or not {"workflow_id", "backends"} <= config.keys():
        raise RunDirectoryError(f"{config_path} does not hold a workflow_id and backends")
    try:
        workflow = workflow_by_id(config["workflow_id"])
    except (ValueError, TypeError) as exc:  # an id the catalog lacks, or no id at all
        raise RunDirectoryError(f"{config_path} does not name a workflow of the catalog: {exc}") from None
    return config, reconstruct_run_state(run_dir, workflow)


class _SessionInputs(NamedTuple):
    """What one session of a run runs with."""

    backends: dict[AgentRole, AgentBackend]
    channel: UserChannel
    clock: Clock


def _session_inputs(config: dict, answers: list[str] | None, console: _Console) -> _SessionInputs:
    """The inputs of a session of the run ``config`` records. Scripted
    answers, when given, replace the interactive prompt; a run of scripted
    backends only is scripted and deterministic throughout."""
    backends = load_backends(Path(config["backends"]))
    all_scripted = bool(backends) and all(b.kind is BackendKind.SCRIPTED for b in backends.values())
    mode = ChannelMode.SCRIPTED_ANSWERS if (answers is not None or all_scripted) else ChannelMode.INTERACTIVE
    channel = UserChannel(mode=mode, answers=answers or (), output_fn=console.echo)
    clock = TickClock() if config.get("deterministic") or all_scripted else SystemClock()
    return _SessionInputs(backends, channel, clock)


def _run_session(
    console: _Console,
    run_dir: RunDirectory,
    config: dict,
    inputs: _SessionInputs,
    authorization: str | None = None,
) -> int:
    """Run one session of the run ``config`` records, echo its report and
    mirror the command's output to the run's cli.log, however the session
    ends: a crash exits with the report's code, and an interrupt goes on."""
    repo = Path(config["target_repo"])
    workspace = None
    if config.get("workspace"):
        workspace = WorkspaceLayout(root=Path(config["workspace"]), repo_name=repo.name).ensure()
    session = Orchestrator(
        run_dir=run_dir,
        request_id=run_dir.path.name,
        workflow=workflow_by_id(config["workflow_id"]),
        backends=inputs.backends,
        channel=inputs.channel,
        target_repo=repo,
        git=SubprocessGit(),
        clock=inputs.clock,
        workspace=workspace,
        directive=config["directive"],
    )
    ended = None
    try:
        report = session.run(authorization=authorization)
    except BaseException as exc:
        # once it has read its journal, a session journals why it ended
        if session.run_state.halt is None:
            raise
        report = build_report(session.run_state, run_dir, run_dir.path.name, config["directive"])
        ended = exc
    console.echo(report.render_text().rstrip("\n"))
    console.flush_to(run_dir)
    if isinstance(ended, Exception):  # a crash: its traceback goes to stderr
        traceback.print_exception(ended)
    elif ended is not None:  # an interrupt goes on
        raise ended
    return report.exit_code


def cmd_run(args: argparse.Namespace, console: _Console) -> int:
    if not args.directive and args.workflow is None:
        console.echo("run requires --directive or --workflow")
        return EXIT_GATE
    repo = Path(args.repo)
    if not repo.is_dir():
        console.echo(f"[environment] target repository not resolvable: {repo}")
        return EXIT_ENVIRONMENT
    repo = repo.resolve()
    workspace_root = _workspace_root(args.workspace)
    config = {
        "directive": args.directive,
        "target_repo": str(repo),
        "backends": str(Path(args.backends).resolve()),
        "workspace": str(workspace_root) if workspace_root else None,
        "deterministic": args.deterministic,
    }
    try:
        answers = _read_answers(Path(args.answers)) if args.answers else None
    except (OSError, ValueError) as exc:
        console.echo(f"[environment] cannot read answers file: {exc}")
        return EXIT_ENVIRONMENT
    inputs = _session_inputs(config, answers, console)
    try:
        workflow = select_workflow(args.directive, args.workflow, channel=inputs.channel)
        check_single_run(workflow)
    except HoldUnanswered as exc:
        console.echo(f"[escalation] {exc.question}")
        return EXIT_ESCALATION
    except MisconfigurationError as exc:  # an unknown or wrapper workflow
        console.echo(str(exc))
        return EXIT_GATE
    # an answer that picked the workflow is not one the sessions are given
    config.update(
        workflow_id=workflow.id,
        deterministic=isinstance(inputs.clock, TickClock),
        answers=list(inputs.channel.answers),
    )
    if args.runs_root:
        runs_root = Path(args.runs_root).resolve()
    elif workspace_root is not None:
        runs_root = WorkspaceLayout(root=workspace_root, repo_name=repo.name).runs_dir
    else:
        runs_root = Path.cwd() / "runs"
    try:
        run_dir, _ = start_run(
            runs_root=runs_root,
            target_repo=repo,
            directive=args.directive,
            workflow=workflow,
            git=SubprocessGit(),
            clock=inputs.clock,
        )
    except GateworkError as exc:
        console.echo(f"[environment] {exc}")
        return EXIT_ENVIRONMENT
    write_whole(run_dir.path / "run-config.json", json.dumps(config, indent=2, sort_keys=True) + "\n")
    return _run_session(console, run_dir, config, inputs)


def _read_answers(path: Path) -> list[str]:
    return [line for line in path.read_text(encoding="utf-8").splitlines() if line]


def cmd_answer(args: argparse.Namespace, console: _Console) -> int:
    run_dir = RunDirectory(Path(args.run))
    config, run_state = _open_run(run_dir)
    # only an unanswered question halts with both; the resumed session
    # gets the new answer for it and journals it
    halt = run_state.halt or {}
    if not (halt.get("escalation") and halt.get("pending")):
        console.echo("answer requires an active run with a pending question")
        return EXIT_GATE
    console.echo(f"resuming run {run_dir.path.name} with the answer")
    return _run_session(console, run_dir, config, _session_inputs(config, [args.text], console))


def cmd_authorize(args: argparse.Namespace, console: _Console) -> int:
    """Resume a READY_TO_SHIP run with the user's authorization; the
    resumed session's ship gate checks the verdict and credentials.md
    before it dispatches the shipper, and the report is rewritten."""
    run_dir = RunDirectory(Path(args.run))
    config, run_state = _open_run(run_dir)
    state = run_state.current
    if state is not WorkflowState.READY_TO_SHIP:
        # a plain resume would dispatch the run's unfinished stages
        console.echo(f"ship refused: run is at {state.value}, not READY_TO_SHIP")
        console.flush_to(run_dir)
        return EXIT_GATE
    if not (args.yes or UserChannel(output_fn=console.echo).authorizes_shipping()):
        console.echo("shipping not authorized")
        return EXIT_GATE
    inputs = _session_inputs(config, None, console)
    return _run_session(console, run_dir, config, inputs, authorization="explicit-user-authorization")


def cmd_status(args: argparse.Namespace, console: _Console) -> int:
    run_dir = RunDirectory(Path(args.run))
    config, run_state = _open_run(run_dir)
    report = build_report(run_state, run_dir, run_dir.path.name, config["directive"])
    console.echo(report.render_text().rstrip("\n"))
    return EXIT_OK


def cmd_validate(args: argparse.Namespace, console: _Console) -> int:
    root = _workspace_root(args.workspace)
    if root is None or not root.is_dir():
        console.echo(f"[environment] workspace root not found: {root}")
        return EXIT_ENVIRONMENT
    layout = WorkspaceLayout(root=root, repo_name=args.repo_name)
    violations = validate_workspace(layout, git=SubprocessGit())
    if not violations:
        console.echo("workspace clean")
        return EXIT_OK
    for violation in violations:
        console.echo(f"violation: {violation}")
    return EXIT_GATE


def cmd_replay(args: argparse.Namespace, console: _Console) -> int:
    """Start the recorded run afresh under its request id and run one
    session, as ``run`` does, then compare what the two wrote."""
    run_dir = RunDirectory(Path(args.run))
    if not run_dir.report_json_path.exists():
        console.echo(f"[environment] no recorded report under {run_dir.path}")
        return EXIT_ENVIRONMENT
    config, _ = _open_run(run_dir)
    if not config.get("deterministic"):
        console.echo("[environment] run was not recorded deterministically; cannot replay")
        return EXIT_ENVIRONMENT
    config = {**config, "workspace": None}
    quiet = _Console()  # replay output is not mirrored into the original run
    inputs = _session_inputs(config, config.get("answers") or None, quiet)
    with tempfile.TemporaryDirectory() as tmp:
        try:
            replayed, _ = start_run(
                runs_root=Path(tmp),
                target_repo=Path(config["target_repo"]),
                directive=config["directive"],
                workflow=workflow_by_id(config["workflow_id"]),
                git=SubprocessGit(),
                clock=inputs.clock,
                request_id=run_dir.path.name,  # as every resume takes it
            )
        except GateworkError:
            console.echo("[environment] replay produced no run directory")
            return EXIT_ENVIRONMENT
        code = _run_session(quiet, replayed, config, inputs)
        # the report, and the journal that says why each session ended
        differing = [
            name
            for name in (run_dir.report_json_path.name, run_dir.journal_path.name)
            if (run_dir.path / name).read_bytes() != (replayed.path / name).read_bytes()
        ]
    if not differing:
        console.echo(f"replay identical (exit {code})")
        return EXIT_OK
    console.echo("replay DIFFERS from the recorded run: " + ", ".join(differing))
    return EXIT_GATE


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    console = _Console()
    handlers = {
        "run": cmd_run,
        "answer": cmd_answer,
        "authorize": cmd_authorize,
        "status": cmd_status,
        "validate": cmd_validate,
        "replay": cmd_replay,
    }
    try:
        return handlers[args.command](args, console)
    except _NoSuchRun as exc:
        console.echo(f"[environment] no such run: {exc}")
        return EXIT_ENVIRONMENT
    except GateworkError as exc:
        console.echo(f"[error] {exc}")
        return EXIT_ENVIRONMENT


if __name__ == "__main__":
    sys.exit(main())
