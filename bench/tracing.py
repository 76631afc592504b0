"""Span tracing from outside the program.

The traced run replaces each public function of a layer, at the name its
caller looks it up, with a wrapper that records a span: name, start,
end and parent. Git processes are counted by wrapping ``subprocess.run``
as ``gatework.gitlayer`` sees it. Spans stay in memory and are written
once, when the benchmark ends. ``layer_metrics`` turns one run's spans
into the per-layer numbers; a layer's self time is its span minus the
part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import subprocess
import threading
import time
from pathlib import Path


class Span:
    __slots__ = ("name", "parent", "start", "end", "value", "run")

    def __init__(self, name: str, parent: "Span | None", run: int) -> None:
        self.name = name
        self.parent = parent
        self.run = run
        self.start = self.end = 0.0
        self.value = None


def _git_failed(args, kwargs, result) -> int:
    return int(result is False or getattr(result, "ok", True) is False)


def _completed(args, kwargs, outcome) -> int:
    return int(outcome.status.value == "COMPLETED")


def _content_bytes(args, kwargs, result) -> int:
    content = args[2] if len(args) > 2 else kwargs["content"]
    return len(content.encode("utf-8"))


def _status_bytes(args, kwargs, result) -> int:
    run_dir = args[1] if len(args) > 1 else kwargs["run_dir"]
    return (run_dir.path / "status.md").stat().st_size


def _events_written(args, kwargs, result) -> int:
    return len(args[0].events())


def _events_audited(args, kwargs, result) -> int:
    logs = args[0] if args else kwargs["logs"]
    return sum(len(events) for events in logs.values())


_GIT_METHODS = (
    "is_repo", "worktree_add", "worktree_remove", "stage", "commit", "push",
    "ls_tracked", "remote_url", "default_branch",
)

#: (module, attribute path, span name, measure)
WRAPPED = (
    ("gatework.orchestrator", "select_workflow", "orchestrator.select_workflow", None),
    ("gatework.orchestrator", "compile_plan", "orchestrator.compile_plan", None),
    ("gatework.orchestrator", "start_run", "orchestrator.start_run", None),
    ("gatework.orchestrator", "Orchestrator.run", "orchestrator.run", None),
    ("gatework.orchestrator", "mechanical_review", "orchestrator.mechanical_review", None),
    ("gatework.orchestrator", "ship", "orchestrator.ship", None),
    ("gatework.orchestrator", "dispatch", "runtime.dispatch", _completed),
    ("gatework.runtime", "ScriptedBackend.execute", "runtime.execute", None),
    ("gatework.runtime", "SubprocessBackend.execute", "runtime.execute", None),
    ("gatework.orchestrator", "create_sandbox", "barrier.create_sandbox", None),
    ("gatework.orchestrator", "create_plain_sandbox", "barrier.create_plain_sandbox", None),
    ("gatework.orchestrator", "merge_access_logs", "barrier.merge_access_logs", None),
    ("gatework.orchestrator", "audit_isolation", "barrier.audit_isolation", _events_audited),
    ("gatework.barrier", "AuditLog.write_to", "barrier.write_to", _events_written),
    ("gatework.orchestrator", "advance", "statemachine.advance", None),
    ("gatework.orchestrator", "record_signal", "statemachine.record_signal", None),
    ("gatework.orchestrator", "write_status", "statemachine.write_status", _status_bytes),
    ("gatework.statemachine", "write_status", "statemachine.write_status", _status_bytes),
    ("gatework.rundir", "RunDirectory.write", "rundir.write", _content_bytes),
    ("gatework.rundir", "RunDirectory.exists", "rundir.exists", None),
    ("gatework.orchestrator", "detect_language", "workspace.detect_language", None),
    ("gatework.orchestrator", "sync_workspace", "workspace.sync_workspace", None),
    *(
        ("gatework.gitlayer", f"SubprocessGit.{m}", f"gitlayer.{m}", _git_failed)
        for m in _GIT_METHODS
    ),
)


class Tracer:
    """Records spans for one run at a time while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run_id = 0
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[Span] = []
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[Span]) -> Span | None:
        if stack:
            return stack[-1]
        # A stage worker thread starts with an empty stack; its spans
        # belong to whatever the main thread is blocked in.
        return self._main_stack[-1] if self._main_stack else None

    def wrap(self, name: str, fn, measure=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span = Span(name, tracer._parent(stack), tracer.run_id)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if measure is not None:
                span.value = measure(args, kwargs, result)
            return result

        return wrapper

    def open_run(self) -> Span:
        """Start the root span of the next run on the main thread."""
        self.run_id += 1
        span = Span("run", None, self.run_id)
        self._main_stack.append(span)
        span.start = time.perf_counter()
        return span

    def close_run(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._main_stack.pop()
        self.spans.append(span)

    def install(self) -> None:
        for module_name, path, name, measure in WRAPPED:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, measure))
        gitlayer = importlib.import_module("gatework.gitlayer")
        self._restore.append((gitlayer, "subprocess", gitlayer.subprocess))
        gitlayer.subprocess = _SubprocessView(self)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def runs(self) -> dict[int, list[Span]]:
        by_run: dict[int, list[Span]] = {}
        for span in self.spans:
            by_run.setdefault(span.run, []).append(span)
        return by_run

    def write(self, path: Path) -> None:
        index = {id(span): i for i, span in enumerate(self.spans)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                record = {
                    "id": i,
                    "run": span.run,
                    "name": span.name,
                    "start": round(span.start, 7),
                    "end": round(span.end, 7),
                    "parent": index.get(id(span.parent)),
                }
                fh.write(json.dumps(record) + "\n")


class _SubprocessView:
    """``subprocess`` as ``gatework.gitlayer`` sees it, with ``run``
    recording a ``gitlayer.spawn`` span for every git process."""

    def __init__(self, tracer: Tracer) -> None:
        self._spawn = tracer.wrap("gitlayer.spawn", subprocess.run)

    def run(self, argv, *args, **kwargs):
        if argv and argv[0] == "git":
            return self._spawn(argv, *args, **kwargs)
        return subprocess.run(argv, *args, **kwargs)

    def __getattr__(self, name: str):
        return getattr(subprocess, name)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


_AUDIT = ("barrier.merge_access_logs", "barrier.audit_isolation", "barrier.write_to")
_QUERIES = ("gitlayer.is_repo", "gitlayer.remote_url", "gitlayer.default_branch")


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and milliseconds for one run's spans."""
    children: dict[int, list[Span]] = {}
    by_name: dict[str, list[Span]] = {}
    root = None
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append(span)
        if span.name == "run":
            root = span
    if root is None:
        raise ValueError("run has no root span")

    def named(*names: str) -> list[Span]:
        return [s for n in names for s in by_name.get(n, ())]

    def ms(*names: str) -> float:
        return sum(s.end - s.start for s in named(*names)) * 1e3

    def self_ms(*names: str) -> float:
        total = 0.0
        for s in named(*names):
            kids = [(c.start, c.end) for c in children.get(id(s), ())]
            total += (s.end - s.start) - _covered(kids, s.start, s.end)
        return total * 1e3

    def calls(*names: str) -> int:
        return len(named(*names))

    def total(*names: str) -> int:
        return sum(s.value or 0 for s in named(*names))

    git_methods = [f"gitlayer.{m}" for m in _GIT_METHODS]
    spawns = named("gitlayer.spawn")
    dispatches = calls("runtime.dispatch")
    run_ms = (root.end - root.start) * 1e3
    top_audit = [s for s in named(*_AUDIT) if s.parent is None or s.parent.name not in _AUDIT]
    return {
        "gitlayer.spawns": len(spawns),
        "gitlayer.worktree_add.calls": calls("gitlayer.worktree_add"),
        "gitlayer.worktree_add.ms": ms("gitlayer.worktree_add"),
        "gitlayer.worktree_remove.calls": calls("gitlayer.worktree_remove"),
        "gitlayer.worktree_remove.ms": ms("gitlayer.worktree_remove"),
        "gitlayer.lock_wait_ms": self_ms(*git_methods),
        "gitlayer.stage.ms": ms("gitlayer.stage"),
        "gitlayer.commit.ms": ms("gitlayer.commit"),
        "gitlayer.push.ms": ms("gitlayer.push"),
        "gitlayer.query.ms": ms(*_QUERIES),
        "gitlayer.failures": total(*git_methods),
        "gitlayer.share": _covered([(s.start, s.end) for s in spawns], root.start, root.end)
        * 1e3 / run_ms,
        "barrier.sandbox.calls": calls("barrier.create_sandbox", "barrier.create_plain_sandbox"),
        "barrier.sandbox.self_ms": self_ms("barrier.create_sandbox", "barrier.create_plain_sandbox"),
        "barrier.audit.ms": sum(s.end - s.start for s in top_audit) * 1e3,
        "barrier.audit.events": total(*_AUDIT),
        "runtime.dispatch.calls": dispatches,
        "runtime.dispatch.self_ms": self_ms("runtime.dispatch"),
        "runtime.backend.ms": ms("runtime.execute"),
        "runtime.dispatch.completed_ratio": total("runtime.dispatch") / dispatches if dispatches else 1.0,
        "statemachine.advance.calls": calls("statemachine.advance"),
        "statemachine.advance.ms": ms("statemachine.advance"),
        "statemachine.record_signal.calls": calls("statemachine.record_signal"),
        "statemachine.write_status.calls": calls("statemachine.write_status"),
        "statemachine.write_status.bytes": total("statemachine.write_status"),
        "rundir.write.calls": calls("rundir.write"),
        "rundir.write.bytes": total("rundir.write"),
        "rundir.exists.calls": calls("rundir.exists"),
        "orchestrator.select.ms": ms("orchestrator.select_workflow", "orchestrator.compile_plan"),
        "orchestrator.review.ms": ms("orchestrator.mechanical_review"),
        "orchestrator.ship.self_ms": self_ms("orchestrator.ship"),
        "orchestrator.self_ms": self_ms("orchestrator.run"),
        "workspace.detect.ms": ms("workspace.detect_language"),
        "workspace.sync.calls": calls("workspace.sync_workspace"),
        "workspace.sync.self_ms": self_ms("workspace.sync_workspace"),
    }


def unit(name: str) -> str:
    """The unit of a per-layer metric."""
    if name.endswith("ms"):
        return "ms"
    if name.endswith((".share", "_ratio")):
        return "ratio"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def is_exact(name: str) -> bool:
    """Counts, bytes and ratios of counts repeat exactly across the runs
    of a workload; times and git's share of them do not."""
    return unit(name) != "ms" and not name.endswith(".share")
