"""gatework benchmark: run latency on real git, end to end and per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload fix --seed 1 --seconds 20 --trace 0

Each workload is a closed loop: one client in this process starts the
next run only after the previous one returned. A run is what ``gatework
run`` does after loading its config: ``select_workflow``, ``start_run``
and ``Orchestrator(...).run(...)``, timed until ``report.json`` is
written. Every run works on a fresh copy of the workload's seeded
template, made outside the timed region, and every run's outputs are
checked. ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
prints the per-layer metrics of a separate traced run. The last line of
standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import fixtures
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Fewest runs a measurement may rest on, however long they take.
MIN_RUNS = 10
#: Runs before timing starts, so imports and the page cache are warm.
WARMUP_RUNS = 3
#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_SAMPLES = 7
#: Each traced set runs at least this many times.
MIN_TRACED_RUNS = 5
#: The loop stops here even below its minimum, to end within 180 s.
MAX_MEASURE_SECONDS = 140.0

_SETUP_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import gatework.cli; "
    "from gatework.runtime import load_backends; load_backends(sys.argv[2])"
)

_GITCONFIG = """\
[user]
\tname = bench
\temail = bench@example.org
[init]
\tdefaultBranch = main
[gc]
\tauto = 0
[maintenance]
\tauto = false
[commit]
\tgpgsign = false
"""


def _isolate_git(work: Path) -> None:
    """Make git read only the benchmark's own config, so the machine's
    global settings (hooks, signing, auto-gc) cannot change a run."""
    config = work / "gitconfig"
    config.write_text(_GITCONFIG, encoding="utf-8")
    for name in ("GIT_DIR", "GIT_WORK_TREE", "GIT_INDEX_FILE", "GIT_OBJECT_DIRECTORY"):
        os.environ.pop(name, None)
    os.environ.update(
        GIT_CONFIG_GLOBAL=str(config), GIT_CONFIG_NOSYSTEM="1", GIT_TERMINAL_PROMPT="0"
    )


def _filesystem(path: Path) -> str:
    """The type of the filesystem holding ``path``, from the mount table."""
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mountinfo", encoding="utf-8") as fh:
            for line in fh:
                fields = line.split()
                mount = fields[4]
                kind = fields[fields.index("-") + 1]
                inside = str(path) == mount or str(path).startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, fstype = mount, kind
    except (OSError, ValueError, IndexError):
        pass
    return fstype


class Runner:
    """Runs one workload repeatedly and checks every run."""

    def __init__(self, wl: fixtures.Workload, work: Path) -> None:
        from gatework.runtime import load_backends

        self.wl = wl
        self.work = work
        self.config = fixtures.write_config(wl, work / "config")
        self.backends = load_backends(self.config)
        self.template = fixtures.build_template(wl, work / "template-1")
        self.report_bytes: bytes | None = None
        self.work_on_remote: int | None = None
        self.problems: list[str] = []
        self._count = 0

    def rebuild_template(self) -> None:
        """Build a second template from the same seed, for a second set."""
        self.template = fixtures.build_template(self.wl, self.work / "template-2")

    def run_once(self, tracer: tracing.Tracer | None = None) -> tuple[float, bool]:
        """One measured run; returns (seconds, passed)."""
        from gatework import orchestrator as orch
        from gatework.clock import TickClock
        from gatework.gitlayer import SubprocessGit
        from gatework.workspace import WorkspaceLayout

        wl = self.wl
        self._count += 1
        dest = fixtures.copy_template(self.template, self.work / f"run-{self._count}")
        repo = dest / "target"
        git = SubprocessGit()
        clock = TickClock()
        channel = orch.UserChannel(
            mode=orch.ChannelMode.SCRIPTED_ANSWERS, answers=wl.answers, output_fn=lambda _: None
        )
        report = run_dir = None
        root = tracer.open_run() if tracer is not None else None
        start = time.perf_counter()
        try:
            workflow = orch.select_workflow(wl.directive, None, channel=channel)
            workspace = None
            runs_root = dest / "runs"
            if wl.authorization is not None:
                workspace = WorkspaceLayout(root=dest / "workspace", repo_name=repo.name).ensure()
                runs_root = workspace.runs_dir
            run_dir, request_id = orch.start_run(
                runs_root=runs_root,
                target_repo=repo,
                directive=wl.directive,
                workflow=workflow,
                git=git,
                clock=clock,
            )
            report = orch.Orchestrator(
                run_dir=run_dir,
                request_id=request_id,
                workflow=workflow,
                backends=self.backends,
                channel=channel,
                target_repo=repo,
                git=git,
                clock=clock,
                workspace=workspace,
                directive=wl.directive,
            ).run(authorization=wl.authorization)
        except Exception:  # a crashed run counts as failed; the loop goes on
            self.problems.append(traceback.format_exc(limit=3))
        finally:
            elapsed = time.perf_counter() - start
            if root is not None:
                tracer.close_run(root)
        passed = False
        if report is not None:
            problems = self._check(report, run_dir, dest)
            self.problems.extend(problems)
            passed = not problems
        shutil.rmtree(dest)
        return elapsed, passed

    def _check(self, report, run_dir, dest: Path) -> list[str]:
        wl = self.wl
        got = report.to_dict()
        expected = {
            "workflow_id": wl.workflow_id,
            "final_state": wl.final_state,
            "exit_code": 0,
            "visited_states": list(wl.visited_states),
            "dispatch_counts": wl.dispatch_counts,
            "retries": wl.retries,
            "artifacts": list(wl.artifacts),
        }
        problems = [
            f"{key}: got {got[key]!r}, expected {value!r}"
            for key, value in expected.items()
            if got[key] != value
        ]
        mechanical = got["mechanical"] and got["mechanical"]["passed"]
        if mechanical != wl.mechanical_passed:
            problems.append(f"mechanical.passed: got {mechanical!r}, expected {wl.mechanical_passed!r}")
        data = run_dir.report_json_path.read_bytes()
        if self.report_bytes is None:
            self.report_bytes = data
        elif data != self.report_bytes:
            problems.append("report.json differs from the first run of this workload")
        if wl.authorization is not None:
            if not (got["ship"] or {}).get("shipped"):
                problems.append(f"ship.shipped is false: {got['ship']!r}")
            slug = re.sub(r"[^A-Za-z0-9]+", "-", report.request_id).strip("-").lower()
            pattern = re.compile(rf"target/runs/\d{{4}}-\d{{2}}-\d{{2}}-{re.escape(slug)}\.md")
            if not any(pattern.fullmatch(p) for p in fixtures.remote_paths(dest / "workspace-remote.git")):
                problems.append("workspace remote lacks runs/<date>-<slug>.md")
            on_remote = int("src/fix.py" in fixtures.remote_paths(dest / "target-remote.git"))
            if self.work_on_remote is None:
                self.work_on_remote = on_remote
            elif on_remote != self.work_on_remote:
                problems.append("ship.work_on_remote varies between runs")
        return problems

    def loop(self, seconds: float, min_runs: int, deadline: float) -> tuple[list[float], int]:
        """Run until ``seconds`` have passed and ``min_runs`` are done, or
        until the deadline; returns (durations, failed runs)."""
        durations: list[float] = []
        failed = 0
        start = time.perf_counter()
        while (time.perf_counter() - start < seconds or len(durations) < min_runs) and (
            time.perf_counter() < deadline
        ):
            elapsed, passed = self.run_once()
            durations.append(elapsed)
            failed += not passed
        return durations, failed


def _setup_seconds(config: Path) -> float:
    """Median wall time of a fresh interpreter importing the CLI and
    loading the workload's backend config: what every ``gatework run``
    pays before its run starts."""
    argv = [sys.executable, "-c", _SETUP_PROBE, str(SRC), str(config)]
    subprocess.run(argv, check=True)  # writes the bytecode cache
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run(argv, check=True)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _end_to_end(runner: Runner, seconds: float, deadline: float) -> tuple[dict, int, int, dict]:
    setup = _setup_seconds(runner.config)
    runner.loop(0, WARMUP_RUNS, deadline)
    durations, failed = runner.loop(seconds, MIN_RUNS, deadline)
    attempted = len(durations)
    ms = [d * 1e3 for d in durations]
    metrics = {
        "run_ms_p50": _metric(statistics.median(ms), "ms"),
        "run_ms_p90": _metric(statistics.quantiles(ms, n=10)[8], "ms"),
        "runs_per_s": _metric((attempted - failed) / sum(durations), "1/s"),
        # rule-of-succession estimate, so the ratio is never exactly 0
        "fail_ratio": _metric((failed + 1) / (attempted + 2), "ratio"),
        "setup_s": _metric(setup, "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, attempted, failed, {"samples": attempted}


def _per_layer(runner: Runner, seconds: float, deadline: float, spans_path: Path) -> tuple[dict, int, int, dict]:
    """Traced and untraced runs alternate, so the tracing overhead is
    measured under the same conditions. The second half of the time runs
    on a second template built from the same seed: every counter must
    repeat exactly across all traced runs of both sets."""
    runner.loop(0, WARMUP_RUNS, deadline)
    tracer = tracing.Tracer()
    untraced: list[float] = []
    traced: list[float] = []
    failed = 0
    for second_set in (False, True):
        if second_set:
            runner.rebuild_template()
        start = time.perf_counter()
        done = 0
        while (time.perf_counter() - start < seconds / 2 or done < MIN_TRACED_RUNS) and (
            time.perf_counter() < deadline
        ):
            done += 1
            elapsed, passed = runner.run_once()
            untraced.append(elapsed)
            failed += not passed
            tracer.install()
            try:
                elapsed, passed = runner.run_once(tracer)
            finally:
                tracer.uninstall()
            traced.append(elapsed)
            failed += not passed
    tracer.write(spans_path)

    per_run = [tracing.layer_metrics(spans) for spans in tracer.runs().values()]
    metrics = {}
    for name in per_run[0]:
        values = [row[name] for row in per_run]
        if not tracing.is_exact(name):
            metrics[name] = _metric(statistics.median(values), tracing.unit(name))
            continue
        if len(set(values)) != 1:
            runner.problems.append(f"counter {name} varies across runs: {sorted(set(values))}")
        metrics[name] = _metric(values[0], tracing.unit(name))
    metrics["ship.work_on_remote"] = _metric(runner.work_on_remote or 0, "count")
    traced_ms = statistics.median(traced) * 1e3
    untraced_ms = statistics.median(untraced) * 1e3
    metrics["trace.run_ms_p50"] = _metric(traced_ms, "ms")
    metrics["trace.untraced_run_ms_p50"] = _metric(untraced_ms, "ms")
    metrics["trace.overhead_ratio"] = _metric(traced_ms / untraced_ms - 1, "ratio")
    detail = {"untraced_samples": len(untraced), "traced_samples": len(traced),
              "spans": str(spans_path.relative_to(ROOT))}
    return metrics, len(untraced) + len(traced), failed, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=fixtures.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gatework" / "__init__.py").is_file():
        print(f"gatework sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    deadline = time.perf_counter() + MAX_MEASURE_SECONDS
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        _isolate_git(work)
        setup_start = time.perf_counter()
        runner = Runner(fixtures.make_workload(args.workload, args.seed), work)
        template_s = time.perf_counter() - setup_start
        if args.trace:
            spans = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
            metrics, attempted, failed, detail = _per_layer(runner, args.seconds, deadline, spans)
        else:
            metrics, attempted, failed, detail = _end_to_end(runner, args.seconds, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    detail.update(
        workload=args.workload,
        seed=args.seed,
        filesystem=_filesystem(ROOT),
        template_s=round(template_s, 3),
        python=sys.version.split()[0],
        git=fixtures.git("--version").strip(),
        cpus=os.cpu_count(),
    )
    print(json.dumps(detail, sort_keys=True), file=sys.stderr)
    for problem in runner.problems[:10]:
        print(f"FAILED CHECK: {problem}", file=sys.stderr)
    correct = not runner.problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
