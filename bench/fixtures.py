"""Seeded inputs for the benchmark workloads.

Everything the engine sees is generated here from the workload seed: the
target repository's files, the directive, the scripted agents and the
user's answers. The same seed gives byte-identical inputs. Each workload
gets one template tree (git repositories plus local bare remotes) built
during set-up; every measured run works on its own copy of it.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("fix", "full-retry", "ship")

_WORDS = (
    "panel", "kernel", "bootstrap", "weights", "cluster", "robust", "spline",
    "lag", "cohort", "design", "matrix", "sample", "variance", "quantile",
    "residual", "hazard", "mixture", "prior", "draw", "chain", "grid", "band",
    "score", "window", "trend", "shock", "index", "frame", "series", "model",
)
_SUBPACKAGES = (
    "estimators", "inference", "datasets", "plotting", "utils", "models",
    "diagnostics", "simulate", "io", "linalg",
)

# The fix target is a typical research package: 600 tracked files.
_FIX_LAYOUT = {"modules": 400, "tests": 136, "docs": 30, "data": 20}

_TEST_SPEC = """\
# Test specification

Behavioral contracts, exact tolerances, edge cases.

- reference comparison tolerance: {tol}
- empty-input and single-row edge cases must be covered
"""

_AUDIT = """\
# Audit

| check | tolerance | result |
|---|---|---|
| reference comparison | {tol} | pass |
| {topic} edge cases | exact | pass |

All validation commands succeeded.
"""

_LOG_ENTRY = """\
# Log entry

## What Changed
{change}

## Validation Results
All checks green.

## Handoff Notes
### Prior Decisions
Kept the public interface of {pkg} unchanged.
"""


@dataclass(frozen=True)
class Workload:
    """One workload's generated inputs and the report it must produce."""

    name: str
    directive: str
    answers: tuple[str, ...]
    authorization: str | None
    files: dict[str, str]  # target repository tree
    backends: dict[str, dict]  # backends.json entries, by role
    scripts: dict[str, str]  # scenario file name -> text
    workflow_id: int
    final_state: str
    visited_states: tuple[str, ...]
    dispatch_counts: dict[str, int]
    retries: dict[str, int]
    artifacts: tuple[str, ...]
    mechanical_passed: bool | None


def _ident(rng: random.Random) -> str:
    return "_".join(rng.sample(_WORDS, 2))


def _python_module(rng: random.Random) -> str:
    lines = [f'"""{rng.choice(_WORDS).capitalize()} routines for {rng.choice(_WORDS)} data."""', ""]
    for _ in range(rng.randint(2, 24)):
        name = _ident(rng)
        a, b = rng.sample(_WORDS, 2)
        lines += [
            "",
            f"def {name}({a}, {b}=None):",
            f'    """Return the {rng.choice(_WORDS)} of {a} given {b}."""',
            f"    if {b} is None:",
            f"        {b} = {rng.randint(1, 99)}",
            f"    return ({a} * {rng.random():.6f} + {b}) / {rng.randint(2, 9)}",
        ]
    return "\n".join(lines) + "\n"


def _markdown(rng: random.Random, title: str) -> str:
    body = [f"# {title}", ""]
    for _ in range(rng.randint(3, 30)):
        body.append(" ".join(rng.choice(_WORDS) for _ in range(rng.randint(8, 20))) + ".")
    return "\n".join(body) + "\n"


def _csv(rng: random.Random) -> str:
    cols = rng.sample(_WORDS, 4)
    rows = [",".join(cols)]
    for _ in range(rng.randint(10, 120)):
        rows.append(",".join(f"{rng.gauss(0, 1):.5f}" for _ in cols))
    return "\n".join(rows) + "\n"


def _package_files(rng: random.Random, pkg: str, layout: dict[str, int] | None) -> dict[str, str]:
    files = {
        "pyproject.toml": f'[project]\nname = "{pkg}"\nversion = "0.{rng.randint(1, 9)}.0"\n',
        "README.md": _markdown(rng, pkg),
        f"src/{pkg}/__init__.py": f'"""{pkg}: {rng.choice(_WORDS)} methods."""\n',
    }
    if layout is None:
        return files
    files["LICENSE"] = "MIT License\n"
    for sub in _SUBPACKAGES:
        files[f"src/{pkg}/{sub}/__init__.py"] = ""
    modules: list[str] = []
    while len(modules) < layout["modules"]:
        sub = _SUBPACKAGES[len(modules) % len(_SUBPACKAGES)]
        path = f"src/{pkg}/{sub}/{_ident(rng)}.py"
        if path not in files:
            files[path] = _python_module(rng)
            modules.append(path)
    for path in modules[: layout["tests"]]:
        stem = Path(path).stem
        files[f"tests/{Path(path).parent.name}/test_{stem}.py"] = _python_module(rng)
    while sum(p.startswith("docs/") for p in files) < layout["docs"]:
        files.setdefault(f"docs/{_ident(rng)}.md", _markdown(rng, "Guide"))
    while sum(p.startswith("data/") for p in files) < layout["data"]:
        files.setdefault(f"data/{_ident(rng)}.csv", _csv(rng))
    return files


def _write(path: str, body: str) -> str:
    return f"write {path} <<EOF\n{body}EOF\n"


def _scripts(rng: random.Random, pkg: str, roles: tuple[str, ...], *, planner_holds: int = 0,
             tester_blocks: int = 0, reviewer_stops: int = 0) -> dict[str, str]:
    topic = rng.choice(_WORDS)
    tol = f"1e-{rng.randint(5, 9)}"
    texts = {}
    if "planner" in roles:
        steps = f'signal HOLD "which {topic} reference implementation anchors the tests?"\n---\n' * planner_holds
        steps += _write("comprehension.md", f"# Comprehension\n\nThe {topic} change is understood.\n")
        steps += _write("spec.md", f"# Implementation specification\n\nRework {pkg}.{topic}.\n")
        steps += _write("test-spec.md", _TEST_SPEC.format(tol=tol))
        if "simulator" in roles:
            steps += _write("sim-spec.md", f"# Simulation specification\n\n{topic} DGP grid.\n")
        texts["planner"] = steps + "complete\n"
    if "builder" in roles:
        texts["builder"] = (
            "read spec.md\n"
            + f"read src/{pkg}/__init__.py\n"
            + _write("implementation.md", f"# Implementation\n\nFiles changed: {pkg}/{topic}.\n")
            + "complete\n"
        )
    if "tester" in roles:
        steps = f'signal BLOCK "{topic} placebo test failed: no improvement over baseline"\n---\n' * tester_blocks
        steps += "read test-spec.md\n" + _write("audit.md", _AUDIT.format(tol=tol, topic=topic))
        texts["tester"] = steps + "complete\n"
    if "simulator" in roles:
        texts["simulator"] = (
            "read sim-spec.md\n"
            + _write("simulation.md", f"# Simulation\n\n{topic} results within acceptance bands.\n")
            + "complete\n"
        )
    if "scriber" in roles:
        texts["scriber"] = (
            "read implementation.md\n"
            + _write("Architecture.md", f"# Architecture\n\n{pkg} module and data-flow diagrams.\n")
            + _write("log-entry.md", _LOG_ENTRY.format(change=f"Reworked the {topic} path.", pkg=pkg))
            + _write("docs.md", f"# Docs\n\nUpdated {topic} usage documentation.\n")
            + "complete\n"
        )
    if "reviewer" in roles:
        stop = f"signal STOP <<EOF\ntarget: scriber\n{topic} documentation incomplete\nEOF\n---\n"
        texts["reviewer"] = (
            stop * reviewer_stops
            + "read implementation.md\n"
            + _write("review.md", "verdict: PASS\n\nCross-pipeline audit complete.\n")
            + "complete\n"
        )
    if "shipper" in roles:
        texts["shipper"] = _write("shipper.md", "# Shipper\n\nReady to stage and push.\n") + "complete\n"
    return texts


_STATES = (
    "CREDENTIALS_VERIFIED", "NEW", "PLANNED", "SPEC_READY", "PIPELINES_COMPLETE",
    "DOCUMENTED", "REVIEW_PASSED", "READY_TO_SHIP", "DONE",
)
_LEADER_ARTIFACTS = ("credentials.md", "impact.md", "request.md", "status.md")
_SPECS = ("comprehension.md", "spec.md", "test-spec.md")
_SCRIBED = ("Architecture.md", "docs.md", "log-entry.md")


def make_workload(name: str, seed: int) -> Workload:
    """Generate one workload's inputs from its seed."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{name}:{seed}")
    pkg = "".join(rng.sample(_WORDS, 2))
    topic, module = rng.sample(_WORDS, 2)
    if name == "fix":
        roles = ("builder", "tester")
        scripts = _scripts(rng, pkg, roles)
        return Workload(
            name=name,
            directive=f"fix the typo in the {topic} {module} docstring",
            answers=(),
            authorization=None,
            files=_package_files(rng, pkg, _FIX_LAYOUT),
            backends=_scripted(roles),
            scripts=scripts,
            workflow_id=9,
            final_state="PIPELINES_COMPLETE",
            visited_states=_STATES[:5],
            dispatch_counts={"builder": 1, "tester": 1},
            retries={"BLOCK": 0, "HOLD": 0, "STOP": 0},
            artifacts=tuple(sorted(_LEADER_ARTIFACTS + ("audit.md", "implementation.md"))),
            mechanical_passed=None,
        )
    if name == "full-retry":
        roles = ("planner", "builder", "tester", "simulator", "scriber", "reviewer")
        scripts = _scripts(rng, pkg, roles, planner_holds=1, tester_blocks=3, reviewer_stops=1)
        return Workload(
            name=name,
            directive=f"fix the {topic} bug and run a simulation study of the {module} estimator",
            answers=(f"use the {rng.choice(_WORDS)} reference implementation",),
            authorization=None,
            files=_package_files(rng, pkg, None),
            backends=_scripted(roles),
            scripts=scripts,
            workflow_id=1,
            final_state="REVIEW_PASSED",
            visited_states=_STATES[:7],
            dispatch_counts={
                "builder": 4, "planner": 2, "reviewer": 2, "scriber": 2, "simulator": 1, "tester": 4,
            },
            retries={"BLOCK": 3, "HOLD": 1, "STOP": 1},
            artifacts=tuple(sorted(
                _LEADER_ARTIFACTS + _SPECS + _SCRIBED
                + ("sim-spec.md", "implementation.md", "audit.md", "simulation.md", "review.md")
            )),
            mechanical_passed=True,
        )
    roles = ("planner", "builder", "tester", "scriber", "reviewer", "shipper")
    scripts = _scripts(rng, pkg, roles)
    del scripts["builder"]
    backends = _scripted(roles)
    backends["builder"] = {"kind": "subprocess", "command": ["sh", "-c", _builder_sh(rng, topic)]}
    return Workload(
        name=name,
        directive=f"fix the failing {topic} check in {module}",
        answers=(),
        authorization="explicit-user-authorization",
        files=_package_files(rng, pkg, None),
        backends=backends,
        scripts=scripts,
        workflow_id=2,
        final_state="DONE",
        visited_states=_STATES,
        dispatch_counts={
            "builder": 1, "planner": 1, "reviewer": 1, "scriber": 1, "shipper": 1, "tester": 1,
        },
        retries={"BLOCK": 0, "HOLD": 0, "STOP": 0},
        artifacts=tuple(sorted(
            _LEADER_ARTIFACTS + _SPECS + _SCRIBED
            + ("implementation.md", "audit.md", "review.md", "shipper.md")
        )),
        mechanical_passed=True,
    )


def _scripted(roles: tuple[str, ...]) -> dict[str, dict]:
    return {role: {"kind": "scripted", "script": f"{role}.script"} for role in roles}


def _builder_sh(rng: random.Random, topic: str) -> str:
    """A subprocess builder: edits the worktree and reports completion."""
    return (
        "cat >/dev/null\n"
        "mkdir -p src\n"
        f"printf 'def {topic}_fixed():\\n    return {rng.randint(1, 999)}\\n' > src/fix.py\n"
        f"printf '# Implementation\\n\\nFiles changed: src/fix.py ({topic}).\\n' > implementation.md\n"
        "echo 'OUTCOME: COMPLETED'\n"
    )


def write_config(wl: Workload, directory: Path) -> Path:
    """Write the scenario files and backends.json; return the config path."""
    directory.mkdir(parents=True, exist_ok=True)
    for filename, text in wl.scripts.items():
        (directory / f"{filename}.script").write_text(text, encoding="utf-8")
    config = directory / "backends.json"
    config.write_text(json.dumps({"backends": wl.backends}, indent=2, sort_keys=True), encoding="utf-8")
    return config


def git(*args: str | Path) -> str:
    proc = subprocess.run(["git", *map(str, args)], capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"git {' '.join(map(str, args))} failed: {proc.stderr.strip()}")
    return proc.stdout


def _init_repo(path: Path, files: dict[str, str], remote: str | None) -> None:
    for rel, text in files.items():
        target = path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text, encoding="utf-8")
    git("init", "-q", "-b", "main", path)
    git("-C", path, "add", "-A")
    git("-C", path, "commit", "-q", "-m", "seed")
    if remote is not None:
        # The URL is relative to the repository, so every copy of the
        # template pushes to its own bare remote beside it.
        git("init", "-q", "--bare", "-b", "main", path.parent / remote)
        git("-C", path, "remote", "add", "origin", f"../{remote}")
        git("-C", path, "push", "-q", "-u", "origin", "main")
    # few large files make the per-run copy cheap
    git("-C", path, "repack", "-a", "-d", "-q")


def build_template(wl: Workload, root: Path) -> Path:
    """Build the workload's template tree: ``target/`` and, for ``ship``,
    ``target-remote.git``, ``workspace/`` and ``workspace-remote.git``."""
    if root.exists():
        shutil.rmtree(root)
    root.mkdir(parents=True)
    ships = wl.authorization is not None
    _init_repo(root / "target", wl.files, "target-remote.git" if ships else None)
    if ships:
        _init_repo(root / "workspace", {"README.md": "# Workspace\n"}, "workspace-remote.git")
    return root


def copy_template(template: Path, dest: Path) -> Path:
    """Copy the template for one run.

    Working-tree files and git objects are hard links: nothing in a run
    rewrites them in place (git replaces files by rename, and the engine
    writes only new files into these trees), and a link costs no inode.
    The rest of each ``.git`` (index, refs, reflogs, config) is copied,
    because git appends to reflogs in place.
    """

    def link_or_copy(src: str, dst: str) -> None:
        parts = Path(src).relative_to(template).parts
        in_git_dir = any(part.endswith(".git") for part in parts[:-1])
        if in_git_dir and "objects" not in parts:
            shutil.copy2(src, dst)
        else:
            os.link(src, dst)

    shutil.copytree(template, dest, symlinks=True, copy_function=link_or_copy)
    return dest


def remote_paths(bare: Path) -> list[str]:
    return git("--git-dir", bare, "ls-tree", "-r", "--name-only", "main").splitlines()
