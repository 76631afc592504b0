"""gatework: a deterministic multi-agent workflow engine.

A gated nine-state machine drives role-based agent dispatch through
compiled workflow plans, with information barriers between pipelines,
audited artifact access, interrupt signals with retry caps, and a hard
ship gate (review verdict + explicit user authorization). Agent backends
are pluggable; the scripted backend makes every protocol path testable
without a language model.
"""

from gatework.orchestrator import run_issue_patrol, run_scheduled_loop

__version__ = "0.1.0"
