"""Rule and finding models, plus the pluggable rule registry.

A *rule* is a named check over one parsed source file.  The registry
is detlint's extension seam: project- or experiment-specific
determinism checks plug in by registering a new rule — no changes to
the runner or the CLI.

Registering a custom rule::

    from repro.analysis import register_rule

    @register_rule(
        "D901",
        title="no float16 literals",
        severity="warning",
        hint="spell the constant through repro.fp.fp16",
    )
    def check_d901(ctx):
        # ctx: repro.analysis.runner.FileContext
        for node in ctx.walk():
            ...
            yield node, "message"

Checkers yield ``(ast.AST, message)`` pairs; the runner stamps them
into :class:`Finding` records with the rule's id and severity.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.errors import ConfigError

#: Checker signature: yields ``(node, message)`` for one file context.
CheckFn = Callable[[Any], Iterable[tuple[ast.AST, str]]]

#: Allowed severities, in increasing triage priority.
SEVERITIES = ("warning", "error")


@dataclass(frozen=True)
class Finding:
    """One rule violation (or suppression-hygiene report) in one file.

    Attributes:
        path: repo-relative posix path of the offending file.
        line: 1-based source line.
        col: 1-based source column.
        rule: rule id (``D001`` ...).
        severity: ``"error"`` or ``"warning"`` (triage metadata; any
            active finding fails the lint run).
        message: human-readable description of the violation.
        suppressed: whether an inline ``# detlint: ignore`` covered it.
    """

    path: str
    line: int
    col: int
    rule: str
    severity: str
    message: str
    suppressed: bool = False

    @property
    def location(self) -> str:
        """``file:line:col`` — the clickable report prefix."""
        return f"{self.path}:{self.line}:{self.col}"

    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def to_dict(self) -> dict[str, Any]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
            "suppressed": self.suppressed,
        }


@dataclass(frozen=True)
class Rule:
    """A registered determinism check.

    Attributes:
        id: registry key, ``D`` + digits (also the id named by inline
            suppressions and ``--rules`` filters).
        title: short kebab-ish summary (shown by ``lint --list-rules``).
        severity: default severity stamped onto findings.
        description: what the rule catches and why it matters.
        hint: how to fix a finding (the autofix guidance shown in
            reports).
        check: the checker; ``None`` for virtual rules the runner
            raises itself (suppression hygiene).
    """

    id: str
    title: str
    severity: str
    description: str = ""
    hint: str = ""
    check: CheckFn | None = field(default=None, repr=False)


_REGISTRY: dict[str, Rule] = {}


def register_rule(
    id: str,
    check: CheckFn | None = None,
    *,
    title: str,
    severity: str = "error",
    description: str = "",
    hint: str = "",
    overwrite: bool = False,
):
    """Register a rule; usable directly or as a decorator.

    Args:
        id: unique rule id (``D`` + digits, e.g. ``D001``).
        check: the checker function.  Omit to use the call as a
            decorator (virtual rules pass ``check=None`` explicitly
            via :func:`register_virtual_rule`).
        title: short summary.
        severity: default finding severity.
        description: what the rule catches.
        hint: fix guidance appended to reports.
        overwrite: allow replacing an existing registration.

    Returns:
        The :class:`Rule` record (direct call) or a decorator.

    Raises:
        ConfigError: on a malformed id/severity or a duplicate
            registration without ``overwrite``.
    """
    if check is None:

        def decorator(fn: CheckFn) -> CheckFn:
            register_rule(
                id,
                fn,
                title=title,
                severity=severity,
                description=description,
                hint=hint,
                overwrite=overwrite,
            )
            return fn

        return decorator

    _register(
        Rule(
            id=id,
            title=title,
            severity=severity,
            description=description,
            hint=hint,
            check=check,
        ),
        overwrite=overwrite,
    )
    return _REGISTRY[id]


def register_virtual_rule(
    id: str,
    *,
    title: str,
    severity: str = "error",
    description: str = "",
    hint: str = "",
) -> Rule:
    """Register a rule with no checker (raised by the runner itself)."""
    rule = Rule(
        id=id, title=title, severity=severity, description=description, hint=hint
    )
    _register(rule, overwrite=False)
    return rule


def _register(rule: Rule, *, overwrite: bool) -> None:
    if not valid_rule_id(rule.id):
        raise ConfigError(
            f"rule id must be 'D' + digits (e.g. D001), got {rule.id!r}"
        )
    if rule.severity not in SEVERITIES:
        raise ConfigError(
            f"rule {rule.id} severity must be one of {SEVERITIES}, "
            f"got {rule.severity!r}"
        )
    if not overwrite and rule.id in _REGISTRY:
        raise ConfigError(f"rule {rule.id!r} is already registered")
    _REGISTRY[rule.id] = rule


def valid_rule_id(text: str) -> bool:
    """Whether ``text`` has the ``D<digits>`` shape of a rule id."""
    return len(text) >= 2 and text[0] == "D" and text[1:].isdigit()


def unregister_rule(id: str) -> None:
    """Remove a rule registration (mainly for tests/extensions)."""
    if id not in _REGISTRY:
        raise ConfigError(f"unknown rule: {id!r}")
    del _REGISTRY[id]


def get_rule(id: str) -> Rule:
    """Look up a rule by id.

    Raises:
        ConfigError: for unknown ids, listing what is registered.
    """
    try:
        return _REGISTRY[id]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "none"
        raise ConfigError(f"unknown rule: {id!r} (registered: {known})") from None


def list_rules() -> list[Rule]:
    """All registered rules, sorted by id."""
    return sorted(_REGISTRY.values(), key=lambda r: r.id)


def rule_ids() -> list[str]:
    """Sorted registered rule ids."""
    return sorted(_REGISTRY)
