"""Rule registry: rules self-register at import time via :func:`register`."""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict, Iterable, List, Type, TYPE_CHECKING

from repro.lint.findings import Finding, Severity

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.lint.engine import ProjectContext

class Rule:
    """Base class for lint rules.

    Subclasses set ``code``/``name``/``summary``/``default_severity`` and
    implement :meth:`check`, yielding findings for the whole project. Most
    rules simply iterate ``project.modules``; project-structural rules (like
    R005) inspect the tree layout directly.
    """

    code: str = "R000"
    name: str = "unnamed"
    summary: str = ""
    default_severity: Severity = Severity.ERROR
    #: Optional markdown remediation guidance, surfaced as ``help`` in SARIF
    #: rule descriptors so code-scanning alerts tell the reader how to fix.
    remediation: str = ""

    def check(self, project: "ProjectContext") -> Iterable[Finding]:
        raise NotImplementedError

    def reads(self, project: "ProjectContext") -> Iterable[Path]:
        """Files :meth:`check` reads from disk besides the linted modules,
        present or not. The lint cache records their contents with each
        result, so a rule that reads a file it does not list here replays
        stale results. The list must depend on the linted modules only: a
        cached result is found by those alone, then checked against the
        files its run listed."""
        return ()


_RULES: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if cls.code in _RULES and _RULES[cls.code] is not cls:
        raise ValueError(f"duplicate rule code {cls.code}")
    _RULES[cls.code] = cls
    return cls


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, in code order."""
    return [_RULES[code]() for code in sorted(_RULES)]


def get_rule(code: str) -> Rule:
    try:
        return _RULES[code.upper()]()
    except KeyError:
        known = ", ".join(sorted(_RULES))
        raise KeyError(f"unknown rule {code!r}; known: {known}") from None


def rule_codes() -> List[str]:
    return sorted(_RULES)
