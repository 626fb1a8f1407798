"""Rule registry: every check the engine knows, by stable code.

Rule packs register themselves with the :func:`rule` decorator::

    @rule("TR008", severity=Severity.ERROR, domain="traces",
          summary="circular wait between ranks",
          fix="break the cycle by reordering sends/recvs")
    def _tr008(ctx, make):
        yield make("ranks 0 -> 1 -> 0 wait on each other", rank=0)

A check receives its pack's context object and a ``make`` callable that
stamps the rule's code/severity/domain/fix onto each finding; it yields
(or returns a list of) :class:`~repro.diagnostics.model.Diagnostic`.

Selection follows the familiar linter convention: ``--select``/
``--ignore`` take code *prefixes*, so ``TR`` means every trace rule and
``TR00`` or ``TR003`` narrow further.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

from repro.diagnostics.model import Diagnostic, Severity

__all__ = [
    "Rule",
    "all_rules",
    "get_rule",
    "is_selected",
    "rule",
    "rules_for_domain",
]

#: Domains a rule may belong to (one rule pack each; ``assignment`` and
#: ``powercap`` share a pack file, as do ``gears`` and ``platform``).
DOMAINS = (
    "traces",
    "gears",
    "platform",
    "models",
    "results",
    "assignment",
    "powercap",
    "source",
)

CheckFn = Callable[..., "Iterable[Diagnostic] | None"]

#: Signature of the ``make`` callable handed to checks (a bound
#: :meth:`Rule.make`) — keyword-only subject/rank/index.
Maker = Callable[..., Diagnostic]


@dataclass(frozen=True)
class Rule:
    """One registered check: metadata plus the check function."""

    code: str
    severity: Severity
    domain: str
    summary: str
    check: CheckFn
    fix: str | None = None

    def make(
        self,
        message: str,
        *,
        subject: str = "",
        rank: int | None = None,
        index: int | None = None,
    ) -> Diagnostic:
        """Build a finding carrying this rule's code/severity/domain."""
        return Diagnostic(
            code=self.code,
            severity=self.severity,
            domain=self.domain,
            message=message,
            subject=subject,
            rank=rank,
            index=index,
            fix=self.fix,
        )

    def run(self, ctx: object) -> list[Diagnostic]:
        """Execute the check; a check returning ``None`` found nothing."""
        found = self.check(ctx, self.make)
        return [] if found is None else list(found)


_REGISTRY: dict[str, Rule] = {}


def rule(
    code: str,
    *,
    severity: Severity,
    domain: str,
    summary: str,
    fix: str | None = None,
) -> Callable[[CheckFn], CheckFn]:
    """Register a check function under a stable code (decorator)."""
    if domain not in DOMAINS:
        raise ValueError(f"unknown domain {domain!r}; known: {DOMAINS}")
    if code in _REGISTRY:
        raise ValueError(f"duplicate rule code {code!r}")

    def decorate(fn: CheckFn) -> CheckFn:
        _REGISTRY[code] = Rule(
            code=code,
            severity=severity,
            domain=domain,
            summary=summary,
            check=fn,
            fix=fix,
        )
        return fn

    return decorate


def _load_packs() -> None:
    """Import every rule pack so registration side effects run."""
    from repro.diagnostics import (  # noqa: F401
        rules_assign,
        rules_gears,
        rules_models,
        rules_results,
        rules_source,
        rules_traces,
    )


def all_rules() -> tuple[Rule, ...]:
    """Every registered rule, sorted by code."""
    _load_packs()
    return tuple(_REGISTRY[code] for code in sorted(_REGISTRY))


#: (registry size, sorted rule codes per domain), rebuilt on a change.
_domain_index: tuple[int, dict[str, tuple[str, ...]]] = (-1, {})


def rules_for_domain(domain: str) -> tuple[Rule, ...]:
    """The registered rules of one domain, sorted by code (codes cached
    per registry size, rules looked up per call so a replaced one runs)."""
    global _domain_index
    if _domain_index[0] != len(_REGISTRY):
        rules = all_rules()
        _domain_index = (len(_REGISTRY), {
            name: tuple(r.code for r in rules if r.domain == name)
            for name in DOMAINS
        })
    return tuple(_REGISTRY[code] for code in _domain_index[1].get(domain, ()))


def get_rule(code: str) -> Rule:
    _load_packs()
    try:
        return _REGISTRY[code]
    except KeyError:
        raise KeyError(
            f"unknown rule code {code!r}; known: {sorted(_REGISTRY)}"
        ) from None


def is_selected(
    code: str,
    select: Sequence[str] = (),
    ignore: Sequence[str] = (),
) -> bool:
    """Prefix-based selection: ``select`` narrows, ``ignore`` wins."""
    if any(code.startswith(pattern) for pattern in ignore if pattern):
        return False
    if select:
        return any(code.startswith(pattern) for pattern in select if pattern)
    return True
