"""Determinism rule pack (codes ``DT...``): AST lint of repro's source.

The reproduction's headline guarantee is *bit-identity*: the compiled
kernel, the batched sweep and the columnar storage all promise results
byte-identical to the reference DES.  That invariant is protected by
tests, but tests only catch a hazard after it changes a number.  This
pack analyses the **source itself** for the three hazard classes that
have historically broken bit-identity in this codebase's domain:

=====  ========  ========================================================
code   severity  finding
=====  ========  ========================================================
DT001  ERROR     pairwise/compensated summation of report-affecting
                 floats (``np.sum``/``.sum()`` over durations,
                 ``math.fsum``) where the left-to-right fold
                 (``repro.summation.left_to_right_sum``) is the pinned
                 convention
DT002  WARNING   iteration over an unordered ``set`` construct feeding
                 an accumulator (order is hash-dependent)
DT003  ERROR     wall-clock or unseeded randomness in kernel code
                 (``repro.core`` / ``repro.netsim`` / ``repro.traces``)
DT004  ERROR     writable memory-mapped buffer in kernel code — mapped
                 trace columns are shared, on-disk state; the
                 compile/replay path must map them read-only
=====  ========  ========================================================

Conventions the rules encode (mirrored in ``docs/diagnostics.md``):

* Durations are summed left-to-right
  (``left_to_right_sum(seg[mask].tolist())`` is the columnar idiom) so
  the DES, the compiled kernel and the analyses agree to the last bit;
  ``np.sum`` pairwise-sums, ``math.fsum`` compensates, and so does
  builtin ``sum()`` over floats from Python 3.12 — each produces
  different bits on the same data.
* ``sorted(...)`` launders a set: iterating ``sorted(set(...))`` is
  deterministic and exempt.
* ``time.perf_counter`` (observability timing) and seeded
  ``numpy.random.default_rng`` are allowed even in kernel code; the
  denylist covers wall-clock reads and implicitly-seeded RNGs.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import Any

from repro.diagnostics.model import Diagnostic, Severity
from repro.diagnostics.registry import Maker, rule

__all__ = ["SourceContext", "KERNEL_PACKAGES"]

#: Sub-packages whose code must be free of wall-clock/randomness (DT003).
KERNEL_PACKAGES = ("core", "netsim", "traces")

#: Wall-clock / implicitly-seeded randomness calls banned in kernel code.
_DT003_DENYLIST = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",  # still a clock read: replay must not branch on it
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "os.urandom",
        "uuid.uuid4",
    }
    | {
        f"random.{name}"
        for name in (
            "random", "randint", "randrange", "uniform", "choice",
            "choices", "shuffle", "sample", "gauss", "normalvariate",
            "seed",
        )
    }
    | {
        f"numpy.random.{name}"
        for name in (
            "rand", "randn", "random", "seed", "shuffle", "choice",
            "randint", "permutation", "uniform", "normal",
        )
    }
)

#: Explicitly allowed even in kernel code.
_DT003_ALLOWLIST = frozenset(
    {"time.perf_counter", "time.perf_counter_ns", "numpy.random.default_rng"}
)


@dataclass
class SourceContext:
    """One parsed source file for the DT rules."""

    subject: str
    tree: ast.AST
    #: True when the file lives in a kernel package (DT003 applies).
    is_kernel: bool
    #: alias -> canonical dotted module path, from the file's imports.
    aliases: dict[str, str] = field(default_factory=dict)

    @classmethod
    def from_source(
        cls, text: str, subject: str, is_kernel: bool
    ) -> "SourceContext":
        """Parse ``text``; raises ``SyntaxError`` on unparseable input."""
        tree = ast.parse(text, filename=subject)
        ctx = cls(subject=subject, tree=tree, is_kernel=is_kernel)
        ctx.aliases = _collect_aliases(tree)
        return ctx

    def resolve(self, node: ast.expr) -> str | None:
        """Canonical dotted name of a Name/Attribute chain, or None."""
        parts: list[str] = []
        cur: ast.expr = node
        while isinstance(cur, ast.Attribute):
            parts.append(cur.attr)
            cur = cur.value
        if not isinstance(cur, ast.Name):
            return None
        root = self.aliases.get(cur.id, cur.id)
        parts.append(root)
        return ".".join(reversed(parts))


def _collect_aliases(tree: ast.AST) -> dict[str, str]:
    """Flat import-alias map (``np`` -> ``numpy``, ``fsum`` ->
    ``math.fsum``); lexical scoping is ignored — good enough for lint."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                aliases[item.asname or item.name.split(".")[0]] = (
                    item.name if item.asname else item.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for item in node.names:
                if item.name == "*":
                    continue
                aliases[item.asname or item.name] = (
                    f"{node.module}.{item.name}"
                )
    return aliases


def _mentions_duration(node: ast.AST) -> bool:
    """Does any identifier in the expression reference a duration?"""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and "duration" in sub.id:
            return True
        if isinstance(sub, ast.Attribute) and "duration" in sub.attr:
            return True
    return False


def _is_set_construct(node: ast.expr) -> bool:
    """A set literal, ``set(...)``/``frozenset(...)`` call, or a set
    comprehension — anything whose iteration order is hash-dependent."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


@rule(
    "DT001",
    severity=Severity.ERROR,
    domain="source",
    summary="non-left-to-right summation of report-affecting floats",
    fix="use repro.summation.left_to_right_sum() over .tolist() — np.sum "
        "is pairwise, math.fsum is compensated and builtin sum() "
        "compensates floats from Python 3.12; each changes the bits",
)
def _dt001(ctx: SourceContext, make: Maker) -> Iterator[Diagnostic]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        resolved = ctx.resolve(node.func)
        if resolved == "math.fsum":
            yield make(
                "math.fsum is compensated summation: it produces "
                "different bits than the pinned left-to-right fold "
                "(left_to_right_sum)",
                subject=ctx.subject,
                index=node.lineno,
            )
            continue
        duration_args = any(_mentions_duration(arg) for arg in node.args)
        if resolved == "numpy.sum" and duration_args:
            yield make(
                "np.sum over durations is pairwise summation: it "
                "disagrees with the pinned left-to-right fold "
                "(left_to_right_sum) in the last bits",
                subject=ctx.subject,
                index=node.lineno,
            )
        elif (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "sum"
            and _mentions_duration(node.func.value)
        ):
            yield make(
                ".sum() over durations is pairwise summation: use "
                "left_to_right_sum(x.tolist()) to keep the left-to-right "
                "convention",
                subject=ctx.subject,
                index=node.lineno,
            )


@rule(
    "DT002",
    severity=Severity.WARNING,
    domain="source",
    summary="iteration over an unordered set construct",
    fix="wrap the set in sorted(...) before iterating",
)
def _dt002(ctx: SourceContext, make: Maker) -> Iterator[Diagnostic]:
    iterables: list[ast.expr] = []
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.For):
            iterables.append(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            iterables.extend(gen.iter for gen in node.generators)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("list", "tuple")
            and len(node.args) == 1
            and _is_set_construct(node.args[0])
        ):
            # list(set(...)) materialises hash order directly
            iterables.append(node.args[0])
    for it in iterables:
        if _is_set_construct(it):
            yield make(
                "iterating a set is hash-order-dependent; wrap it in "
                "sorted(...) to pin the order",
                subject=ctx.subject,
                index=it.lineno,
            )


@rule(
    "DT003",
    severity=Severity.ERROR,
    domain="source",
    summary="wall-clock or unseeded randomness in kernel code",
    fix="kernel code must be a pure function of its inputs; thread a "
        "seeded Generator or take timestamps at the boundary",
)
def _dt003(ctx: SourceContext, make: Maker) -> Iterator[Diagnostic]:
    if not ctx.is_kernel:
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        resolved = ctx.resolve(node.func)
        if resolved is None or resolved in _DT003_ALLOWLIST:
            continue
        if resolved in _DT003_DENYLIST:
            yield make(
                f"{resolved}() in kernel code: replay results must be "
                "a pure function of the trace and the assignment",
                subject=ctx.subject,
                index=node.lineno,
            )


def _call_keyword(node: ast.Call, name: str) -> ast.expr | None:
    for kw in node.keywords:
        if kw.arg == name:
            return kw.value
    return None


@rule(
    "DT004",
    severity=Severity.ERROR,
    domain="source",
    summary="writable memory-mapped buffer in kernel code",
    fix="map read-only: numpy.memmap(..., mode='r') / "
        "mmap.mmap(..., access=mmap.ACCESS_READ); a write through a "
        "mapped column would silently rewrite the trace on disk",
)
def _dt004(ctx: SourceContext, make: Maker) -> Iterator[Diagnostic]:
    if not ctx.is_kernel:
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        resolved = ctx.resolve(node.func)
        if resolved == "numpy.memmap":
            # mode is the third positional parameter
            mode = _call_keyword(node, "mode")
            if mode is None and len(node.args) >= 3:
                mode = node.args[2]
            if not (
                isinstance(mode, ast.Constant) and mode.value == "r"
            ):
                yield make(
                    "numpy.memmap without an explicit mode='r' maps the "
                    "file writable (the default is 'r+'); kernel code "
                    "must never write through mapped trace columns",
                    subject=ctx.subject,
                    index=node.lineno,
                )
        elif resolved == "mmap.mmap":
            access = _call_keyword(node, "access")
            if access is None or ctx.resolve(access) != "mmap.ACCESS_READ":
                yield make(
                    "mmap.mmap without access=mmap.ACCESS_READ maps the "
                    "file writable by default; kernel code must map "
                    "trace bytes read-only",
                    subject=ctx.subject,
                    index=node.lineno,
                )


def lint_source_text(
    text: str,
    subject: str,
    *,
    is_kernel: bool | None = None,
    config: Any = None,
) -> list[Diagnostic]:
    """Lint one file's source text (engine-level helper).

    ``is_kernel`` defaults to path inspection: any path component in
    :data:`KERNEL_PACKAGES` makes the file kernel code.  A file that
    does not parse yields a single internal (``DX000``) ERROR finding
    instead of raising.
    """
    from repro.diagnostics.engine import INTERNAL_CODE, run_domain

    if is_kernel is None:
        parts = subject.replace("\\", "/").split("/")
        is_kernel = any(part in KERNEL_PACKAGES for part in parts)
    try:
        ctx = SourceContext.from_source(text, subject, is_kernel)
    except SyntaxError as exc:
        return [
            Diagnostic(
                code=INTERNAL_CODE,
                severity=Severity.ERROR,
                domain="source",
                message=f"cannot parse: {exc.msg} (line {exc.lineno})",
                subject=subject,
                index=exc.lineno,
            )
        ]
    return run_domain("source", ctx, config)
