"""The ``repro lint`` subcommand.

Without targets, audits the whole project surface: every built-in
application trace (generated straight into columnar storage — no record
objects), the default gear sets, the platform, the model invariants,
and the determinism (DT) rules over repro's own installed source.  With
targets, audits exactly the given artifacts — trace files (``.jsonl`` /
``.jsonl.gz``, loaded columnar, or binary ``.rpcs`` stores recognised
by magic bytes and opened memory-mapped), frequency-assignment
``.json`` files (the ``--save-assignment`` artifact), campaign
manifests, and ``.py`` files or source directories::

    repro lint                                   # whole-project audit
    repro lint cg32.jsonl results/manifest.json  # specific artifacts
    repro lint assignment.json --gears uniform:6 # AS feasibility rules
    repro lint src/repro --target source         # determinism lint
    repro lint --power-cap 40 --power-cap-ranks 32  # PC feasibility
    repro lint --select TR --ignore TR006        # rule selection
    repro lint --format sarif -o lint.sarif      # code-scanning upload
    repro lint --baseline lint-baseline.json     # ratchet adoption

``--target {trace,assignment,source,all}`` narrows both the no-target
audit and which explicit targets are consumed (others are skipped with
a note); ``--select``/``--ignore``/``--fail-on`` cover the AS/PC/DT
prefixes exactly like the older packs.

Exit status: 0 clean (below the ``--fail-on`` threshold), 1 findings at
or above the threshold, 2 usage or I/O errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence

from repro.diagnostics.baseline import (
    apply_baseline,
    load_baseline,
    write_baseline,
)
from repro.diagnostics.engine import (
    LintConfig,
    exit_code,
    lint_assignment,
    lint_gear_set,
    lint_manifest,
    lint_models,
    lint_platform,
    lint_source_paths,
    lint_trace_subject,
    screen_power_cap,
)
from repro.diagnostics.model import Diagnostic, Severity, sort_key
from repro.diagnostics.sarif import to_sarif_json

__all__ = ["DEFAULT_GEAR_SPECS", "add_lint_arguments", "run_lint"]

#: Gear-set specs audited by the no-target whole-project run.
DEFAULT_GEAR_SPECS = (
    "uniform:6",
    "exponential:6",
    "limited",
    "unlimited",
    "avg-discrete",
)

_SEVERITIES = {
    "error": Severity.ERROR,
    "warning": Severity.WARNING,
    "info": Severity.INFO,
}


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Register ``repro lint`` arguments on a subcommand parser."""
    parser.add_argument(
        "targets",
        nargs="*",
        help="trace files (.jsonl/.jsonl.gz or binary .rpcs stores), "
        "assignment/manifest .json files, and/or .py files or source "
        "directories; default: audit every built-in app + gear sets + "
        "platform + models + repro's own source",
    )
    parser.add_argument(
        "--target",
        choices=("trace", "assignment", "source", "all"),
        default="all",
        help="restrict which analysis targets run (default all); "
        "explicit targets of other kinds are skipped with a note",
    )
    parser.add_argument(
        "--power-cap",
        type=float,
        metavar="WATTS",
        help="run the PC feasibility rules against this cap (model "
        "watts) for each audited gear set",
    )
    parser.add_argument(
        "--power-cap-ranks",
        type=int,
        default=1,
        metavar="N",
        help="world size the power cap must feed (default 1)",
    )
    parser.add_argument(
        "--apps",
        help="comma-separated built-in instance subset for the no-target "
        "audit (default: the paper's twelve)",
    )
    parser.add_argument(
        "--iterations",
        type=int,
        default=2,
        help="iterations when generating built-in app traces (default 2; "
        "lint findings are iteration-insensitive)",
    )
    parser.add_argument(
        "--beta", type=float, default=0.5, help="β audited by the model rules"
    )
    parser.add_argument(
        "--gears",
        help="comma-separated gear-set specs to audit (default: "
        + ",".join(DEFAULT_GEAR_SPECS) + ")",
    )
    parser.add_argument("--platform", help="platform JSON file to audit")
    parser.add_argument(
        "--golden",
        help="golden snapshot JSON to compare manifests against "
        "(default: tests/golden_results.json when present)",
    )
    parser.add_argument(
        "--select",
        action="append",
        default=[],
        metavar="CODES",
        help="only run rules whose code starts with one of these "
        "comma-separated prefixes (e.g. TR,GR003)",
    )
    parser.add_argument(
        "--ignore",
        action="append",
        default=[],
        metavar="CODES",
        help="skip rules whose code starts with one of these prefixes",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default text)",
    )
    parser.add_argument(
        "--fail-on",
        choices=("error", "warning", "info"),
        default="error",
        help="exit non-zero when a finding at or above this severity "
        "survives filtering (default error)",
    )
    parser.add_argument(
        "--baseline",
        help="baseline file: accepted findings are filtered out before "
        "--fail-on is evaluated",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="write the current findings to --baseline and exit 0",
    )
    parser.add_argument(
        "-o",
        "--output",
        default="-",
        help="write the report here instead of stdout",
    )


def _split_csv(values: Sequence[str]) -> tuple[str, ...]:
    out: list[str] = []
    for value in values:
        out.extend(part.strip() for part in value.split(",") if part.strip())
    return tuple(out)


def _load_target(path: str):
    """Classify a target path: ('trace'|'assignment'|'manifest'|'source',
    path).  ``.json`` files are peeked at — the ``--save-assignment``
    artifact (``gears`` + ``target_time`` keys) lints as an assignment,
    anything else as a campaign manifest."""
    import pathlib

    from repro.traces.colstore import STORE_EXTENSION, is_store_file

    if path.endswith((".jsonl", ".jsonl.gz")):
        return "trace", path
    # binary columnar stores are recognised by magic bytes, not just
    # extension, so renamed artifacts still route to the trace rules
    if path.endswith(STORE_EXTENSION) or is_store_file(path):
        return "trace", path
    if path.endswith(".py") or pathlib.Path(path).is_dir():
        return "source", path
    if path.endswith(".json"):
        try:
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ValueError(f"cannot lint {path!r}: {exc}") from None
        if (
            isinstance(payload, dict)
            and "gears" in payload
            and "target_time" in payload
        ):
            return "assignment", path
        return "manifest", path
    raise ValueError(
        f"cannot lint {path!r}: expected a .jsonl/.jsonl.gz trace, a "
        "binary trace store, an assignment or manifest .json, or a .py "
        "file / source directory"
    )


def _want(args, kind: str) -> bool:
    """Does ``--target`` admit this analysis kind?"""
    return args.target in ("all", kind)


def _gear_specs(args) -> tuple[str, ...]:
    return _split_csv([args.gears]) if args.gears else DEFAULT_GEAR_SPECS


def _builtin_subjects(args, platform, config):
    """Findings for the no-target whole-project audit."""
    from repro.apps import build_app
    from repro.apps.registry import TABLE3_INSTANCES
    from repro.cli import build_gear_set

    diagnostics: list[Diagnostic] = []
    if _want(args, "trace"):
        apps = (
            tuple(a.strip() for a in args.apps.split(",") if a.strip())
            if args.apps
            else TABLE3_INSTANCES
        )
        for name in apps:
            app = build_app(name, iterations=args.iterations)
            # straight into pooled columns: the lint path never
            # materialises a record object, whatever the rank count
            trace = app.columnar_trace()
            diagnostics += lint_trace_subject(trace, platform, name, config)

    audited = set()
    for spec in _gear_specs(args):
        gear_set = build_gear_set(spec)
        if gear_set.name in audited:
            continue
        audited.add(gear_set.name)
        if args.target == "all":
            diagnostics += lint_gear_set(gear_set, config=config)
        if args.power_cap is not None and _want(args, "assignment"):
            diagnostics += screen_power_cap(
                args.power_cap,
                args.power_cap_ranks,
                gear_set,
                config=config,
            )

    if _want(args, "source"):
        import pathlib

        import repro

        package_root = pathlib.Path(repro.__file__).parent
        diagnostics += lint_source_paths(
            [package_root], config, root=package_root.parent
        )
    return diagnostics


def _render(diagnostics: list[Diagnostic], fmt: str) -> str:
    if fmt == "sarif":
        return to_sarif_json(diagnostics)
    if fmt == "json":
        payload = [
            {
                "code": d.code,
                "severity": str(d.severity),
                "domain": d.domain,
                "subject": d.subject,
                "rank": d.rank,
                "index": d.index,
                "message": d.message,
                "fix": d.fix,
                "fingerprint": d.fingerprint(),
            }
            for d in diagnostics
        ]
        return json.dumps(payload, indent=2) + "\n"
    lines = [str(d) for d in diagnostics]
    return "\n".join(lines) + ("\n" if lines else "")


def run_lint(args: argparse.Namespace) -> int:
    """Execute ``repro lint``; returns the process exit status."""
    from repro.diagnostics.engine import severity_counts

    config = LintConfig(
        select=_split_csv(args.select),
        ignore=_split_csv(args.ignore),
        fail_on=_SEVERITIES[args.fail_on],
    )

    if args.platform:
        from repro.netsim.config import load_platform

        platform = load_platform(args.platform)
        platform_subject = args.platform
    else:
        from repro.netsim.platform import MYRINET_LIKE

        platform = MYRINET_LIKE
        platform_subject = platform.name

    golden_path = args.golden
    if golden_path is None:
        import pathlib

        candidate = pathlib.Path("tests/golden_results.json")
        golden_path = str(candidate) if candidate.is_file() else None

    diagnostics: list[Diagnostic] = []
    try:
        if args.targets:
            for target in args.targets:
                kind, path = _load_target(target)
                # manifests ride with the trace target kind
                target_kind = "trace" if kind == "manifest" else kind
                if not _want(args, target_kind):
                    print(
                        f"repro lint: skipping {path} "
                        f"(--target {args.target})",
                        file=sys.stderr,
                    )
                    continue
                if kind == "trace":
                    from repro.traces.jsonio import read_trace

                    # lints at any rank count without materialising
                    # record objects; binary stores are opened
                    # memory-mapped so even the columns stay out of core
                    trace = read_trace(path, mmap=True)
                    trace.validate()
                    diagnostics += lint_trace_subject(
                        trace, platform, path, config
                    )
                elif kind == "assignment":
                    from repro.cli import build_gear_set

                    with open(path, encoding="utf-8") as fh:
                        payload = json.load(fh)
                    gear_set = build_gear_set(_gear_specs(args)[0])
                    diagnostics += lint_assignment(
                        gear_set,
                        assignment=payload,
                        subject=path,
                        config=config,
                    )
                elif kind == "source":
                    diagnostics += lint_source_paths([path], config)
                else:
                    diagnostics += lint_manifest(path, golden_path, config)
            if args.power_cap is not None and _want(args, "assignment"):
                from repro.cli import build_gear_set

                gear_set = build_gear_set(_gear_specs(args)[0])
                diagnostics += screen_power_cap(
                    args.power_cap,
                    args.power_cap_ranks,
                    gear_set,
                    config=config,
                )
        else:
            diagnostics += _builtin_subjects(args, platform, config)
            if args.target == "all":
                diagnostics += lint_platform(
                    platform, platform_subject, config
                )
                diagnostics += lint_models(beta=args.beta, config=config)
    except (OSError, ValueError) as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2

    diagnostics.sort(key=sort_key)

    if args.write_baseline:
        if not args.baseline:
            print(
                "repro lint: --write-baseline requires --baseline PATH",
                file=sys.stderr,
            )
            return 2
        write_baseline(args.baseline, diagnostics)
        print(
            f"wrote {len(diagnostics)} accepted finding(s) to "
            f"{args.baseline}",
            file=sys.stderr,
        )
        return 0

    if args.baseline:
        try:
            accepted = load_baseline(args.baseline)
        except (OSError, ValueError) as exc:
            print(f"repro lint: {exc}", file=sys.stderr)
            return 2
        diagnostics = apply_baseline(diagnostics, accepted)

    text = _render(diagnostics, args.format)
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.output}", file=sys.stderr)

    counts = severity_counts(diagnostics)
    print(
        f"repro lint: {counts['error']} error(s), {counts['warning']} "
        f"warning(s), {counts['info']} info(s)",
        file=sys.stderr,
    )
    return exit_code(diagnostics, config.fail_on)
