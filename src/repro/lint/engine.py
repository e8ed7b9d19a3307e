"""The lint engine: file discovery, rule dispatch, and the findings pipeline.

``run_lint`` walks the requested paths, parses every Python file once,
hands the parsed :class:`SourceFile` to each registered rule, and folds the
findings through the committed baseline (see :mod:`repro.lint.baseline`):
pre-existing violations are *ratcheted* — suppressed but counted — while
anything new fails the run.

Rule IDs are grouped by family:

=========  ==================================================
``NM000``  file does not parse (internal)
``NM1xx``  unit consistency (:mod:`repro.lint.rules_units`)
``NM2xx``  model conventions (:mod:`repro.lint.rules_model`)
``NM3xx``  determinism / numerics
           (:mod:`repro.lint.rules_determinism`)
``NM4xx``  concurrency & I/O safety
           (:mod:`repro.lint.rules_concurrency`)
=========  ==================================================

Any finding can be exempted inline with ``# lint: allow(NMxxx): <reason>``
on the flagged line; the reason is mandatory and the exemption is
enforced centrally in :func:`_check_file`.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, List, Optional, Sequence

from repro.errors import ConfigurationError

#: Inline exemption pragma: ``# lint: allow(NM302): why this is safe``.
#: The trailing reason is required — see SourceFile.has_allow_pragma.
_ALLOW_PRAGMA = re.compile(
    r"#\s*lint:\s*allow\((NM\d{3})\)\s*:\s*\S"
)

#: Directory names never descended into.
SKIPPED_DIRS = frozenset({
    "__pycache__", ".git", ".hypothesis", ".pytest_cache", ".benchmarks",
    "node_modules", ".venv", "venv",
})

#: Directory names whose files are "model layers": the analytical models
#: whose conventions (canonical units, typed errors, cached estimates) the
#: NM2xx rules enforce.
MODEL_LAYER_DIRS = frozenset({
    "arch", "circuit", "tech", "perf", "power", "timing", "sparse",
    "workloads",
})

#: Model-layer subset where raw scale-factor literals (NM103) are flagged:
#: the layers that do unit arithmetic on physical quantities.
SCALE_LITERAL_DIRS = frozenset({"arch", "circuit", "tech"})

#: Directories where iteration order feeds cache keys or journal rows, so
#: unordered iteration (NM301) is a reproducibility hazard.
DETERMINISM_DIRS = frozenset({"cache", "dse", "integrity"})

#: Directories holding the vectorized batch backend, where per-element
#: Python loops over design-point arrays (NM204) defeat the whole point.
BATCH_DIRS = frozenset({"batch"})

#: Fault-tolerance layers (the daemon, the sweep engine, and the batch
#: backend's classification/fallback paths), where a silently swallowed
#: exception (NM205) hides exactly the failures the machinery exists to
#: surface.
ROBUSTNESS_DIRS = frozenset({"serve", "dse", "batch"})

#: Layers that own durable on-disk state (sweep and request journals,
#: the surrogate model file, the on-disk cache) and the concurrency
#: machinery around it — the NM4xx rules audit these.
DURABLE_DIRS = frozenset({"serve", "dse", "cache"})

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    severity: str
    path: str  # posix-style path relative to the lint root
    line: int
    col: int
    message: str
    hint: str = ""

    @property
    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def render(self) -> str:
        text = f"{self.location}: {self.rule} {self.severity}: {self.message}"
        if self.hint:
            text += f"  [{self.hint}]"
        return text

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "hint": self.hint,
        }


class SourceFile:
    """One parsed Python file plus the path classification rules key on."""

    def __init__(self, relpath: str, text: str, tree: ast.Module):
        self.relpath = relpath
        self.text = text
        self.tree = tree
        self.lines = text.splitlines()
        self.parts = tuple(Path(relpath).parts)
        self._unit_events = None
        self._flow = None

    def line_text(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1]
        return ""

    def has_allow_pragma(self, rule_id: str, line: int) -> bool:
        """Is ``line`` exempted from ``rule_id`` by an inline pragma?

        The pragma form is ``# lint: allow(NMxxx): <reason>`` on the
        flagged line itself.  The reason is *mandatory* — a bare
        ``allow(NMxxx)`` exempts nothing, so every exemption carries
        its justification next to the code it excuses (unlike the
        baseline file, which records findings without saying why they
        are acceptable).  The engine honors the pragma for every rule
        (see :func:`_check_file`); the pragma must name the exact rule
        it exempts.
        """
        match = _ALLOW_PRAGMA.search(self.line_text(line))
        return bool(match and match.group(1) == rule_id)

    # -- classification ------------------------------------------------------

    @property
    def is_test(self) -> bool:
        name = self.parts[-1] if self.parts else ""
        return (
            "tests" in self.parts
            or name.startswith("test_")
            or name == "conftest.py"
        )

    def in_dirs(self, names: frozenset) -> bool:
        return any(part in names for part in self.parts[:-1])

    @property
    def is_model_layer(self) -> bool:
        if self.is_test:
            return False
        if self.parts and self.parts[-1] == "units.py":
            return True
        return self.in_dirs(MODEL_LAYER_DIRS)

    @property
    def in_scale_literal_scope(self) -> bool:
        return not self.is_test and self.in_dirs(SCALE_LITERAL_DIRS)

    @property
    def in_determinism_scope(self) -> bool:
        return not self.is_test and self.in_dirs(DETERMINISM_DIRS)

    @property
    def in_batch_scope(self) -> bool:
        return not self.is_test and self.in_dirs(BATCH_DIRS)

    @property
    def in_robustness_scope(self) -> bool:
        return not self.is_test and self.in_dirs(ROBUSTNESS_DIRS)

    @property
    def in_durable_scope(self) -> bool:
        return not self.is_test and self.in_dirs(DURABLE_DIRS)

    # -- shared passes -------------------------------------------------------

    @property
    def unit_events(self):
        """Unit-inference events, computed once and shared by the NM1xx rules."""
        if self._unit_events is None:
            from repro.lint.units_pass import UnitInference

            self._unit_events = UnitInference().run(self.tree)
        return self._unit_events

    @property
    def flow(self):
        """The module call graph + effects, shared by the NM4xx rules."""
        if self._flow is None:
            from repro.lint.flow import ModuleFlow

            self._flow = ModuleFlow(self.tree)
        return self._flow


class Rule:
    """Base class for lint rules.

    Subclasses set :attr:`id`, :attr:`severity`, and :attr:`title`, and
    implement :meth:`check`; :meth:`applies` narrows the rule to the file
    classes it is meant for.
    """

    id: str = "NM?"
    severity: str = SEVERITY_WARNING
    title: str = ""

    def applies(self, sf: SourceFile) -> bool:
        return True

    def check(self, sf: SourceFile) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(self, sf: SourceFile, node: ast.AST, message: str,
                hint: str = "") -> Finding:
        return Finding(
            rule=self.id,
            severity=self.severity,
            path=sf.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
            hint=hint,
        )


def all_rules() -> List[Rule]:
    """Every registered rule, NM1xx through NM4xx, in catalog order."""
    from repro.lint.rules_concurrency import CONCURRENCY_RULES
    from repro.lint.rules_determinism import DETERMINISM_RULES
    from repro.lint.rules_model import MODEL_RULES
    from repro.lint.rules_units import UNIT_RULES

    return [*UNIT_RULES, *MODEL_RULES, *DETERMINISM_RULES,
            *CONCURRENCY_RULES]


def rule_catalog() -> dict:
    """``rule id -> (severity, title)`` for docs and ``--rule`` validation."""
    return {rule.id: (rule.severity, rule.title) for rule in all_rules()}


@dataclass
class LintReport:
    """The outcome of one lint run, after baseline folding."""

    findings: List[Finding] = field(default_factory=list)
    new: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    stale: List[dict] = field(default_factory=list)
    files_checked: int = 0

    @property
    def exit_code(self) -> int:
        return 2 if self.new else 0

    def render_text(self) -> str:
        lines = [finding.render() for finding in self.new]
        summary = (
            f"{self.files_checked} file(s) checked: "
            f"{len(self.new)} new finding(s), "
            f"{len(self.suppressed)} baselined"
        )
        if self.stale:
            summary += f", {len(self.stale)} stale baseline entr(y/ies)"
        lines.append(summary)
        return "\n".join(lines)

    def render_json(self) -> str:
        return json.dumps(
            {
                "files_checked": self.files_checked,
                "new": [finding.to_dict() for finding in self.new],
                "suppressed": [
                    finding.to_dict() for finding in self.suppressed
                ],
                "stale_baseline": self.stale,
                "exit_code": self.exit_code,
            },
            indent=2,
        )

    def render_sarif(self) -> str:
        """SARIF 2.1.0 — what CI uploads so code hosts annotate PRs.

        New findings are plain results; baselined ones are included but
        marked ``suppressed`` (kind ``external``: the suppression lives
        in ``lint_baseline.json``, not the source), so viewers show the
        ratchet state honestly without failing the run twice.
        """
        catalog = rule_catalog()
        rule_ids = sorted(catalog)
        rule_index = {rule_id: i for i, rule_id in enumerate(rule_ids)}
        # NM000 (parse failure) is synthesized by the engine, not a
        # registered rule; give it an entry so its results resolve.
        if any(f.rule == "NM000" for f in self.new + self.suppressed):
            rule_index.setdefault("NM000", len(rule_ids))
            if "NM000" not in catalog:
                catalog["NM000"] = (SEVERITY_ERROR, "file does not parse")
                rule_ids = rule_ids + ["NM000"]

        def result(finding: Finding, suppressed: bool) -> dict:
            entry = {
                "ruleId": finding.rule,
                "ruleIndex": rule_index[finding.rule],
                "level": "error" if finding.severity == SEVERITY_ERROR
                else "warning",
                "message": {
                    "text": finding.message + (
                        f"  [{finding.hint}]" if finding.hint else ""
                    )
                },
                "locations": [{
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": finding.path,
                            "uriBaseId": "ROOT",
                        },
                        "region": {
                            "startLine": finding.line,
                            "startColumn": finding.col,
                        },
                    }
                }],
            }
            if suppressed:
                entry["suppressions"] = [{"kind": "external"}]
            return entry

        sarif = {
            "$schema": (
                "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                "master/Schemata/sarif-schema-2.1.0.json"
            ),
            "version": "2.1.0",
            "runs": [{
                "tool": {
                    "driver": {
                        "name": "neurometer-lint",
                        "informationUri": "docs/lint.md",
                        "rules": [
                            {
                                "id": rule_id,
                                "shortDescription": {
                                    "text": catalog[rule_id][1]
                                },
                                "defaultConfiguration": {
                                    "level": "error"
                                    if catalog[rule_id][0] == SEVERITY_ERROR
                                    else "warning"
                                },
                            }
                            for rule_id in rule_ids
                        ],
                    }
                },
                "results": (
                    [result(f, suppressed=False) for f in self.new]
                    + [result(f, suppressed=True) for f in self.suppressed]
                ),
            }],
        }
        return json.dumps(sarif, indent=2)


def _iter_python_files(path: Path) -> Iterable[Path]:
    if path.is_file():
        if path.suffix == ".py":
            yield path
        return
    for candidate in sorted(path.rglob("*.py")):
        if not any(part in SKIPPED_DIRS for part in candidate.parts):
            yield candidate


def _relpath(path: Path, root: Path) -> str:
    try:
        rel = path.resolve().relative_to(root.resolve())
    except ValueError:
        import os

        rel = Path(os.path.relpath(path.resolve(), root.resolve()))
    return rel.as_posix()


def parse_source(relpath: str, text: str) -> "SourceFile | Finding":
    """Parse one file; a syntax error becomes an NM000 finding."""
    try:
        tree = ast.parse(text)
    except (SyntaxError, ValueError) as error:
        return Finding(
            rule="NM000",
            severity=SEVERITY_ERROR,
            path=relpath,
            line=getattr(error, "lineno", 1) or 1,
            col=(getattr(error, "offset", 1) or 1),
            message=f"file does not parse: {getattr(error, 'msg', error)}",
        )
    return SourceFile(relpath, text, tree)


def check_source(text: str, relpath: str = "<memory>.py",
                 rules: Optional[Sequence[Rule]] = None) -> List[Finding]:
    """Lint one in-memory source blob (fixture tests, property tests)."""
    parsed = parse_source(relpath, text)
    if isinstance(parsed, Finding):
        return [parsed]
    return _check_file(parsed, list(rules) if rules is not None else all_rules())


def _check_file(sf: SourceFile, rules: Sequence[Rule]) -> List[Finding]:
    findings: List[Finding] = []
    for rule in rules:
        if rule.applies(sf):
            for finding in rule.check(sf):
                # Central pragma enforcement: a justified inline
                # `# lint: allow(NMxxx): reason` on the flagged line
                # exempts that finding for every rule family.
                if sf.has_allow_pragma(finding.rule, finding.line):
                    continue
                findings.append(finding)
    return findings


def _select_rules(rule_ids: Optional[Sequence[str]]) -> List[Rule]:
    rules = all_rules()
    if not rule_ids:
        return rules
    known = {rule.id for rule in rules}
    unknown = sorted(set(rule_ids) - known)
    if unknown:
        raise ConfigurationError(
            f"unknown lint rule(s) {unknown}; choose from {sorted(known)}"
        )
    wanted = set(rule_ids)
    return [rule for rule in rules if rule.id in wanted]


def run_lint(
    paths: Sequence,
    root: "Path | str | None" = None,
    rules: Optional[Sequence[str]] = None,
    baseline_path: "Path | str | None" = None,
    update_baseline: bool = False,
) -> LintReport:
    """Lint ``paths`` and fold the findings through the baseline.

    Args:
        paths: Files or directories to lint (recursively).
        root: Directory findings paths are reported relative to (and the
            directory baseline fingerprints are anchored at).  Defaults to
            the current working directory.
        rules: Rule IDs to run (default: all).
        baseline_path: Ratchet file; findings whose fingerprints appear in
            it are suppressed, not reported.  A missing file means no
            baseline.
        update_baseline: Rewrite ``baseline_path`` from the current
            findings (keeping the justifications of entries that survive)
            instead of failing on them.
    """
    from repro.lint.baseline import (
        fingerprint_findings,
        load_baseline,
        save_baseline,
    )

    root = Path(root) if root is not None else Path.cwd()
    selected = _select_rules(rules)

    findings: List[Finding] = []
    sources: dict = {}
    files_checked = 0
    for path in paths:
        path = Path(path)
        if not path.exists():
            raise ConfigurationError(f"lint path does not exist: {path}")
        for file_path in _iter_python_files(path):
            relpath = _relpath(file_path, root)
            if relpath in sources:
                continue  # overlapping path arguments
            try:
                text = file_path.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as error:
                findings.append(Finding(
                    rule="NM000",
                    severity=SEVERITY_ERROR,
                    path=relpath,
                    line=1,
                    col=1,
                    message=f"file is unreadable: {error}",
                ))
                sources[relpath] = None
                continue
            files_checked += 1
            parsed = parse_source(relpath, text)
            if isinstance(parsed, Finding):
                findings.append(parsed)
                sources[relpath] = None
                continue
            sources[relpath] = parsed
            findings.extend(_check_file(parsed, selected))

    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    fingerprints = fingerprint_findings(findings, sources)

    report = LintReport(findings=findings, files_checked=files_checked)
    baseline = load_baseline(baseline_path) if baseline_path else {}
    seen = set()
    for finding, fingerprint in zip(findings, fingerprints):
        if fingerprint in baseline:
            seen.add(fingerprint)
            report.suppressed.append(finding)
        else:
            report.new.append(finding)
    report.stale = [
        entry for fingerprint, entry in baseline.items()
        if fingerprint not in seen
    ]

    if update_baseline:
        if baseline_path is None:
            raise ConfigurationError(
                "--update-baseline requires a baseline path"
            )
        save_baseline(baseline_path, findings, fingerprints, baseline)
        # After an update the ratchet matches reality by construction.
        report.new = []
        report.suppressed = list(findings)
        report.stale = []
    return report
