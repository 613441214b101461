"""Config/registry-drift checker: the configuration docs stay complete.

Two inventories here rot independently of the telemetry ones:

* the :class:`HoloCleanConfig` dataclass grows fields PR by PR, and
  ``docs/configuration.md`` must list **every** field (and no phantom
  ones) — the docs table is the only place defaults and semantics are
  explained to users;
* the engine backend registry is populated by ``register_backend``
  calls at import time, and every registered backend must be
  documented there too.
"""

from __future__ import annotations

import ast
import re

from repro.analysis.base import (
    AnalysisContext,
    Checker,
    Finding,
    call_name,
    literal_str,
)

CONFIG_REL = "src/repro/core/config.py"
DOC_REL = "docs/configuration.md"

_BACKTICK = re.compile(r"`([^`]+)`")


def config_fields(ctx: AnalysisContext) -> dict[str, int]:
    """``field name -> line`` of every :class:`HoloCleanConfig` field."""
    module = ctx.module(CONFIG_REL)
    if module is None:
        return {}
    fields: dict[str, int] = {}
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ClassDef) or node.name != "HoloCleanConfig":
            continue
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                fields.setdefault(stmt.target.id, stmt.lineno)
    return fields


def registered_backends(ctx: AnalysisContext) -> dict[str, tuple[str, int]]:
    """Backend names registered by literal ``register_backend`` calls."""
    backends: dict[str, tuple[str, int]] = {}
    for module in ctx.modules:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if call_name(node).rpartition(".")[2] != "register_backend":
                continue
            if not node.args:
                continue
            name = literal_str(node.args[0])
            if name is not None:
                backends.setdefault(name, (module.rel, node.lineno))
    return backends


def _documented_tokens(text: str) -> set[str]:
    """Backticked identifiers in the first cell of every table row."""
    tokens: set[str] = set()
    for line in text.splitlines():
        if not line.lstrip().startswith("|"):
            continue
        cells = line.strip().strip("|").split("|")
        if cells:
            tokens.update(
                token
                for token in _BACKTICK.findall(cells[0])
                if "<" not in token and " " not in token
            )
    return tokens


class ConfigDriftChecker(Checker):
    """``HoloCleanConfig`` and the backend registry vs their docs."""

    name = "config"
    rules = (
        "config-undocumented",
        "config-unknown",
        "backend-undocumented",
    )
    doc_rel = DOC_REL

    def check(self, ctx: AnalysisContext) -> list[Finding]:
        text = ctx.doc_text(self.doc_rel)
        if text is None:
            ctx.errors.append(f"config: cannot read {self.doc_rel}")
            return []
        findings: list[Finding] = []
        documented = _documented_tokens(text)
        fields = config_fields(ctx)

        for name in sorted(set(fields) - documented):
            findings.append(
                self.finding(
                    "config-undocumented",
                    CONFIG_REL,
                    fields[name],
                    f"HoloCleanConfig field '{name}' is missing from "
                    f"{self.doc_rel}",
                )
            )
        for name in sorted(documented - set(fields)):
            # The doc also lists backend names; those are not phantom
            # config fields.
            if name in registered_backends(ctx):
                continue
            findings.append(
                self.finding(
                    "config-unknown",
                    self.doc_rel,
                    ctx.doc_line(self.doc_rel, f"`{name}`"),
                    f"documented name '{name}' is neither a HoloCleanConfig "
                    "field nor a registered backend",
                )
            )

        for name, (rel, line) in sorted(registered_backends(ctx).items()):
            if f"`{name}`" not in text:
                findings.append(
                    self.finding(
                        "backend-undocumented",
                        rel,
                        line,
                        f"backend '{name}' is registered here but never "
                        f"mentioned in {self.doc_rel}",
                    )
                )
        return findings
