"""Verdict oracle: Table III expectations plus pinned verdict digests.

A digest covers every property's ``(name, kind, status)`` and, for the
trace-backed verdicts (``cex``/``covered``), the trace depth.  Proof
depths (PDR closing frame, induction k) are left out: they depend on
solver state, not on the verdict.  The pinned digests live in
``oracle.json`` next to this file.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional

ORACLE_PATH = Path(__file__).resolve().parent / "oracle.json"
TRACE_BACKED = ("cex", "covered")


def verdict_lines(properties: Iterable[Mapping[str, object]]) -> List[str]:
    lines = []
    for prop in properties:
        status = prop["status"]
        depth = prop.get("depth") if status in TRACE_BACKED else "-"
        lines.append(f"{prop['name']}/{prop['kind']}/{status}/{depth}")
    return sorted(lines)


def digest(properties: Iterable[Mapping[str, object]]) -> str:
    text = "\n".join(verdict_lines(properties))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def combined_digest(per_label: Mapping[str, str]) -> str:
    text = "\n".join(f"{label}={per_label[label]}"
                     for label in sorted(per_label))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def table3_problem(case, variant: str,
                   properties: List[Mapping[str, object]]) -> Optional[str]:
    """Why these verdicts contradict the case's Table III expectation,
    or None when they agree."""
    checkable = [p for p in properties if p["kind"] in ("assert", "live")]
    all_proven = all(p["status"] == "proven" for p in checkable)
    if variant == "fixed":
        if case.expect_fixed_proof and not all_proven:
            return "fixed variant is expected to prove 100%"
        if not case.expect_fixed_proof and all_proven:
            return "fixed variant is expected to keep a CEX"
        return None
    failing = [p["name"] for p in properties if p["status"] == "cex"]
    if not failing:
        return "buggy variant is expected to hit a CEX"
    if case.expect_buggy_cex and not any(case.expect_buggy_cex in name
                                         for name in failing):
        return (f"buggy variant is expected to fail a "
                f"{case.expect_buggy_cex!r} property, failed {failing}")
    return None


def load(path: Path = ORACLE_PATH) -> Dict[str, Dict[str, str]]:
    return json.loads(path.read_text())


class Oracle:
    """Checks one workload's per-label verdicts against the pins."""

    def __init__(self, section: str,
                 pins: Optional[Mapping[str, str]] = None) -> None:
        self.section = section
        self.pins = dict(pins if pins is not None else load()[section])
        self.mismatches: List[str] = []

    def check(self, label: str, properties: List[Mapping[str, object]],
              case=None, variant: Optional[str] = None) -> bool:
        """True when ``label``'s verdicts match; records why not."""
        got = digest(properties)
        want = self.pins.get(label)
        problem = None
        if want is None:
            problem = "no pinned digest"
        elif got != want:
            problem = f"digest {got} != pinned {want}"
        elif case is not None:
            problem = table3_problem(case, variant, properties)
        if problem:
            self.mismatches.append(f"{label}: {problem}")
            return False
        return True
