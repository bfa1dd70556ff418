"""Step 1 (paper Fig. 5): the AutoSVA parser.

Combines the RTL interface scan with the annotation language parse:

1. relation lines (``TNAME: P -in> Q``) declare transactions and their
   interfaces;
2. explicit attribute lines (``P_suffix = expr``) map RTL expressions to
   transaction attributes;
3. implicit definitions: native input/output ports whose names follow the
   ``{interface}_{suffix}`` convention are picked up automatically without
   annotations ("especially useful for early-stage RTL verification").

The output is a mapping from interface pairs to attribute definitions, ready
for the Transaction Builder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .language import (AttributeDef, AutoSVAError, RelationSpec,
                       parse_attribute_line, parse_relation_line,
                       split_field)
from .rtl_scan import InterfaceScan

__all__ = ["ParsedInterface", "parse_annotations"]


@dataclass
class ParsedInterface:
    """Parser output: relations plus per-interface attribute definitions."""

    scan: InterfaceScan
    relations: List[RelationSpec] = field(default_factory=list)
    attributes: Dict[str, List[AttributeDef]] = field(default_factory=dict)

    def attributes_of(self, interface: str) -> List[AttributeDef]:
        return self.attributes.get(interface, [])


def parse_annotations(scan: InterfaceScan) -> ParsedInterface:
    """Run the annotation parser over a scanned RTL interface."""
    relations: List[RelationSpec] = []
    pending: List[Tuple[int, str]] = []
    for line, text in scan.annotation_lines:
        relation = parse_relation_line(text, line)
        if relation is not None:
            relations.append(relation)
        else:
            pending.append((line, text))

    if not relations:
        raise AutoSVAError(
            f"{scan.module_name}: no transaction relations found in "
            f"annotations (expected 'name: p -in> q' or 'name: p -out> q')")

    names = [relation.name for relation in relations]
    duplicates = {name for name in names if names.count(name) > 1}
    if duplicates:
        raise AutoSVAError(
            f"duplicate transaction names: {', '.join(sorted(duplicates))}")

    interfaces: Tuple[str, ...] = tuple(
        {iface for rel in relations for iface in (rel.p, rel.q)})

    parsed = ParsedInterface(scan=scan, relations=relations)

    def add(attr: AttributeDef) -> None:
        bucket = parsed.attributes.setdefault(attr.interface, [])
        for existing in bucket:
            if existing.suffix == attr.suffix:
                if attr.implicit:
                    return  # explicit annotation wins over convention match
                if existing.implicit:
                    bucket.remove(existing)
                    break
                raise AutoSVAError(
                    f"line {attr.line}: attribute "
                    f"{attr.interface}_{attr.suffix} defined twice")
        bucket.append(attr)

    # Explicit attribute definitions from annotation lines.
    for line, text in pending:
        attr = parse_attribute_line(text, interfaces, line)
        if attr is not None:
            add(attr)

    # Implicit definitions: convention-named ports.
    for port in scan.ports:
        split = split_field(port.name, interfaces)
        if split is None:
            continue
        interface, suffix = split
        add(AttributeDef(field=port.name, interface=interface, suffix=suffix,
                         width_text=port.width_text, rhs=None, implicit=True,
                         line=port.line))
    return parsed
