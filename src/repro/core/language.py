"""The AutoSVA annotation language (Table I of the paper).

Grammar, reproduced from the paper::

    TRANSACTION ::= TNAME: RELATION ATTRIB
    RELATION    ::= P -in> Q | P -out> Q
    ATTRIB      ::= ATTRIB, ATTRIB | SIG = ASSIGN | input SIG | output SIG
    SIG         ::= [STR:0] FIELD | STR FIELD
    FIELD       ::= P SUFFIX | Q SUFFIX
    SUFFIX      ::= val | ack | transid | transid_unique | active | stable | data
    TNAME, P, Q ::= STR

Annotations are Verilog comments in the interface-declaration section of the
DUT, inside a region marked with the ``AUTOSVA`` macro.  ``P`` and ``Q`` name
the request and response interface of a transaction; each attribute line maps
an RTL expression to a transaction attribute.

The paper's own examples (Fig. 3) use ``rdy`` where Table I says ``ack``
(``lsu_req_rdy = lsu_ready_o``); the released tool accepts both, so this
implementation treats ``rdy`` as an alias of ``ack`` and normalizes it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

__all__ = [
    "AutoSVAError", "Direction", "SUFFIXES", "SUFFIX_ALIASES", "MACRO",
    "RelationSpec", "AttributeDef", "split_field",
]

MACRO = "AUTOSVA"

#: Legal transaction-attribute suffixes (Table I).
SUFFIXES = ("val", "ack", "transid", "transid_unique", "active", "stable",
            "data")

#: Accepted aliases, normalized before semantic processing.
SUFFIX_ALIASES = {"rdy": "ack", "ready": "ack", "valid": "val"}


class AutoSVAError(ValueError):
    """User-facing error in annotations or the RTL interface section."""


class Direction(Enum):
    """Transaction direction from the DUT's perspective (Section III-A)."""

    IN = "in"     # DUT receives P and must produce Q
    OUT = "out"   # DUT issues P and the environment must produce Q

    @property
    def arrow(self) -> str:
        return f"-{self.value}>"


@dataclass
class RelationSpec:
    """``TNAME: P -in> Q`` — one transaction declaration line."""

    name: str
    p: str
    q: str
    direction: Direction
    line: int = 0


@dataclass
class AttributeDef:
    """One attribute definition.

    ``field`` is the annotated signal name (``lsu_req_val``); ``interface``
    and ``suffix`` its split form; ``width_text`` the declared width
    expression (None for 1-bit); ``rhs`` the Verilog expression it maps to
    (None for implicit port definitions, where the RTL port itself is the
    signal); ``implicit`` marks convention-matched ports.
    """

    field: str
    interface: str
    suffix: str
    width_text: Optional[str] = None
    rhs: Optional[str] = None
    implicit: bool = False
    line: int = 0

    @property
    def is_scalar(self) -> bool:
        return self.width_text is None


_RELATION_RE = re.compile(
    r"^\s*(?P<name>[A-Za-z_][\w\-]*)\s*:\s*"
    r"(?P<p>[A-Za-z_]\w*)\s*-\s*(?P<dir>in|out)\s*>\s*"
    r"(?P<q>[A-Za-z_]\w*)\s*$")

_ATTRIB_RE = re.compile(
    r"^\s*(?:(?P<io>input|output)\s+)?"
    r"(?:\[\s*(?P<width>[^\]]+?)\s*:\s*0\s*\]\s*)?"
    r"(?P<field>[A-Za-z_][\w.]*)\s*"
    r"(?:=\s*(?P<rhs>.+?)\s*)?$")


def split_field(name: str, interfaces: Tuple[str, ...]) -> Optional[Tuple[str, str]]:
    """Split ``lsu_req_transid_unique`` into (interface, suffix).

    Matches the *longest* declared interface prefix, then requires the
    remainder to be a legal suffix (or alias).  Returns None when the name
    does not belong to any annotated interface — the parser must ignore such
    declarations (Section III-A: "AutoSVA's parser ignores signal
    declarations that do not match P or Q prefixes and the language's legal
    suffixes").
    """
    for iface in sorted(interfaces, key=len, reverse=True):
        prefix = iface + "_"
        if name.startswith(prefix):
            suffix = name[len(prefix):]
            normalized = SUFFIX_ALIASES.get(suffix, suffix)
            if normalized in SUFFIXES:
                return iface, normalized
    return None


def parse_relation_line(text: str, line: int) -> Optional[RelationSpec]:
    """Parse a ``TNAME: P -in> Q`` line; None if it is not a relation."""
    match = _RELATION_RE.match(text)
    if not match:
        return None
    return RelationSpec(name=match.group("name"), p=match.group("p"),
                        q=match.group("q"),
                        direction=Direction(match.group("dir")), line=line)


def parse_attribute_line(text: str, interfaces: Tuple[str, ...],
                         line: int) -> Optional[AttributeDef]:
    """Parse an attribute-definition annotation line.

    Returns None for lines that do not define an attribute of a declared
    interface (ignored, per the paper).  Raises :class:`AutoSVAError` for
    lines that *look* like attribute definitions of a declared interface but
    are malformed.
    """
    stripped = text.strip()
    if not stripped:
        return None
    match = _ATTRIB_RE.match(stripped)
    if not match:
        return None
    name = match.group("field")
    split = split_field(name, interfaces)
    if split is None:
        return None
    interface, suffix = split
    rhs = match.group("rhs")
    io = match.group("io")
    if rhs is None and io is None:
        raise AutoSVAError(
            f"line {line}: attribute {name!r} needs '= expr' or an "
            f"input/output declaration")
    return AttributeDef(field=name, interface=interface, suffix=suffix,
                        width_text=match.group("width"), rhs=rhs,
                        implicit=rhs is None, line=line)
