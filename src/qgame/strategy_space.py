"""The four strategy dimensions and the canonical 36-strategy enumeration.

A strategy is one level from each of Target, Content, Tool and Resource,
written as a dot-separated code such as ``D.R.A.PP`` (Domestic target,
Recreational content, Advanced digital tool, mixed Public/Private funding).
The canonical ordering walks Tool in blocks of twelve (T, S, A), the
Target x Content combinations inside each block in the sequence
D.R, I.R, D.C, I.C, and Resource (Pu, Pr, PP) innermost. `STRATEGIES`
holds the 36 strategies in that order and `CANONICAL_CODES` their codes;
every strategy-indexed table and vector in the package follows it.
"""

import itertools
from dataclasses import dataclass

from .errors import QGameError

TARGET_LEVELS = ("D", "I")
CONTENT_LEVELS = ("R", "C")
TOOL_LEVELS = ("T", "S", "A")
RESOURCE_LEVELS = ("Pu", "Pr", "PP")

# (name, levels) in code position order, for parse_code's messages
_DIMENSIONS = (
    ("Target", TARGET_LEVELS),
    ("Content", CONTENT_LEVELS),
    ("Tool", TOOL_LEVELS),
    ("Resource", RESOURCE_LEVELS),
)


@dataclass(frozen=True)
class StrategyCode:
    target: str
    content: str
    tool: str
    resource: str
    index: int

    @property
    def code(self) -> str:
        return f"{self.target}.{self.content}.{self.tool}.{self.resource}"

    def __str__(self) -> str:
        return self.code


# Tool outermost, then (Content, Target) giving D.R, I.R, D.C, I.C,
# then Resource innermost; this reproduces the published row order.
STRATEGIES = tuple(
    StrategyCode(target, content, tool, resource, index)
    for index, (tool, content, target, resource) in enumerate(
        itertools.product(TOOL_LEVELS, CONTENT_LEVELS, TARGET_LEVELS, RESOURCE_LEVELS)
    )
)
CANONICAL_CODES = tuple(s.code for s in STRATEGIES)
_INDEX = dict(zip(CANONICAL_CODES, STRATEGIES))


def parse_code(text: str) -> StrategyCode:
    """Parse a dot-separated strategy code; a trailing dot is tolerated.

    Raises QGameError for the wrong number of parts and when a part is
    not a valid level for its position. Codes are case-sensitive.
    """
    if not isinstance(text, str):
        raise QGameError(f"expected a string, got {type(text).__name__}")
    stripped = text[:-1] if text.endswith(".") else text
    parts = stripped.split(".")
    if len(parts) != 4:
        raise QGameError(f"{text!r}: expected 4 dot-separated parts, got {len(parts)}")
    for part, (name, levels) in zip(parts, _DIMENSIONS):
        if part not in levels:
            raise QGameError(f"{text!r}: {part!r} is not a {name} level {levels}")
    return _INDEX[".".join(parts)]
