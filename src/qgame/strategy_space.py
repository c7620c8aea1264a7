"""The four strategy dimensions and the canonical 36-strategy enumeration.

A strategy is one level from each of Target, Content, Tool and Resource,
written as a dot-separated code such as ``D.R.A.PP`` (Domestic target,
Recreational content, Advanced digital tool, mixed Public/Private funding).
The canonical ordering walks Tool in blocks of twelve (T, S, A), the
Target x Content combinations inside each block in the sequence
D.R, I.R, D.C, I.C, and Resource (Pu, Pr, PP) innermost.
"""

from dataclasses import dataclass

from .errors import MalformedCode, UnknownLevel

TARGET_LEVELS = ("D", "I")
CONTENT_LEVELS = ("R", "C")
TOOL_LEVELS = ("T", "S", "A")
RESOURCE_LEVELS = ("Pu", "Pr", "PP")


@dataclass(frozen=True)
class Dimension:
    name: str
    levels: tuple[str, ...]


DIMENSIONS = (
    Dimension("Target", TARGET_LEVELS),
    Dimension("Content", CONTENT_LEVELS),
    Dimension("Tool", TOOL_LEVELS),
    Dimension("Resource", RESOURCE_LEVELS),
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


def _canonical_codes() -> tuple[str, ...]:
    # Tool outermost, then (Content, Target) giving D.R, I.R, D.C, I.C,
    # then Resource innermost; this reproduces the published row order.
    codes = []
    for tool in TOOL_LEVELS:
        for content in CONTENT_LEVELS:
            for target in TARGET_LEVELS:
                for resource in RESOURCE_LEVELS:
                    codes.append(f"{target}.{content}.{tool}.{resource}")
    return tuple(codes)


CANONICAL_CODES = _canonical_codes()


@dataclass(frozen=True)
class StrategySpace:
    strategies: tuple[StrategyCode, ...]

    def __len__(self) -> int:
        return len(self.strategies)

    def __getitem__(self, index: int) -> StrategyCode:
        return self.strategies[index]

    def __iter__(self):
        return iter(self.strategies)

    @property
    def codes(self) -> tuple[str, ...]:
        return tuple(s.code for s in self.strategies)

    def tool_block(self, tool: str) -> list[StrategyCode]:
        """All strategies whose Tool level equals `tool`, in canonical order."""
        if tool not in TOOL_LEVELS:
            raise UnknownLevel(f"{tool!r} is not a Tool level {TOOL_LEVELS}")
        return [s for s in self.strategies if s.tool == tool]


def build_strategy_space() -> StrategySpace:
    """Return the 36 strategies of the 2x2x3x3 space in canonical order."""
    strategies = []
    for idx, code in enumerate(CANONICAL_CODES):
        target, content, tool, resource = code.split(".")
        strategies.append(StrategyCode(target, content, tool, resource, idx))
    return StrategySpace(tuple(strategies))


_SPACE = build_strategy_space()
_INDEX = {s.code: s for s in _SPACE}


def parse_code(text: str) -> StrategyCode:
    """Parse a dot-separated strategy code; a trailing dot is tolerated.

    Raises MalformedCode for the wrong number of parts and UnknownLevel
    when a part is not a valid level for its position. Codes are
    case-sensitive.
    """
    if not isinstance(text, str):
        raise MalformedCode(f"expected a string, got {type(text).__name__}")
    stripped = text[:-1] if text.endswith(".") else text
    parts = stripped.split(".")
    if len(parts) != 4:
        raise MalformedCode(f"{text!r}: expected 4 dot-separated parts, got {len(parts)}")
    for part, dim in zip(parts, DIMENSIONS):
        if part not in dim.levels:
            raise UnknownLevel(f"{text!r}: {part!r} is not a {dim.name} level {dim.levels}")
    code = ".".join(parts)
    return _INDEX[code]
