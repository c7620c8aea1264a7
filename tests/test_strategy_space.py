import itertools

import pytest

from qgame import CANONICAL_CODES, STRATEGIES, parse_code
from qgame.errors import MalformedCode, UnknownLevel
from qgame.strategy_space import (
    CONTENT_LEVELS,
    RESOURCE_LEVELS,
    TARGET_LEVELS,
    TOOL_LEVELS,
)

from table_fixtures import CANONICAL_ORDER


def test_canonical_sequence_matches_published_row_order():
    assert list(CANONICAL_CODES) == CANONICAL_ORDER
    assert [s.code for s in STRATEGIES] == CANONICAL_ORDER


def test_size_and_distinctness():
    assert len(STRATEGIES) == 36
    assert len(set(CANONICAL_CODES)) == 36


@pytest.mark.parametrize(
    "index,code",
    [(0, "D.R.T.Pu"), (3, "I.R.T.Pu"), (26, "D.R.A.PP"), (35, "I.C.A.PP")],
)
def test_known_positions(index, code):
    assert STRATEGIES[index].code == code
    assert STRATEGIES[index].index == index
    assert CANONICAL_CODES[index] == code


def test_tool_blocks_of_twelve():
    for block, tool in ((0, "T"), (1, "S"), (2, "A")):
        for i in range(block * 12, (block + 1) * 12):
            assert STRATEGIES[i].tool == tool
        assert len([s for s in STRATEGIES if s.tool == tool]) == 12


def test_parse_round_trip_bijection():
    for i in range(36):
        assert parse_code(CANONICAL_CODES[i]).index == i
        assert parse_code(STRATEGIES[i].code) is STRATEGIES[i]


def test_parse_trailing_dot_normalizes():
    assert parse_code("D.R.T.Pu.") == parse_code("D.R.T.Pu")
    assert parse_code("D.R.A.PP.").code == "D.R.A.PP"


def test_parse_example_fields():
    s = parse_code("I.R.T.Pu")
    assert (s.target, s.content, s.tool, s.resource) == ("I", "R", "T", "Pu")
    assert s.index == 3


def test_full_cartesian_product_covered():
    combos = {
        (s.target, s.content, s.tool, s.resource) for s in STRATEGIES
    }
    assert combos == set(
        itertools.product(TARGET_LEVELS, CONTENT_LEVELS, TOOL_LEVELS, RESOURCE_LEVELS)
    )


@pytest.mark.parametrize("bad", ["D.X.T.Pu", "X.R.T.Pu", "D.R.X.Pu", "D.R.T.Px"])
def test_unknown_level_rejected(bad):
    with pytest.raises(UnknownLevel):
        parse_code(bad)


@pytest.mark.parametrize("bad", ["D.R.T", "D.R.T.Pu.Pr", "", "DRTPu", "D,R,T,Pu"])
def test_malformed_code_rejected(bad):
    with pytest.raises(MalformedCode):
        parse_code(bad)


def test_codes_are_case_sensitive():
    with pytest.raises(UnknownLevel):
        parse_code("d.R.T.Pu")
    with pytest.raises(UnknownLevel):
        parse_code("D.R.T.pp")


def test_random_recombinations_round_trip():
    for target in TARGET_LEVELS:
        for content in CONTENT_LEVELS:
            for tool in TOOL_LEVELS:
                for resource in RESOURCE_LEVELS:
                    text = f"{target}.{content}.{tool}.{resource}"
                    assert parse_code(text).code == text
