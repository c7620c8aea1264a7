import numpy as np
import pytest

import qgame
from qgame import (
    LoadingMatrix,
    assignment_fractions,
    derive_x0,
    derive_z0,
    flag_stakeholders,
    load_loadings,
    load_share_table,
    load_zscores,
)
from qgame.errors import (
    DimensionMismatch,
    DuplicateStakeholder,
    DuplicateStrategy,
    InvalidNumber,
    MissingStrategy,
    NoFlaggedStakeholders,
    QGameError,
    ScoreOutOfRange,
)

from table_fixtures import (
    CANONICAL_ORDER,
    EXPECTED_COUNTS,
    EXPECTED_FLAGS,
    LOADINGS,
    POSITIVE_LOADING_FRACTIONS,
    X0_FRACTIONS,
    Y0,
    ZSCORES,
)


def make_loadings(rows: dict) -> LoadingMatrix:
    ids = tuple(rows)
    return LoadingMatrix(np.array([rows[s] for s in ids]), ids, 5)


# --- flagging ---

def test_flagging_reproduces_published_assignments(loadings):
    flags = flag_stakeholders(loadings, n_statements=36, p_threshold=0.05)
    got = {
        sid: (None if f is None else (f, s))
        for sid, f, s in zip(flags.stakeholder_ids, flags.factors, flags.signs)
    }
    assert got == EXPECTED_FLAGS


def test_flag_counts_and_unassigned(loadings):
    flags = flag_stakeholders(loadings, 36, 0.05)
    assert tuple(flags.counts()) == EXPECTED_COUNTS
    assert flags.unassigned == ("STK2",)


def test_flag_counts_unchanged_at_stricter_significance(loadings):
    # frozen from a one-off rerun of the rule with the 2.58 critical value
    flags = flag_stakeholders(loadings, 36, 0.01)
    assert tuple(flags.counts()) == EXPECTED_COUNTS
    assert flags.unassigned == ("STK2",)


def test_significance_threshold_value(loadings):
    flags = flag_stakeholders(loadings, 36, 0.05)
    assert flags.threshold == pytest.approx(1.96 / 6.0, abs=1e-12)


def test_single_row_examples():
    one = make_loadings({"STK1": LOADINGS["STK1"]})
    flags = flag_stakeholders(one, 36, 0.05)
    assert flags.factors == (0,) and flags.signs == (1,)

    # significant on two factors but distinctive on neither
    two = make_loadings({"STK2": LOADINGS["STK2"]})
    assert 0.67**2 < 0.64**2 + 0.18**2 + 0.15**2 + 0.01**2
    assert flag_stakeholders(two, 36, 0.05).factors == (None,)

    neg = make_loadings({"STK9": LOADINGS["STK9"]})
    flags = flag_stakeholders(neg, 36, 0.05)
    assert flags.factors == (4,) and flags.signs == (-1,)


def test_flagging_rejects_bad_inputs(loadings):
    with pytest.raises(ValueError):
        flag_stakeholders(loadings, 36, 0.10)
    with pytest.raises(ValueError):
        flag_stakeholders(loadings, 1, 0.05)
    with pytest.raises(DimensionMismatch):
        LoadingMatrix(np.zeros((20, 4)), tuple(LOADINGS), 5)
    with pytest.raises(ValueError):
        LoadingMatrix(np.array([[np.nan, 0.1, 0.1, 0.1, 0.1]]), ("STK1",))


def test_load_loadings_rejects_duplicate_stakeholder(tmp_path):
    src = qgame.case_study_path().parent.parent / "data" / "loadings.csv"
    lines = src.read_text().splitlines()
    dup = tmp_path / "loadings.csv"
    dup.write_text("\n".join(lines + [lines[-1]]) + "\n")
    sid = lines[-1].split(",")[0]
    with pytest.raises(DuplicateStakeholder, match=f"{dup}.*{sid}"):
        load_loadings(dup)


@pytest.mark.parametrize("cell", ["abc", "1.5", "-1.01", "nan", "inf", "-inf", ""])
def test_load_loadings_bad_cell_names_path_stakeholder_and_column(tmp_path, cell):
    src = qgame.case_study_path().parent.parent / "data" / "loadings.csv"
    lines = src.read_text().splitlines()
    i = next(k for k, ln in enumerate(lines) if ln.startswith("STK3,"))
    cells = lines[i].split(",")
    cells[4] = cell  # column Q4
    lines[i] = ",".join(cells)
    bad = tmp_path / "loadings.csv"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(InvalidNumber, match=f"{bad}: stakeholder 'STK3', column Q4: '{cell}'"):
        load_loadings(bad)


# --- x0 ---

def test_assignment_fractions_match_published_shares(loadings):
    flags = flag_stakeholders(loadings, 36, 0.05)
    fractions = assignment_fractions(flags)
    assert np.array_equal(fractions, X0_FRACTIONS)
    assert fractions.sum() == pytest.approx(0.95)


def test_derive_x0_is_renormalized_onto_simplex(loadings):
    flags = flag_stakeholders(loadings, 36, 0.05)
    x0 = derive_x0(flags)
    assert x0 == pytest.approx(np.array([7, 3, 3, 4, 2]) / 19, abs=1e-15)
    assert x0.sum() == pytest.approx(1.0, abs=1e-12)


def test_derive_x0_degenerate_single_flag():
    one = make_loadings({"STK1": LOADINGS["STK1"]})
    x0 = derive_x0(flag_stakeholders(one, 36, 0.05))
    assert np.array_equal(x0, [1, 0, 0, 0, 0])


def test_derive_x0_uniform_split():
    rows = {}
    for f in range(5):
        strong = [0.0] * 5
        strong[f] = 0.9
        for k in range(4):
            rows[f"S{f}_{k}"] = strong
    x0 = derive_x0(flag_stakeholders(make_loadings(rows), 36, 0.05))
    assert x0 == pytest.approx([0.2] * 5, abs=1e-15)


def test_derive_x0_requires_a_flag():
    nobody = make_loadings({"A": [0.1, 0.1, 0.1, 0.1, 0.1]})
    with pytest.raises(NoFlaggedStakeholders):
        derive_x0(flag_stakeholders(nobody, 36, 0.05))


def test_derive_x0_simplex_property_random_loadings():
    rng = np.random.default_rng(7)
    produced = 0
    while produced < 100:
        rows = {f"S{k}": rng.uniform(-1, 1, 5).tolist() for k in range(12)}
        flags = flag_stakeholders(make_loadings(rows), 36, 0.05)
        if all(f is None for f in flags.factors):
            continue
        x0 = derive_x0(flags)
        assert np.all(x0 >= 0) and abs(x0.sum() - 1.0) < 1e-12
        produced += 1


# --- z0 ---

def test_positive_fraction_rule_on_bundled_loadings(loadings):
    assert derive_z0(loadings) == pytest.approx(POSITIVE_LOADING_FRACTIONS, abs=1e-15)


def test_positive_fraction_rule_does_not_reproduce_pinned_z0(loadings):
    # the bundled scenario pins z0 explicitly precisely because of this gap
    assert not np.allclose(derive_z0(loadings), [0.39, 0.33, 0.39, 0.28, 0.28], atol=0.05)


def test_all_positive_column_gives_one():
    rows = {f"S{k}": [0.5, -0.2, 0.1, -0.4, 0.3] for k in range(6)}
    z0 = derive_z0(make_loadings(rows))
    assert z0[0] == 1.0 and z0[1] == 0.0


# --- z-score loading ---

def test_load_zscores_matches_transcription(scores):
    expected = np.array([ZSCORES[c] for c in CANONICAL_ORDER]).T
    assert np.array_equal(scores.scores, expected)


def test_load_zscores_spot_values(scores):
    assert scores.score(0, "D.R.A.PP") == 5
    assert scores.score(2, "I.C.T.Pu") == 5
    assert scores.score(4, "I.R.A.PP") == -5


def test_load_zscores_row_order_independent(tmp_path, scores):
    rows = [f"{c},{','.join(str(v) for v in ZSCORES[c])}" for c in CANONICAL_ORDER]
    rng = np.random.default_rng(3)
    rng.shuffle(rows)
    p = tmp_path / "shuffled.csv"
    p.write_text("strategy,Q1,Q2,Q3,Q4,Q5\n" + "\n".join(rows) + "\n")
    assert np.array_equal(load_zscores(p).scores, scores.scores)


def _write_zscore_csv(tmp_path, mutate):
    rows = {c: list(ZSCORES[c]) for c in CANONICAL_ORDER}
    lines = mutate(rows)
    p = tmp_path / "zs.csv"
    p.write_text("strategy,Q1,Q2,Q3,Q4,Q5\n" + "\n".join(lines) + "\n")
    return p


def test_load_zscores_missing_strategy(tmp_path):
    p = _write_zscore_csv(
        tmp_path,
        lambda rows: [
            f"{c},{','.join(map(str, v))}" for c, v in rows.items() if c != "D.R.A.PP"
        ],
    )
    with pytest.raises(MissingStrategy):
        load_zscores(p)


def test_load_zscores_duplicate_strategy(tmp_path):
    p = _write_zscore_csv(
        tmp_path,
        lambda rows: [f"{c},{','.join(map(str, v))}" for c, v in rows.items()]
        + ["D.R.A.PP,5,4,-1,1,1"],
    )
    with pytest.raises(DuplicateStrategy):
        load_zscores(p)


def test_load_zscores_score_out_of_range(tmp_path):
    def mutate(rows):
        rows["D.R.T.Pu"][0] = 7
        return [f"{c},{','.join(map(str, v))}" for c, v in rows.items()]

    with pytest.raises(ScoreOutOfRange):
        load_zscores(_write_zscore_csv(tmp_path, mutate))


def test_load_zscores_rejects_non_integer(tmp_path):
    def mutate(rows):
        rows["D.R.T.Pu"][0] = 2.5
        return [f"{c},{','.join(map(str, v))}" for c, v in rows.items()]

    with pytest.raises(ScoreOutOfRange):
        load_zscores(_write_zscore_csv(tmp_path, mutate))


# --- bundled loading matrix / share table ---

def test_bundled_loadings_match_transcription(loadings):
    expected = np.array([LOADINGS[s] for s in loadings.stakeholder_ids])
    assert np.array_equal(loadings.loadings, expected)
    assert loadings.stakeholder_ids == tuple(f"STK{i}" for i in range(1, 21))


def test_bundled_share_table_matches_transcription(space):
    shares = load_share_table(qgame.case_study_path().parent.parent / "data" / "y0.csv")
    assert np.array_equal(shares, [Y0[c] for c in CANONICAL_ORDER])
    assert shares.sum() == pytest.approx(0.9996, abs=1e-12)


# --- faults shared by the three code-keyed tables ---

@pytest.mark.parametrize("fault", ["short row", "nan", "inf", "duplicate after nan"])
@pytest.mark.parametrize(
    "loader, name",
    [
        (qgame.load_zscores, "zscores.csv"),
        (qgame.load_share_table, "y0.csv"),
        (qgame.load_distribution, "symmetric_distribution.csv"),
    ],
    ids=["zscores", "share_table", "distribution"],
)
def test_code_table_fault_names_path_and_code(tmp_path, loader, name, fault):
    lines = (qgame.case_study_path().parent.parent / "data" / name).read_text().splitlines()
    k = next(i for i, line in enumerate(lines) if line.startswith("D.R.A.PP,"))
    row = lines[k]
    head = row.rsplit(",", 1)[0]
    if fault == "short row":
        lines[k] = head
    elif fault == "duplicate after nan":
        lines[k] = head + ",nan"
        lines.append(row)
    else:
        lines[k] = f"{head},{fault}"
    p = tmp_path / name
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(QGameError) as err:
        loader(p)
    assert not isinstance(err.value, MissingStrategy)
    assert str(p) in str(err.value)
    assert "D.R.A.PP" in str(err.value)
