"""The verdicts of ``tools/bench_pairs.py``, fed canned result lines; no perfbench run."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

RSS = {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1}
RATE = {"name": "audio_s_per_s", "unit": "s/s", "better": "higher", "bound": 0.25}


def lines(parent, change, failed=(0, 0)):
    """Canned run lines: one pair per (parent, change) value; each value is
    written for both metrics."""
    out = []
    for pair, values in enumerate(zip(parent, change)):
        for side, value, fails in zip(("parent", "change"), values, failed):
            metrics = {m["name"]: {"value": value, "unit": m["unit"]} for m in (RSS, RATE)}
            out.append({"side": side, "workload": "w", "pair": pair, "seed": 100 + pair,
                        "pinned": False, "result": {"correct": not fails, "attempted": 50,
                                                    "failed": fails, "metrics": metrics}})
    return out


def verdict(canned, metric=RSS):
    (v,) = bench_pairs.judge(canned, [metric])
    return v


PARENT = [68.4, 68.5, 68.6, 68.5, 68.7, 68.6, 68.5, 68.4, 68.6, 68.5]


def test_lower_in_every_pair_by_more_than_the_spread_is_a_gain():
    v = verdict(lines(PARENT, [p - 4.0 for p in PARENT]))
    assert v["verdict"] == "gain"
    assert (v["wins"], v["pairs"]) == (10, 10)
    assert v["parent"] == pytest.approx(68.5)
    assert v["change"] == pytest.approx(64.5)
    assert v["parent_iqr"] == pytest.approx(0.1)


def test_eight_wins_in_ten_is_no_gain():
    change = [p - 4.0 for p in PARENT[:8]] + [p + 0.1 for p in PARENT[8:]]
    v = verdict(lines(PARENT, change))
    assert (v["wins"], v["verdict"]) == (8, "held")


def test_every_pair_won_inside_the_parents_spread_is_no_gain():
    v = verdict(lines(PARENT, [p - 0.05 for p in PARENT]))
    assert (v["wins"], v["verdict"]) == (10, "held")


def test_ties_count_for_neither_side():
    v = verdict(lines(PARENT, PARENT))
    assert (v["wins"], v["verdict"]) == (0, "held")


def test_direction_follows_the_metric():
    # a higher value is a gain for a rate and worse for a memory figure
    canned = lines(PARENT, [p * 1.2 for p in PARENT])
    assert verdict(canned, RATE)["verdict"] == "gain"
    assert verdict(canned, RSS)["verdict"] == "regression"


def test_regression_only_beyond_the_bound():
    assert verdict(lines(PARENT, [p * 1.09 for p in PARENT]))["verdict"] == "held"
    assert verdict(lines(PARENT, [p * 1.11 for p in PARENT]))["verdict"] == "regression"
    assert verdict(lines(PARENT, [p * 0.8 for p in PARENT]), RATE)["verdict"] == "held"
    assert verdict(lines(PARENT, [p * 0.7 for p in PARENT]), RATE)["verdict"] == "regression"


def test_a_run_without_a_result_drops_its_pair_and_is_counted():
    canned = lines(PARENT, [p - 4.0 for p in PARENT])
    canned[1]["result"] = None  # pair 0's change run printed nothing
    v = verdict(canned)
    # nine wins in ten pairs run, but a gain needs every run's result
    assert (v["wins"], v["pairs"], v["verdict"]) == (9, 10, "held")
    assert v["parent"] == pytest.approx(68.5)
    assert bench_pairs.operations(canned) == {"parent": (0, 500, 0), "change": (0, 450, 1)}


def test_wins_count_against_every_pair_run():
    canned = lines(PARENT, [p - 4.0 for p in PARENT])
    del canned[3], canned[1]  # pairs 0 and 1 lost their change runs' lines altogether
    v = verdict(canned)
    assert (v["wins"], v["pairs"], v["verdict"]) == (8, 10, "held")


def test_more_failed_operations_than_the_parent_is_no_gain():
    change = [p - 4.0 for p in PARENT]
    assert verdict(lines(PARENT, change, failed=(0, 2)))["verdict"] == "held"
    assert verdict(lines(PARENT, change, failed=(2, 2)))["verdict"] == "gain"
    assert bench_pairs.operations(lines(PARENT, change, failed=(0, 2))) == {
        "parent": (0, 500, 0), "change": (20, 500, 0)}


# interquartile range 14.5 MB around a 69.5 MB median: wider than a 10 % bound
WIDE = [60.0, 75.0, 62.0, 78.0, 64.0, 76.0, 61.0, 77.0, 63.0, 79.0]


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    v = verdict(lines(WIDE, [p + 1.0 for p in WIDE]))
    assert v["parent_iqr"] == pytest.approx(14.5)
    assert v["verdict"] == "unresolved"
    assert verdict(lines(WIDE, [p - 1.0 for p in WIDE]))["verdict"] == "unresolved"


def test_a_wide_spread_is_held_when_every_change_run_is_better():
    # every change run reads below every parent run, by less than the parent's spread
    assert verdict(lines(WIDE, [59.0] * 10))["verdict"] == "held"


def test_fewer_than_two_pairs_get_no_verdict():
    assert bench_pairs.judge(lines(PARENT[:1], PARENT[:1]), [RSS]) == []
