"""Estimate scales, edit-distance proximity, consensus medians, and
estimate-based synthesis, checked against independent oracles."""

from __future__ import annotations

import itertools
import random
import re
from collections import deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from morphplan.estimates import (
    enumerate_estimates,
    generalized_median,
    multiset_number,
    multiset_synthesize,
    proximity,
    satisfies_gap_rule,
    uplus,
)
from morphplan.model import (
    CompositeSolution,
    InvalidComparisonError,
    QualityVector,
    SolutionError,
)
from morphplan.synthesis import pareto_filter
from tests.conftest import admissible_by_product, median_by_scan, node_model

EXPECTED_SCALE_3_4 = [
    (4, 0, 0), (3, 1, 0), (2, 2, 0), (2, 1, 1), (1, 3, 0), (1, 2, 1),
    (1, 1, 2), (0, 4, 0), (0, 3, 1), (0, 2, 2), (0, 1, 3), (0, 0, 4),
]


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def one_step_moves(est):
    """Neighbors in the move graph: shift one mark one level either way."""
    for i in range(len(est) - 1):
        if est[i] > 0:  # demote
            nxt = list(est)
            nxt[i] -= 1
            nxt[i + 1] += 1
            yield tuple(nxt)
        if est[i + 1] > 0:  # promote
            nxt = list(est)
            nxt[i + 1] -= 1
            nxt[i] += 1
            yield tuple(nxt)


def bfs_distance(a, b):
    """Shortest path in the one-step-move graph (gap rule ignored)."""
    if a == b:
        return 0
    seen = {a}
    queue = deque([(a, 0)])
    while queue:
        cur, dist = queue.popleft()
        for nxt in one_step_moves(cur):
            if nxt == b:
                return dist + 1
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, dist + 1))
    raise AssertionError("move graph is connected; unreachable")


def oracle_median(observed, levels, eta, enforce_gap_rule=True, metric="max"):
    """Naive consensus scan built on the BFS oracle, not on proximity:
    the ``sum`` metric is the BFS distance itself."""
    best, best_total = [], None
    for cand in enumerate_estimates(levels, eta, enforce_gap_rule):
        # magnitude = max of the signed split; recover the split from
        # bfs total and the net promotion count
        total = 0
        for obs in observed:
            d = bfs_distance(cand, obs)
            net = sum(
                ca - cb
                for ca, cb in zip(cumul(cand)[:-1], cumul(obs)[:-1])
            )
            # d = improvements + degradations, net = degradations - improvements
            deg = (d + net) // 2
            impr = (d - net) // 2
            total += max(impr, deg) if metric == "max" else d
        if best_total is None or total < best_total:
            best, best_total = [cand], total
        elif total == best_total:
            best.append(cand)
    return best, best_total


def cumul(xs):
    out, t = [], 0
    for x in xs:
        t += x
        out.append(t)
    return out


# ---------------------------------------------------------------------------
# counting and enumeration
# ---------------------------------------------------------------------------


def test_multiset_number_values():
    assert multiset_number(3, 4) == 15
    assert multiset_number(5, 1) == 5
    assert multiset_number(2, 3) == 4


def test_two_level_three_mark_scale_enumerates_fully():
    assert enumerate_estimates(2, 3, enforce_gap_rule=False) == [
        (3, 0), (2, 1), (1, 2), (0, 3),
    ]


def test_enumeration_count_matches_multiset_number():
    for levels in range(1, 6):
        for eta in range(1, 7):
            ests = enumerate_estimates(levels, eta, enforce_gap_rule=False)
            assert len(ests) == multiset_number(levels, eta)
            assert len(set(ests)) == len(ests)
            assert all(sum(e) == eta for e in ests)


def test_gap_rule_scale_for_three_levels_four_marks():
    ests = enumerate_estimates(3, 4, enforce_gap_rule=True)
    assert ests == EXPECTED_SCALE_3_4
    excluded = {(3, 0, 1), (2, 0, 2), (1, 0, 3)}
    assert excluded & set(ests) == set()
    assert set(enumerate_estimates(3, 4, False)) - set(ests) == excluded


def test_single_level_scale_is_trivial():
    for eta in range(1, 5):
        assert enumerate_estimates(1, eta, True) == [(eta,)]


def test_enumeration_is_best_first():
    from morphplan.model import e_dominates

    ests = enumerate_estimates(3, 5, enforce_gap_rule=False)
    for i, a in enumerate(ests):
        for b in ests[i + 1 :]:
            assert not (e_dominates(b, a) and a != b)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def test_uplus_examples():
    assert uplus([(3, 1, 0), (1, 3, 0)]) == (4, 4, 0)
    parts = [(1, 3, 0), (3, 1, 0), (2, 2, 0), (3, 1, 0), (3, 1, 0)]
    assert uplus(parts) == (12, 8, 0)
    assert uplus([], levels=3) == (0, 0, 0)


def test_uplus_rejects_mismatched_lengths():
    with pytest.raises(InvalidComparisonError):
        uplus([(1, 0), (1, 0, 0)])


# ---------------------------------------------------------------------------
# proximity
# ---------------------------------------------------------------------------


def test_proximity_examples():
    p = proximity((3, 1, 0), (1, 3, 0))
    assert (p.improvements, p.degradations, p.magnitude) == (0, 2, 2)
    assert proximity((1, 3, 0), (1, 3, 0)) == proximity((2, 2, 0), (2, 2, 0))
    assert proximity((1, 3, 0), (1, 3, 0)).magnitude == 0
    p2 = proximity((1, 3, 0), (1, 2, 1))
    assert (p2.improvements, p2.degradations, p2.magnitude) == (0, 1, 1)


def test_proximity_rejects_total_mismatch():
    with pytest.raises(InvalidComparisonError):
        proximity((2, 0, 0), (1, 0, 0))


def all_estimates(levels, eta):
    return enumerate_estimates(levels, eta, enforce_gap_rule=False)


@pytest.mark.parametrize("levels,eta", [(2, 3), (3, 3), (3, 5), (4, 4), (4, 5)])
def test_proximity_is_symmetric(levels, eta):
    ests = all_estimates(levels, eta)
    for a, b in itertools.combinations(ests, 2):
        ab, ba = proximity(a, b), proximity(b, a)
        assert ab.improvements == ba.degradations
        assert ab.degradations == ba.improvements
        assert ab.magnitude == ba.magnitude


@pytest.mark.parametrize("levels,eta", [(2, 4), (3, 4), (3, 5), (4, 4), (4, 5)])
def test_proximity_total_matches_bfs_shortest_path(levels, eta):
    ests = all_estimates(levels, eta)
    for a in ests:
        for b in ests:
            assert proximity(a, b).total == bfs_distance(a, b), (a, b)


# ---------------------------------------------------------------------------
# consensus
# ---------------------------------------------------------------------------


def test_consensus_of_the_first_selection():
    observed = [(1, 3, 0), (3, 1, 0), (1, 3, 0), (3, 1, 0), (1, 2, 1)]
    result = generalized_median(observed)
    assert (1, 3, 0) in result.estimates
    assert result.deviation == 5
    ests, total = oracle_median(observed, 3, 4)
    assert list(result.estimates) == ests and result.deviation == total


def test_consensus_of_the_second_selection():
    observed = [(1, 3, 0), (3, 1, 0), (2, 2, 0), (3, 1, 0), (3, 1, 0)]
    result = generalized_median(observed)
    assert (3, 1, 0) in result.estimates
    assert result.deviation == 3
    ests, total = oracle_median(observed, 3, 4)
    assert list(result.estimates) == ests and result.deviation == total


def test_single_observation_is_its_own_consensus():
    result = generalized_median([(2, 1, 1)])
    assert result.estimates == ((2, 1, 1),)
    assert result.deviation == 0


def test_consensus_is_permutation_invariant():
    rng = random.Random(3)
    observed = [(1, 3, 0), (3, 1, 0), (2, 2, 0), (0, 4, 0)]
    base = generalized_median(observed)
    for _ in range(5):
        shuffled = observed[:]
        rng.shuffle(shuffled)
        assert generalized_median(shuffled) == base


@pytest.mark.parametrize("seed", range(12))
def test_consensus_matches_oracle_on_random_observations(seed):
    rng = random.Random(seed)
    levels, eta = rng.choice([(3, 4), (3, 5), (4, 4)])
    domain = all_estimates(levels, eta)
    observed = [domain[rng.randrange(len(domain))] for _ in range(rng.randint(1, 6))]
    enforce = rng.random() < 0.5
    for metric in ("max", "sum"):
        result = generalized_median(observed, enforce_gap_rule=enforce, metric=metric)
        ests, total = oracle_median(observed, levels, eta, enforce, metric)
        assert list(result.estimates) == ests, metric
        assert result.deviation == total, metric


def test_widened_domain_can_only_improve():
    observed = [(3, 0, 1), (3, 0, 1)]
    strict = generalized_median(observed, enforce_gap_rule=True)
    wide = generalized_median(observed, enforce_gap_rule=False)
    assert wide.deviation <= strict.deviation
    assert wide.estimates == ((3, 0, 1),) and wide.deviation == 0
    assert all(satisfies_gap_rule(e) for e in strict.estimates)


def test_sum_metric_counts_both_edit_directions():
    observed = [(4, 0, 0), (0, 4, 0)]
    by_max = generalized_median(observed, metric="max")
    by_sum = generalized_median(observed, metric="sum")
    # under the sum metric every estimate between the two costs the same
    assert by_sum.deviation == 4
    assert by_max.deviation <= by_sum.deviation


def counts_from_sums(sums, eta):
    """Count vector with prefix sums ``sums`` (levels 1..l-1) and total eta."""
    bounds = [0, *sums, eta]
    return tuple(b - a for a, b in zip(bounds, bounds[1:]))


@st.composite
def observation_sets(draw):
    """1-7 estimates of one shape, l 1-5 and eta 1-8, gap rule ignored."""
    levels = draw(st.integers(1, 5))
    eta = draw(st.integers(1, 8))
    sums = st.lists(st.integers(0, eta), min_size=levels - 1, max_size=levels - 1)
    return [counts_from_sums(sorted(c), eta) for c in draw(st.lists(sums, min_size=1, max_size=7))]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(observation_sets())
@example([(5,), (5,)])
@example([(0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1)])
@example([(2, 1, 0, 0, 5)] * 4)
@example([(3, 0, 1), (3, 0, 1)])
def test_consensus_equals_the_domain_scan(observed):
    for enforce in (True, False):
        for metric in ("max", "sum"):
            assert generalized_median(observed, enforce, metric) == median_by_scan(
                observed, enforce, metric
            ), (enforce, metric)


def random_estimate(rng, levels, eta):
    return counts_from_sums(sorted(rng.randint(0, eta) for _ in range(levels - 1)), eta)


@pytest.mark.parametrize("enforce", [True, False])
@pytest.mark.parametrize("metric", ["max", "sum"])
@pytest.mark.parametrize("levels,eta", [(8, 12), (10, 16)])
def test_consensus_on_shapes_too_large_to_scan(levels, eta, metric, enforce):
    # 75,582 and 2,042,975 estimates before the gap rule.
    rng = random.Random(levels * 100 + eta)
    observed = [random_estimate(rng, levels, eta) for _ in range(6)]
    result = generalized_median(observed, enforce_gap_rule=enforce, metric=metric)
    in_domain = satisfies_gap_rule if enforce else (lambda est: True)

    def deviation(est):
        pairs = [proximity(est, obs) for obs in observed]
        return sum(p.magnitude if metric == "max" else p.total for p in pairs)

    assert all(deviation(est) == result.deviation for est in result.estimates)
    assert all(a > b for a, b in zip(result.estimates, result.estimates[1:]))
    assert all(in_domain(est) for est in result.estimates)
    for est in result.estimates:
        for near in one_step_moves(est):
            if in_domain(near):
                assert deviation(near) >= result.deviation, near
    samples = 0
    while samples < 2000:
        est = random_estimate(rng, levels, eta)
        if in_domain(est):
            samples += 1
            assert deviation(est) >= result.deviation, est


@pytest.mark.parametrize("median", [generalized_median, median_by_scan])
@pytest.mark.parametrize(
    "observed,metric,error,message",
    [
        ([], "max", ValueError, "median of an empty observation set"),
        ([(1, 0)], "mean", ValueError, "unknown metric 'mean'"),
        ([(1, 0), (1, 0, 0)], "max", InvalidComparisonError, "count vectors differ in length: 2 vs 3"),
        ([(1, 0), (2, 0)], "sum", InvalidComparisonError, "count vectors differ in total: 1 vs 2"),
        ([(0, 0, 0), (0, 0, 0)], "max", ValueError, "eta must be >= 1: 0"),
        ([()], "sum", ValueError, "levels must be >= 1: 0"),
    ],
)
def test_consensus_errors_match_the_scan(median, observed, metric, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        median(observed, metric=metric)
    assert info.type is error


# ---------------------------------------------------------------------------
# estimate-based synthesis
# ---------------------------------------------------------------------------


def test_estimate_synthesis_reference_selections(arkticheskoe_multiset):
    m = arkticheskoe_multiset.model
    frontier = multiset_synthesize(m.component("W"), m)
    wm1 = frontier.find({"E": "E6", "F": "F6", "G": "G6", "J": "J6", "I": "I6"})
    assert wm1 is not None
    assert wm1.quality.e == (1, 3, 0)
    assert wm1.deviation == 5
    assert wm1.quality.w == 1  # the shipped table forces the bottleneck

    wm2 = frontier.find({"E": "E6", "F": "F6", "G": "G3", "J": "J6", "I": "I3"})
    assert wm2 is not None
    assert (wm2.quality.w, wm2.quality.e, wm2.deviation) == (3, (3, 1, 0), 3)


def test_estimate_synthesis_matches_product_oracle(arkticheskoe_multiset):
    m = arkticheskoe_multiset.model
    node = m.component("W")
    for enforce, metric in itertools.product((True, False), ("max", "sum")):
        expected = set()
        for picks, quality, das in admissible_by_product(node, m):
            median = generalized_median([da.estimate for da in das], enforce, metric)
            expected.add((picks, quality.w, median.best, median.deviation))
        frontier = multiset_synthesize(node, m, enforce, metric)
        got = [(s.picks, s.quality.w, s.quality.e, s.deviation) for s in frontier.solutions]
        assert len(got) == len(expected), (enforce, metric)
        assert set(got) == expected, (enforce, metric)


def estimate_node(randint, levels, eta, counts):
    """One root over len(counts) leaves with counts[i] alternatives
    each, priorities 1-3, estimates over ``levels`` levels with ``eta``
    marks, and every cross pair at a compatibility 0-4 (0 cuts it).
    ``randint(a, b)`` draws each value."""
    leaves = {
        f"C{i}": [(f"C{i}x{j}", randint(1, 3)) for j in range(count)]
        for i, count in enumerate(counts)
    }
    ids = [[did for did, _ in das] for das in leaves.values()]
    pairs = [
        (a, b, randint(0, 4))
        for i, left in enumerate(ids)
        for right in ids[i + 1 :]
        for a in left
        for b in right
    ]
    estimates = {
        did: counts_from_sums(sorted(randint(0, eta) for _ in range(levels - 1)), eta)
        for group in ids
        for did in group
    }
    return node_model(leaves, pairs, estimates=estimates)


def synthesize_counting_dp(node, model, enforce, metric):
    """``multiset_synthesize`` and how many ``generalized_median`` calls it made."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return generalized_median(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("morphplan.estimates.generalized_median", counted)
        frontier = multiset_synthesize(node, model, enforce, metric)
    return frontier, len(calls)


def assert_matches_the_scan_per_selection(model, lists_domain):
    """The frontier of ``N`` in every metric and gap setting equals
    ``median_by_scan`` run on each admissible selection, layered by the
    same key; the domain is listed (no ``generalized_median`` call) or
    not, as ``lists_domain`` says."""
    node = model.component("N")
    selections = admissible_by_product(node, model)
    for enforce, metric in itertools.product((True, False), ("max", "sum")):
        oracle = []
        for picks, quality, das in selections:
            median = median_by_scan([da.estimate for da in das], enforce, metric)
            oracle.append(
                CompositeSolution(
                    node="N",
                    picks=picks,
                    quality=QualityVector(w=quality.w, e=median.best),
                    deviation=median.deviation,
                )
            )
        expected = pareto_filter(oracle)
        frontier, dp_calls = synthesize_counting_dp(node, model, enforce, metric)
        assert dp_calls == (0 if lists_domain else len(selections))
        assert [
            (s.picks, s.quality.w, s.quality.e, s.deviation) for s in frontier.solutions
        ] == [(s.picks, s.quality.w, s.quality.e, s.deviation) for s in expected.solutions]
        assert frontier.layers == expected.layers, (enforce, metric)


# (levels, eta, alternatives per child, whether the domain is listed):
# l3/eta4 lists it from two selections up, l5/eta8 with two selections
# keeps the dynamic program.
SIZE_RULE_SHAPES = [
    (3, 4, [2], True),
    (3, 4, [3, 3], True),
    (3, 4, [2, 3, 4], True),
    (3, 4, [3, 2, 3, 2, 3], True),
    (5, 8, [2], False),
    (5, 8, [1, 2], False),
]


@pytest.mark.parametrize("levels,eta,counts,lists_domain", SIZE_RULE_SHAPES)
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_estimate_synthesis_matches_the_scan_per_selection(levels, eta, counts, lists_domain, seed):
    model = estimate_node(random.Random(seed).randint, levels, eta, counts)
    assert_matches_the_scan_per_selection(model, lists_domain)


def test_estimate_synthesis_keeps_the_dp_for_a_large_domain():
    # 6,188 estimates against 27 selections; the scan takes about 25 ms each.
    model = estimate_node(random.Random(6).randint, 6, 12, [3, 3, 3])
    assert_matches_the_scan_per_selection(model, lists_domain=False)


def test_identical_estimates_give_zero_deviation():
    est = {"a1": (2, 2, 0), "b1": (2, 2, 0)}
    model = node_model(
        {"A": [("a1", 1)], "B": [("b1", 1)]},
        [("a1", "b1", 3)],
        estimates=est,
    )
    frontier = multiset_synthesize(model.component("N"), model)
    assert len(frontier.solutions) == 1
    sol = frontier.solutions[0]
    assert sol.quality.e == (2, 2, 0)
    assert sol.deviation == 0


def two_child_node(alternatives, compat, estimates):
    """Child A with ``alternatives`` options a1, a2, ... and child B
    with b1, every pair at compatibility ``compat``. Under l3/eta4 two
    selections list the domain and one keeps the dynamic program."""
    leaves = {"A": [(f"a{i}", 1) for i in range(1, alternatives + 1)], "B": [("b1", 1)]}
    pairs = [(a, "b1", compat) for a, _ in leaves["A"]]
    return node_model(leaves, pairs, estimates=estimates)


@pytest.mark.parametrize("compat", [3, 0], ids=["admissible", "none-admissible"])
@pytest.mark.parametrize("alternatives", [2, 1], ids=["table", "dp"])
@pytest.mark.parametrize(
    "estimates,metric,error,message",
    [
        (
            {"a1": (1, 3, 0), "a2": (2, 2, 0)},
            "max",
            SolutionError,
            "alternative 'b1' of child 'B' carries no estimate",
        ),
        (
            {"a1": (1, 3, 0), "a2": (1, 3, 0), "b1": (1, 3, 0, 0)},
            "sum",
            InvalidComparisonError,
            "count vectors differ in length: 3 vs 4",
        ),
        (
            {"a1": (1, 3, 0), "a2": (2, 2, 0), "b1": (4, 0, 0)},
            "mean",
            ValueError,
            "unknown metric 'mean'",
        ),
        (
            {"a1": (0, 0, 0), "a2": (0, 0, 0), "b1": (0, 0, 0)},
            "max",
            ValueError,
            "eta must be >= 1: 0",
        ),
    ],
    ids=["missing-estimate", "mixed-shapes", "unknown-metric", "eta-0"],
)
def test_estimate_synthesis_errors_match_on_both_paths(
    alternatives, compat, estimates, metric, error, message
):
    model = two_child_node(alternatives, compat, estimates)
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        multiset_synthesize(model.component("N"), model, metric=metric)
    assert info.type is error


@pytest.mark.parametrize("alternatives,dp_calls", [(2, 0), (1, 1)])
def test_two_child_node_falls_on_the_intended_side(alternatives, dp_calls):
    model = two_child_node(alternatives, 3, {"a1": (1, 3, 0), "a2": (2, 2, 0), "b1": (4, 0, 0)})
    frontier, calls = synthesize_counting_dp(model.component("N"), model, True, "max")
    assert calls == dp_calls
    assert len(frontier.solutions) == alternatives


def test_missing_estimate_names_the_alternative():
    model = node_model(
        {"A": [("a1", 1)], "B": [("b1", 1)]},
        [("a1", "b1", 3)],
        estimates={"a1": (1, 1, 0)},
    )
    with pytest.raises(SolutionError, match="b1"):
        multiset_synthesize(model.component("N"), model)


def test_estimate_synthesis_layone_is_an_antichain(arkticheskoe_multiset):
    m = arkticheskoe_multiset.model
    frontier = multiset_synthesize(m.component("W"), m)
    from morphplan.model import e_dominates

    layer1 = frontier.layer(1)
    for a in layer1:
        for b in layer1:
            if a is b:
                continue
            dominates = (
                a.quality.w >= b.quality.w
                and e_dominates(a.quality.e, b.quality.e)
                and a.deviation <= b.deviation
            )
            reverse = (
                b.quality.w >= a.quality.w
                and e_dominates(b.quality.e, a.quality.e)
                and b.deviation <= a.deviation
            )
            assert not (dominates and not reverse)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: multiset_number(0, 1), ValueError, "levels must be >= 1: 0"),
        (lambda: multiset_number(1, -1), ValueError, "eta must be >= 0: -1"),
        (lambda: uplus([]), ValueError, "empty aggregation needs an explicit level count"),
        (
            lambda: uplus([(1, 2)], levels=3),
            InvalidComparisonError,
            "estimates have 2 levels, expected 3",
        ),
    ],
    ids=["no-levels", "negative-eta", "empty-uplus", "uplus-width"],
)
def test_counting_and_sums_refuse_bad_shapes(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()
