"""Selection, conflict-resolving assignment, the enumeration oracle, and
power control."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mtc_underlay import cu_power_control, match_assignments, mtd_power_control
from mtc_underlay.scheduler import Race
from oracles import (
    Assignment,
    LinkBudget,
    SortedMatrix,
    build_interference_matrix,
    holm_rejected,
    match_assignments_loop,
    match_block,
    match_matrix,
    mrc_weights,
    optimal_assignment_oracle,
    select_min_interference,
    sinr_cellular,
    sinr_mta,
)


# --- single-row selection ----------------------------------------------------


def test_select_min_basic():
    assert select_min_interference([0.5, 0.1, 0.9]) == 1
    assert select_min_interference([3.0]) == 0


def test_select_min_tie_goes_to_lowest_index():
    assert select_min_interference([0.2, 0.1, 0.1, 0.5]) == 1


def test_select_min_scale_invariance():
    rng = np.random.default_rng(0)
    for _ in range(300):
        row = rng.uniform(0.0, 1.0, size=rng.integers(1, 50))
        c = rng.uniform(1e-6, 1e6)
        assert select_min_interference(row) == select_min_interference(c * row)


def test_select_min_matches_linear_scan():
    rng = np.random.default_rng(1)
    for _ in range(200):
        row = rng.uniform(0.0, 1.0, size=int(rng.integers(1, 400)))
        if rng.uniform() < 0.3:
            row = np.round(row, 1)  # force duplicates to exercise the tie rule
        best = 0
        for j in range(1, row.size):
            if row[j] < row[best]:
                best = j
        assert select_min_interference(row) == best


def test_select_min_rejects_bad_rows():
    with pytest.raises(ValueError):
        select_min_interference([])
    with pytest.raises(ValueError):
        select_min_interference([0.1, -0.2])
    with pytest.raises(ValueError):
        select_min_interference([0.1, float("nan")])
    with pytest.raises(ValueError):
        select_min_interference([[0.1, 0.2]])


# --- interference matrix -----------------------------------------------------


def test_build_matrix_hand_example():
    w = np.array([[1.0 + 0j, 0.0], [0.0, 1.0 + 0j]])
    h = np.zeros((2, 2, 2), dtype=complex)
    h[0, 0] = (0.6, 0.8)
    h[0, 1] = (1.0, 0.0)
    h[1, 0] = (0.0, 2.0)
    h[1, 1] = (1.0, 1.0)
    mat = build_interference_matrix(w, h, np.array([1.0, 0.5]))
    np.testing.assert_allclose(mat, [[0.36, 0.5], [4.0, 0.5]], rtol=1e-12)


def test_build_matrix_dimension_checks():
    w = np.ones((2, 4), dtype=complex)
    h = np.ones((2, 3, 4), dtype=complex)
    with pytest.raises(ValueError):
        build_interference_matrix(w, h, np.ones(2))  # powers length != K
    with pytest.raises(ValueError):
        build_interference_matrix(w, np.ones((3, 3, 4), dtype=complex), np.ones(3))
    with pytest.raises(ValueError):
        build_interference_matrix(w, np.ones((2, 3, 5), dtype=complex), np.ones(3))
    with pytest.raises(ValueError):
        build_interference_matrix(w, h, np.array([1.0, -1.0, 1.0]))


def test_matrix_entries_are_nonnegative_and_match_formula():
    rng = np.random.default_rng(2)
    w = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    h = rng.standard_normal((3, 5, 4)) + 1j * rng.standard_normal((3, 5, 4))
    p = rng.uniform(0.1, 2.0, 5)
    mat = build_interference_matrix(w, h, p)
    assert mat.shape == (3, 5)
    assert np.all(mat >= 0)
    for n in range(3):
        for k in range(5):
            assert mat[n, k] == pytest.approx(p[k] * abs(np.dot(w[n], h[n, k])) ** 2, rel=1e-12)


# --- conflict-resolving assignment -------------------------------------------


def test_match_hand_trace_two_rb():
    a = match_matrix([[1.0, 5.0], [2.0, 3.0]])
    assert a.rb_to_mtd == [0, 1]


def test_match_hand_trace_loser_takes_next_unclaimed():
    a = match_matrix([[1.0, 2.0, 3.0], [1.1, 5.0, 6.0]])
    assert a.rb_to_mtd == [0, 1]


def test_match_value_tie_goes_to_lower_rb():
    a = match_matrix([[1.0, 5.0], [1.0, 3.0]])
    assert a.rb_to_mtd == [0, 1]


def test_match_cascading_conflicts():
    m = [[1.0, 4.0, 9.0], [1.1, 2.0, 9.0], [1.2, 2.1, 9.0]]
    a = match_matrix(m)
    assert a.rb_to_mtd == [0, 1, 2]


def test_match_losers_skip_claimed_mtds():
    # RB1 loses MTD0 to RB0; its next-cheapest MTD1 is already claimed by RB2,
    # so RB1 must jump to MTD2 rather than contest MTD1.
    m = [[1.0, 2.0, 3.0], [1.1, 1.5, 6.0], [10.0, 2.1, 7.0]]
    a = match_matrix(m)
    assert a.rb_to_mtd == [0, 2, 1]


def test_match_fewer_mtds_than_rbs():
    a = match_matrix([[1.0], [2.0]])
    assert a.rb_to_mtd == [0, None]
    a2 = match_matrix([[5.0, 1.0], [4.0, 2.0], [3.0, 6.0]])
    assert a2.n_assigned == 2
    assert a2.rb_to_mtd.count(None) == 1


def test_match_single_rb_equals_argmin():
    rng = np.random.default_rng(3)
    for _ in range(100):
        row = rng.uniform(0.0, 1.0, size=int(rng.integers(1, 30)))
        assert match_matrix(row[None, :]).rb_to_mtd == [select_min_interference(row)]


def test_match_injective_and_complete():
    rng = np.random.default_rng(4)
    for _ in range(150):
        n = int(rng.integers(1, 21))
        k = int(rng.integers(1, 60))
        mat = rng.uniform(0.0, 1.0, size=(n, k))
        a = match_matrix(mat)
        assigned = [x for x in a.rb_to_mtd if x is not None]
        assert len(assigned) == len(set(assigned))
        assert all(0 <= x < k for x in assigned)
        assert len(assigned) == min(n, k)  # K >= N -> nobody left empty
    # one wide instance like the production sweeps
    wide = np.random.default_rng(5).uniform(size=(20, 2000))
    a = match_matrix(wide)
    assert a.n_assigned == 20


def test_match_rejects_bad_matrices():
    for bad in (np.ones((2, 2)) * -1.0, np.full((2, 2), np.inf), np.ones(3)):
        with pytest.raises(ValueError):
            match_matrix(bad)
        with pytest.raises(ValueError):
            match_block(bad[None])
    with pytest.raises(ValueError):
        match_block(np.ones((2, 2)))  # one matrix, not a block
    with pytest.raises(ValueError):
        match_block(np.ones((2, 2, 2)) * -1.0)
    with pytest.raises(ValueError):
        match_block(np.ones((0, 2, 2)))
    with pytest.raises(ValueError):
        match_block(np.ones((1, 2, 2, 2)))


# Small integer levels make value ties (two RBs claiming one MTD at equal
# power) and argmin ties (equal entries within a row) common; K < N is drawn
# as often as K >= N.
_blocks = st.tuples(
    st.integers(1, 4), st.integers(1, 6), st.integers(1, 6)
).flatmap(lambda shape: arrays(np.float64, shape, elements=st.integers(0, 3).map(float)))


@settings(max_examples=400, deadline=None)
@given(_blocks)
def test_block_matcher_equals_loop_oracle(block):
    # the runtime matcher on the sorted-matrix source, drop by drop
    idx, value = match_assignments(SortedMatrix(block))
    assert idx.shape == value.shape == block.shape[:2]
    drops, rbs = np.indices(idx.shape)
    np.testing.assert_array_equal(
        value, np.where(idx >= 0, block[drops, rbs, np.maximum(idx, 0)], 0.0)
    )
    for d, matrix in enumerate(block):
        expected = [-1 if m is None else m for m in match_assignments_loop(matrix).rb_to_mtd]
        assert idx[d].tolist() == expected
        assert match_matrix(matrix).rb_to_mtd == match_assignments_loop(matrix).rb_to_mtd


# --- the race: proposals drawn when asked for ---------------------------------


def test_race_serves_each_row_in_ascending_order_once_per_mtd():
    # three rows of three drops; every round each row's proposal is claimed,
    # so each row proposes every MTD once, never a claimed one, at values
    # that strictly increase
    race = Race(np.array([1.0, 0.5, 2.0, 4.0]), 3, 2, np.random.default_rng(0))
    drop, rb = np.array([0, 2, 1]), np.array([1, 0, 1])
    claimed = np.zeros((3, 4), dtype=bool)
    mtds, values = [], []
    for _ in range(4):
        mtd, value = race.next(drop, rb, claimed)
        assert not claimed[drop, mtd].any()
        claimed[drop, mtd] = True
        mtds.append(mtd)
        values.append(value)
    mtds, values = np.array(mtds), np.array(values)
    for row in range(3):
        assert sorted(mtds[:, row]) == [0, 1, 2, 3]
        assert np.all(np.diff(values[:, row]) > 0) and values[0, row] > 0
    m, v = race.next(np.array([0]), np.array([0]), np.zeros((3, 4), dtype=bool))
    assert 0 <= m[0] < 4 and 0 < v[0] < np.inf  # a row not yet asked starts afresh


def test_race_pick_survives_rounding_of_the_cumulative_rates():
    # once MTD 0 is claimed, every row proposes MTD 1, the only free one; at
    # 5e-324 (the least double) about half the targets u * rate round up to
    # the row's end, and the guard puts them on MTD 1
    for small in (1e-20, 5e-324):
        race = Race(np.array([1.0, small]), 64, 1, np.random.default_rng(0))
        rows, rb = np.arange(64), np.zeros(64, dtype=int)
        claimed = np.zeros((64, 2), dtype=bool)
        first, v1 = race.next(rows, rb, claimed)
        assert np.all(first == 0)
        claimed[:, 0] = True
        with np.errstate(over="ignore"):  # last + Exp(1) / 5e-324 overflows to inf
            second, v2 = race.next(rows, rb, claimed)
        assert np.all(second == 1) and np.all(v2 > v1), small


def test_race_shared_rates_search_as_per_drop_rates_do():
    # rates shared by every drop, (K,), search one cumulative for drops with
    # nothing claimed; the same rates given per drop, (D, K), build each
    # drop's own. Picks and values must be equal, bit for bit: on a
    # first call, over a whole matching, and where a target u * free rounds
    # up to the row's end (at two rates of 5e-324, u >= 3/4 does), so the
    # guard picks the last MTD.
    d, n_rb = 64, 3
    for rates in (np.random.default_rng(40).uniform(0.2, 3.0, 1000), np.full(2, 5e-324)):
        k = rates.size
        fresh = np.zeros((d, k), dtype=bool)
        rows, rb = np.repeat(np.arange(d), n_rb), np.tile(np.arange(n_rb), d)
        with np.errstate(over="ignore", divide="ignore"):  # Exp(1) / 1e-323 is inf
            shared = Race(rates, d, n_rb, np.random.default_rng(41)).next(rows, rb, fresh)
            own = Race(np.tile(rates, (d, 1)), d, n_rb, np.random.default_rng(41)).next(
                rows, rb, fresh)
            assert np.array_equal(shared[0], own[0]) and np.array_equal(shared[1], own[1])
            matched = [match_assignments(Race(r, d, n_rb, np.random.default_rng(42)))
                       for r in (rates, np.tile(rates, (d, 1)))]
        assert np.array_equal(matched[0][0], matched[1][0])
        assert np.array_equal(matched[0][1], matched[1][1])
    rng = np.random.default_rng(41)
    rng.standard_exponential(d * n_rb)
    targets = rng.random(d * n_rb) * 1e-323
    assert np.any(targets == 1e-323) and np.all(shared[0][targets == 1e-323] == 1)


def test_race_rows_stop_once_their_drop_is_full():
    # K < N: a row is asked again only after losing its MTD to another RB, so
    # no row is asked once all K MTDs of its drop are claimed, and none more
    # than min(N, K) times
    n_rb, k, d = 20, 5, 256
    reads = np.zeros((d, n_rb), dtype=int)

    class Counting(Race):
        def next(self, drop, rb, claimed):
            assert np.all(claimed[drop].sum(axis=1) < k)
            np.add.at(reads, (drop, rb), 1)
            return super().next(drop, rb, claimed)

    rates = np.random.default_rng(30).uniform(0.2, 3.0, (d, k))
    selected, _ = match_assignments(Counting(rates, d, n_rb, np.random.default_rng(31)))
    assert np.all((selected >= 0).sum(axis=1) == k)
    assert reads.max() <= min(n_rb, k) and np.all(reads >= 1)


@pytest.mark.parametrize("bad, shown", [(math.inf, "[inf]"), (math.nan, "[nan]"), (-1.0, "[-1.]")])
def test_race_rejects_rates_not_finite_and_nonnegative(bad, shown):
    # an infinite rate (an MTD heard at exactly 0 W), a NaN or a negative
    # rate has no exponential law to race: each fails loudly, naming the
    # rates, whether shared by every drop or per drop
    for rates in ([bad, 1.0, 2.0], [[1.0, 1.0, 2.0], [1.0, bad, 2.0], [1.0, 1.0, 2.0]]):
        with pytest.raises(ValueError, match="race rates must be finite and nonnegative") as e:
            match_assignments(Race(rates, 3, 2, np.random.default_rng(0)))
        assert str(e.value).endswith(f"got {shown}")
    # a rate of 0 is an MTD heard at infinite power: legal, and never picked
    # while another MTD is free
    selected, value = match_assignments(Race([0.0, 1.0, 2.0], 3, 2, np.random.default_rng(0)))
    assert np.sort(selected, axis=1).tolist() == [[1, 2]] * 3 and np.all(np.isfinite(value))


#: family-wise error rate of the race's law checks, fixed before any result
_RACE_ALPHA = 0.05


def test_race_follows_the_law_of_the_drawn_matrix():
    # The race and a drawn matrix of independent Exp(rate) entries, matched
    # alike, give the same law: the first proposal is Exp(sum of the rates)
    # and belongs to MTD k with probability rate_k over that sum; the matched
    # values and MTDs of every RB agree between the two, with rates shared
    # (K > N, K = N) and per drop (K < N, drops run out of MTDs). All
    # comparisons form one Holm family.
    from scipy import stats

    d = 4000
    rng = np.random.default_rng(21)
    p_values = {}
    cases = {"shared": (3, 5, False), "square": (4, 4, False), "per-drop": (4, 3, True)}
    for case, (n_rb, k, per_drop) in cases.items():
        rates = rng.uniform(0.2, 3.0, (d, k) if per_drop else k)
        race = Race(rates, d, n_rb, np.random.default_rng(22))
        first = race.next(np.arange(d), np.zeros(d, dtype=int), np.zeros((d, k), dtype=bool))
        total = rates.sum(axis=-1)
        p_values[case, "first value"] = stats.kstest(first[1] * total, "expon").pvalue
        if not per_drop:
            counts = np.bincount(first[0], minlength=k)
            p_values[case, "first pick"] = stats.chisquare(counts, d * rates / total).pvalue
        matrix = rng.standard_exponential((d, n_rb, k)) / (rates[:, None] if per_drop else rates)
        ours = match_assignments(Race(rates, d, n_rb, np.random.default_rng(23)))
        theirs = match_assignments(SortedMatrix(matrix))
        for n in range(n_rb):
            p_values[case, "value", n] = stats.ks_2samp(ours[1][:, n], theirs[1][:, n]).pvalue
            table = np.array([np.bincount(x[0][:, n] + 1, minlength=k + 1) for x in (ours, theirs)])
            p_values[case, "mtd", n] = stats.chi2_contingency(table[:, table.sum(0) > 0]).pvalue
    assert not holm_rejected(p_values, _RACE_ALPHA), p_values


def test_nested_candidates_never_increase_row_minimum():
    rng = np.random.default_rng(6)
    for _ in range(100):
        mat = rng.uniform(size=(4, int(rng.integers(1, 40))))
        extra = rng.uniform(size=(4, 1))
        wider = np.hstack([mat, extra])
        for r in range(4):
            assert wider[r].min() <= mat[r].min()
            assert wider[r, select_min_interference(wider[r])] <= mat[r, select_min_interference(mat[r])]


# --- enumeration oracle --------------------------------------------------------


def test_oracle_hand_example():
    a = optimal_assignment_oracle([[1.0, 5.0], [2.0, 3.0]])
    assert a.rb_to_mtd == [0, 1]
    assert a.total_interference(np.array([[1.0, 5.0], [2.0, 3.0]])) == 4.0


def test_oracle_beats_bad_greedy_case():
    # row minima collide; the oracle must weigh the alternatives globally
    m = np.array([[1.0, 1.2], [1.1, 9.0]])
    assert optimal_assignment_oracle(m).rb_to_mtd == [1, 0]
    assert match_matrix(m).rb_to_mtd == [0, 1]  # greedy keeps RB0's claim


def test_oracle_size_limits():
    with pytest.raises(ValueError):
        optimal_assignment_oracle(np.ones((9, 9)))
    with pytest.raises(ValueError):
        optimal_assignment_oracle(np.ones((3, 2)))  # K < N unsupported


def test_greedy_never_beats_oracle_and_matches_on_unique_minima():
    rng = np.random.default_rng(7)
    equal_cases = 0
    for _ in range(300):
        n = int(rng.integers(1, 7))
        k = int(rng.integers(n, 7))
        mat = rng.uniform(0.1, 1.0, size=(n, k))
        greedy = match_matrix(mat)
        oracle = optimal_assignment_oracle(mat)
        gt = greedy.total_interference(mat)
        ot = oracle.total_interference(mat)
        assert gt >= ot - 1e-12
        argmins = [int(np.argmin(mat[r])) for r in range(n)]
        if len(set(argmins)) == n:
            equal_cases += 1
            assert greedy.rb_to_mtd == oracle.rb_to_mtd == argmins
    assert equal_cases > 50  # the no-conflict branch was actually exercised


# --- assignment container -----------------------------------------------------


def test_assignment_rejects_duplicates():
    with pytest.raises(ValueError):
        Assignment([0, 1, 0])
    a = Assignment([2, None, 0])
    assert a.n_assigned == 2


# --- power control --------------------------------------------------------------


def test_mtd_power_control_inverts_target():
    h_k = 0.3 - 0.4j  # |h|^2 = 0.25
    target = 10 ** 0.5
    p = float(mtd_power_control(abs(h_k) ** 2, 2e-15, 3e-15, target, p_max=1e3))
    assert p == pytest.approx(target * 5e-15 / 0.25, rel=1e-12)
    served = LinkBudget(p_c=0.0, p_k=p, n0=2e-15, i0=3e-15)
    assert float(sinr_mta(h_k, served)) == pytest.approx(target, rel=1e-12)


def test_mtd_power_control_cap_binds():
    p = float(mtd_power_control(abs(1e-9 + 0j) ** 2, 1e-15, 0.0, 10.0, p_max=0.2))
    assert p == 0.2


def test_cu_power_control_hits_target_without_interference():
    rng = np.random.default_rng(8)
    h_c = (rng.standard_normal(4) + 1j * rng.standard_normal(4)) * 1e-5
    n0 = 1.1357e-15
    target = 10.0
    p_c = float(cu_power_control(np.sum(np.abs(h_c) ** 2), n0, target, p_max=np.inf))
    w = mrc_weights(h_c)
    sinr = float(sinr_cellular(h_c, w, np.zeros(4), LinkBudget(p_c=p_c, p_k=0.0, n0=n0)))
    assert sinr == pytest.approx(target, rel=1e-12)


def test_cu_power_control_vectorized_cap():
    h = np.ones((3, 2), dtype=complex) * np.array([[1e-9], [1e-5], [1.0]])
    p = cu_power_control(np.sum(np.abs(h) ** 2, axis=-1), 1e-15, 10.0, p_max=0.2)
    assert p.shape == (3,)
    assert p[0] == 0.2  # deep fade -> cap
    assert p[2] < p[1] < 0.2
