"""Beamforming and SINR formula tests, including the closed-form identity."""

import math

import numpy as np
import pytest

from mtc_underlay import (
    DegenerateChannelError,
    LinkBudget,
    effective_interference,
    interference_criterion,
    mrc_weights,
    outage_indicator,
    sinr_cellular,
    sinr_mta,
    throughput,
)


def _random_channels(rng, n, m, scale=1.0):
    return scale * (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))) / math.sqrt(2)


# --- MRC weights -------------------------------------------------------------


def test_mrc_weights_is_conjugate():
    h = np.array([1 + 2j, -0.5j, 3.0, 0.25 - 0.25j])
    w = mrc_weights(h)
    np.testing.assert_array_equal(w, np.conj(h))
    # applying the weights to the serving channel yields its squared norm
    assert (w @ h).real == pytest.approx(np.sum(np.abs(h) ** 2), rel=1e-12)
    assert abs((w @ h).imag) < 1e-12


def test_mrc_weights_pure_imaginary_example():
    w = mrc_weights(np.array([1j, 0, 0, 0]))
    np.testing.assert_array_equal(w, np.array([-1j, 0, 0, 0]))


def test_mrc_weights_zero_channel_rejected():
    with pytest.raises(DegenerateChannelError):
        mrc_weights(np.zeros(4, dtype=complex))


# --- effective interference --------------------------------------------------


def test_effective_interference_hand_value():
    w = np.array([1.0, 0.0])
    h = np.array([0.6, 0.8])
    assert effective_interference(w, h, 1.0) == pytest.approx(0.36, rel=1e-12)
    # normalization divides by ||w||^2 (here 1, so identical)
    assert effective_interference(w, h, 1.0, normalized=True) == pytest.approx(0.36, rel=1e-12)


def test_effective_interference_normalized_scale_invariant():
    rng = np.random.default_rng(0)
    w = _random_channels(rng, 1, 4)[0]
    h = _random_channels(rng, 1, 4)[0]
    a = effective_interference(w, h, 2.5, normalized=True)
    b = effective_interference((3.0 - 4.0j) * w, h, 2.5, normalized=True)
    assert b == pytest.approx(a, rel=1e-12)
    # raw form scales with |alpha|^2
    raw = effective_interference(w, h, 2.5)
    raw_scaled = effective_interference(2.0 * w, h, 2.5)
    assert raw_scaled == pytest.approx(4.0 * raw, rel=1e-12)


def test_effective_interference_cauchy_schwarz_bound():
    rng = np.random.default_rng(1)
    for _ in range(200):
        w = _random_channels(rng, 1, 6)[0]
        h = _random_channels(rng, 1, 6)[0]
        p = rng.uniform(0.1, 10.0)
        val = effective_interference(w, h, p, normalized=True)
        assert 0.0 <= val <= p * np.sum(np.abs(h) ** 2) * (1 + 1e-12)


def test_effective_interference_zero_beamformer():
    with pytest.raises(DegenerateChannelError):
        effective_interference(np.zeros(2), np.ones(2), 1.0, normalized=True)


# --- cellular SINR -----------------------------------------------------------


def test_sinr_cellular_hand_value():
    # 2 antennas, aligned interferer, all powers and noise at 1 -> 1/(1+1)
    h_c = np.array([1.0 + 0j, 0.0])
    h_kb = np.array([1.0 + 0j, 0.0])
    w = mrc_weights(h_c)
    budget = LinkBudget(p_c=1.0, p_k=1.0, n0=1.0)
    assert sinr_cellular(h_c, w, h_kb, budget) == pytest.approx(0.5, rel=1e-12)


def test_sinr_cellular_beamformer_scale_invariance():
    rng = np.random.default_rng(2)
    h_c = _random_channels(rng, 1, 4)[0]
    h_kb = _random_channels(rng, 1, 4)[0]
    w = mrc_weights(h_c)
    budget = LinkBudget(p_c=0.1, p_k=0.01, n0=1e-15)
    base = sinr_cellular(h_c, w, h_kb, budget)
    for alpha in (2.0, 1e-6, 1 + 1j, -3.7j):
        assert sinr_cellular(h_c, alpha * w, h_kb, budget) == pytest.approx(base, rel=1e-10)


def test_sinr_cellular_closed_form_identity():
    # generic Eq-style evaluation with MRC weights vs the reduced closed form
    rng = np.random.default_rng(3)
    n = 1000
    h_c = _random_channels(rng, n, 4, scale=1e-5)
    h_kb = _random_channels(rng, n, 4, scale=1e-5)
    p_c = rng.uniform(1e-4, 0.2, n)
    p_k = rng.uniform(1e-6, 0.01, n)
    n0 = 1.1357e-15
    w = mrc_weights(h_c)
    route_a = sinr_cellular(h_c, w, h_kb, LinkBudget(p_c=p_c, p_k=p_k, n0=n0))
    hc_sq = np.sum(np.abs(h_c) ** 2, axis=1)
    cross = np.abs(np.einsum("nm,nm->n", np.conj(h_c), h_kb)) ** 2
    route_b = p_c * hc_sq / (p_k * cross / hc_sq + n0)
    np.testing.assert_allclose(route_a, route_b, rtol=1e-12)


def test_sinr_cellular_power_monotonicity():
    rng = np.random.default_rng(4)
    h_c = _random_channels(rng, 1, 4)[0]
    h_kb = _random_channels(rng, 1, 4)[0]
    w = mrc_weights(h_c)
    values_pk = [
        float(sinr_cellular(h_c, w, h_kb, LinkBudget(p_c=1.0, p_k=pk, n0=1e-3)))
        for pk in (0.0, 0.5, 1.0, 5.0)
    ]
    assert all(a > b for a, b in zip(values_pk, values_pk[1:]))
    values_pc = [
        float(sinr_cellular(h_c, w, h_kb, LinkBudget(p_c=pc, p_k=1.0, n0=1e-3)))
        for pc in (0.5, 1.0, 2.0)
    ]
    assert all(a < b for a, b in zip(values_pc, values_pc[1:]))


def test_sinr_mta():
    budget = LinkBudget(p_c=0.0, p_k=3.0, n0=1.0, i0=1.0)
    assert sinr_mta(np.sqrt(2.0) + 0j, budget) == pytest.approx(3.0, rel=1e-12)
    # interference floor raises the denominator
    hot = LinkBudget(p_c=0.0, p_k=3.0, n0=1.0, i0=2.0)
    assert sinr_mta(np.sqrt(2.0) + 0j, hot) == pytest.approx(2.0, rel=1e-12)


def test_link_budget_validation():
    with pytest.raises(ValueError):
        LinkBudget(p_c=1.0, p_k=1.0, n0=0.0)
    with pytest.raises(ValueError):
        LinkBudget(p_c=-1.0, p_k=1.0, n0=1.0)
    with pytest.raises(ValueError):
        LinkBudget(p_c=1.0, p_k=-2.0, n0=1.0)


# --- throughput --------------------------------------------------------------


def test_throughput_single_rb_reference():
    # 180 kHz at SINR 10 -> 180000 * log2(11), independently: 622697.691 bit/s
    expected = 180e3 * math.log2(11.0)
    assert throughput([10.0], 180e3) == pytest.approx(expected, rel=1e-12)
    assert throughput([10.0], 180e3) == pytest.approx(622697.6913547135, rel=1e-9)


def test_throughput_additive_and_monotone():
    assert throughput([10.0, 10.0], 180e3) == pytest.approx(2 * throughput([10.0], 180e3), rel=1e-12)
    assert throughput([0.0], 180e3) == 0.0
    assert throughput([1.0, 2.0], 180e3) < throughput([1.0, 3.0], 180e3)
    with pytest.raises(ValueError):
        throughput([-0.5], 180e3)


def test_throughput_sums_each_drop_of_a_block():
    block = np.array([[10.0, 0.0, 3.0], [1.0, 2.0, 4.0]])
    rates = throughput(block, 180e3)
    assert rates.shape == (2,)
    assert rates.tolist() == [throughput(row, 180e3) for row in block]


# --- outage and interference tests -------------------------------------------


def test_outage_boundary_inclusive():
    assert outage_indicator(1.0, 1.0) == True  # noqa: E712 - boundary contract
    assert outage_indicator(0.999, 1.0) == True  # noqa: E712
    assert outage_indicator(1.001, 1.0) == False  # noqa: E712


def test_interference_criterion_boundary_strict():
    assert interference_criterion(0.9, 1.0) == True  # noqa: E712
    assert interference_criterion(1.0, 1.0) == False  # noqa: E712
    assert interference_criterion(1.1, 1.0) == False  # noqa: E712


def test_outage_and_interference_criteria_agree():
    # per-instance interference threshold solved from the outage equality:
    # sinr > delta_th  <=>  I_eff < p_c ||h_c||^2 / delta_th - n0
    rng = np.random.default_rng(5)
    n0 = 1.1357e-15
    delta_th = 10 ** 0.7
    agree = 0
    for _ in range(500):
        h_c = _random_channels(rng, 1, 4, scale=1e-5)[0]
        h_kb = _random_channels(rng, 1, 4, scale=1e-5)[0]
        p_c = rng.uniform(1e-4, 0.2)
        p_k = rng.uniform(1e-8, 1e-2)
        w = mrc_weights(h_c)
        sinr = float(sinr_cellular(h_c, w, h_kb, LinkBudget(p_c=p_c, p_k=p_k, n0=n0)))
        i_eff = float(effective_interference(w, h_kb, p_k, normalized=True))
        delta_i = p_c * float(np.sum(np.abs(h_c) ** 2)) / delta_th - n0
        assert bool(outage_indicator(sinr, delta_th)) == (
            not bool(interference_criterion(i_eff, delta_i))
        )
        agree += 1
    assert agree == 500
