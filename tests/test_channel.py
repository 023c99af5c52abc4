import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jamsim import (JammerSpec, draw_jammer_sequence, gen_channel,
                    jamming_overlap_sq, make_codebook, substream)


def test_gen_channel_rejects_degenerate_inputs():
    rng = substream(0, 0)
    with pytest.raises(ValueError):
        gen_channel(rng, 4, 0.0)
    with pytest.raises(ValueError):
        gen_channel(rng, 4, -1.0)
    with pytest.raises(ValueError):
        gen_channel(rng, 0, 1.0)


def test_gen_channel_mean_power():
    # law of large numbers: mean of ||g||^2/M over 1e5 draws, beta=2
    rng = substream(2024, 0)
    m, beta, draws = 4, 2.0, 100000
    total = 0.0
    for _ in range(draws):
        g = gen_channel(rng, m, beta)
        total += np.vdot(g, g).real / m
    assert total / draws == pytest.approx(beta, abs=0.02)


def test_gen_channel_halves_variance_between_parts():
    g = gen_channel(substream(5, 1), 200000, 3.0)
    assert g.real.var() == pytest.approx(1.5, rel=0.02)
    assert g.imag.var() == pytest.approx(1.5, rel=0.02)


def test_substream_independence():
    # distinct substreams are uncorrelated: 1e5 paired entries
    a = gen_channel(substream(7, 0), 100000, 1.0)
    b = gen_channel(substream(7, 1), 100000, 1.0)
    corr = np.corrcoef(a.real, b.real)[0, 1]
    assert abs(corr) < 0.01


def test_substream_reproducible():
    one = gen_channel(substream(42, 3, 1), 16, 1.0)
    two = gen_channel(substream(42, 3, 1), 16, 1.0)
    assert np.array_equal(one, two)


def test_codebook_trivial_and_small():
    cb = make_codebook(1)
    assert cb.tau == 1
    assert cb[0] == pytest.approx([1.0])

    cb4 = make_codebook(4)
    gram = cb4.codewords @ cb4.codewords.conj().T
    assert np.max(np.abs(gram - np.eye(4))) < 1e-12


def test_codebook_constant_modulus():
    cb = make_codebook(8)
    assert np.max(np.abs(np.abs(cb.codewords) - 1 / np.sqrt(8))) < 1e-12


def test_codebook_rejects_bad_tau():
    with pytest.raises(ValueError):
        make_codebook(0)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=128))
def test_codebook_orthonormal(tau):
    cb = make_codebook(tau)
    gram = cb.codewords @ cb.codewords.conj().T
    assert np.max(np.abs(gram - np.eye(tau))) < 1e-12


@pytest.mark.parametrize("tau", [512, 1024])
def test_codebook_orthonormal_large(tau):
    cb = make_codebook(tau)
    gram = cb.codewords @ cb.codewords.conj().T
    assert np.max(np.abs(gram - np.eye(tau))) < 1e-12


def test_jammer_absent_is_zero():
    seq = draw_jammer_sequence(substream(0, 0), JammerSpec(kind="absent"), 5)
    assert np.array_equal(seq, np.zeros(5))


def test_jammer_gaussian_unit_expected_energy():
    rng = substream(11, 0)
    model = JammerSpec(kind="gaussian")
    total = 0.0
    draws = 100000
    for _ in range(draws):
        s = draw_jammer_sequence(rng, model, 8)
        total += np.vdot(s, s).real
    assert total / draws == pytest.approx(1.0, abs=0.01)


def test_jammer_sphere_exact_norm():
    rng = substream(12, 0)
    model = JammerSpec(kind="sphere")
    for _ in range(20):
        s = draw_jammer_sequence(rng, model, 6)
        assert np.vdot(s, s).real == pytest.approx(1.0, abs=1e-12)


def test_jammer_deterministic_replays_and_validates():
    jammer = JammerSpec(kind="codeword", codeword_index=1)
    out = draw_jammer_sequence(substream(0, 0), jammer, 4)
    assert np.array_equal(out, make_codebook(4)[1])
    assert np.array_equal(draw_jammer_sequence(substream(1, 0), jammer, 4), out)
    with pytest.raises(ValueError):
        draw_jammer_sequence(substream(0, 0), jammer, 1)    # index 1 needs tau >= 2
    with pytest.raises(ValueError):
        JammerSpec(kind="codeword", codeword_index=-1)
    with pytest.raises(ValueError):
        JammerSpec(kind="deterministic")


def test_overlap_mean_is_one_over_tau():
    # for an isotropic Gaussian sequence against a unit-norm pilot the
    # squared overlap is exponential with mean 1/tau
    tau = 8
    cb = make_codebook(tau)
    rng = substream(13, 0)
    model = JammerSpec(kind="gaussian")
    total = 0.0
    draws = 100000
    for _ in range(draws):
        total += jamming_overlap_sq(draw_jammer_sequence(rng, model, tau), cb[0])
    mean = total / draws
    assert mean == pytest.approx(1 / tau, rel=0.03)


def test_overlap_length_mismatch():
    with pytest.raises(ValueError):
        jamming_overlap_sq(np.ones(3), np.ones(4))
