import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jamsim import JammerSpec, draw_overlap_amplitude, substream
from jamsim.channel import draw_jammer_sequence, gen_channel, jamming_overlap_sq, make_codebook
from jamsim.montecarlo import STRATA


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


def test_substream_keys_are_injective():
    # a longer path, another last word, or another seed is another stream
    s, i = 11, 5
    paths = [(s, i), (s, i, 0), (s, i, 1), (s + 1, i, 0), (s,), (s, i, 0, 0), (s, 0, i)]
    draws = [substream(*path).integers(2**63, size=4) for path in paths]
    assert len({tuple(d) for d in draws}) == len(paths)
    # the words sit in Philox's key and counter as documented
    state = substream(2**64 - 1, 7, 8, 9).bit_generator.state["state"]
    assert state["key"].tolist() == [2**64 - 1, 7]
    assert state["counter"].tolist() == [0, 8, 9, 3]


def test_substream_cross_tag_draws_are_uncorrelated():
    # streams that share the key (seed, trial) and differ in the tag word of
    # the counter: 1e5 paired entries
    a = gen_channel(substream(7, 3, 0), 100000, 1.0)
    b = gen_channel(substream(7, 3, 1), 100000, 1.0)
    assert abs(np.corrcoef(a.real, b.real)[0, 1]) < 0.01
    assert abs(np.corrcoef(a.imag, b.imag)[0, 1]) < 0.01


@pytest.mark.parametrize("path", [(-1, 0), (0, -1), (2**64, 0), (0, 2**64),
                                  (0, 1, 2, 3, 4), (0, 1.5), (1.0, 2),
                                  (True, 0), (0, True), (0, 1, True)])
def test_substream_rejects_bad_keys(path):
    with pytest.raises(ValueError, match="stream"):
        substream(*path)


def test_codebook_trivial_and_small():
    cb = make_codebook(1)
    assert cb.shape == (1, 1)
    assert not cb.flags.writeable
    assert cb[0] == pytest.approx([1.0])

    cb4 = make_codebook(4)
    gram = cb4 @ cb4.conj().T
    assert np.max(np.abs(gram - np.eye(4))) < 1e-12


def test_codebook_constant_modulus():
    cb = make_codebook(8)
    assert np.max(np.abs(np.abs(cb) - 1 / np.sqrt(8))) < 1e-12


def test_codebook_rejects_bad_tau():
    with pytest.raises(ValueError):
        make_codebook(0)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=128))
def test_codebook_orthonormal(tau):
    cb = make_codebook(tau)
    gram = cb @ cb.conj().T
    assert np.max(np.abs(gram - np.eye(tau))) < 1e-12


@pytest.mark.parametrize("tau", [512, 1024])
def test_codebook_orthonormal_large(tau):
    cb = make_codebook(tau)
    gram = cb @ cb.conj().T
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
    # a fractional index would match no pilot and act as an absent jammer,
    # a bool would jam codeword 1 or 0, and a non-bool flag would be read by
    # its truth value
    for bad in (1.5, 1.0, "1", None, True):
        with pytest.raises(ValueError, match="codeword_index"):
            JammerSpec(kind="codeword", codeword_index=bad)
    for bad in ("no", 0, 1, None):
        with pytest.raises(ValueError, match="data_phase_active"):
            JammerSpec(data_phase_active=bad)
    assert JammerSpec(kind="codeword", codeword_index=np.int64(1)) == jammer


@pytest.mark.parametrize("kind,is_random,pilot", [
    ("gaussian", True, None),
    ("sphere", True, None),
    ("absent", False, None),
    ("codeword", False, 3),
])
def test_jammer_kind_answers(kind, is_random, pilot):
    # is_random is the one kind predicate; pilot(tau) is a codeword jammer's
    # index, checked against tau, and None for every other kind at any tau
    jammer = JammerSpec(kind=kind, codeword_index=3)
    assert jammer.is_random is is_random
    assert jammer.pilot(4) == pilot
    if pilot is None:
        assert jammer.pilot(1) is None
    else:
        with pytest.raises(ValueError, match=r"codeword_index 3 out of range for tau=3"):
            jammer.pilot(3)


class _FixedUniforms:
    """A generator stand-in whose one draw method, random, returns a fixed (u, phi)."""

    def __init__(self, u, phi):
        self.pair = (u, phi)
        self.sizes = []

    def random(self, size):
        self.sizes.append(size)
        return np.array(self.pair)


@pytest.mark.parametrize("tau", [1, 2, 20])
@pytest.mark.parametrize("kind", ["gaussian", "sphere"])
def test_overlap_amplitude_is_one_inverse_cdf_draw(kind, tau):
    # the layout a stratified round one relies on: one random(2) call and no
    # other draw (the stand-in has no other method), whose first uniform u
    # sets |a|^2 by the closed-form inverse CDF at t = -ln(1 - u), t / tau
    # for gaussian and 1 - exp(-t / (tau - 1)) for sphere (1 at tau = 1),
    # and whose second, phi, sets a's phase 2 pi phi mod 2 pi
    jammer = JammerSpec(kind=kind)
    for u, phi in [(0.0, 0.3), (0.1, 0.3), (0.5, 0.9), (0.97, 0.02), (1 - 2.0 ** -53, 0.5)]:
        rng = _FixedUniforms(u, phi)
        a = draw_overlap_amplitude(rng, jammer, tau - 1, tau)
        assert rng.sizes == [2]
        t = -math.log1p(-u)
        if kind == "gaussian":
            law = t / tau
        else:
            law = 1.0 - math.exp(-t / (tau - 1)) if tau > 1 else 1.0
        assert abs(a) ** 2 == pytest.approx(law, rel=1e-12)
        if law > 0:
            assert cmath.phase(a) % (2 * math.pi) == pytest.approx(2 * math.pi * phi, abs=1e-12)
    for jammer in (JammerSpec(kind="absent"), JammerSpec(kind="codeword", codeword_index=0)):
        rng = _FixedUniforms(0.5, 0.5)
        draw_overlap_amplitude(rng, jammer, 0, tau)
        assert rng.sizes == []


def _uniform_of(kind, tau, overlap_sq):
    """The u whose closed-form inverse CDF is overlap_sq (tau >= 2 for sphere)."""
    if kind == "gaussian":
        return -math.expm1(-tau * overlap_sq)
    return 1.0 - (1.0 - overlap_sq) ** (tau - 1)


@pytest.mark.parametrize("tau", [2, 20])
@pytest.mark.parametrize("kind", ["gaussian", "sphere"])
def test_each_stratum_draws_its_slice_of_the_overlap_law(kind, tau):
    # stratum (h, H) maps the first uniform U into u in [h/H, (h+1)/H) and
    # reads the same inverse CDF at u; neighbouring strata share an edge up
    # to rounding. With one random(2) call, as unstratified. The top
    # stratum at U = 1 - 2^-53 gives a finite overlap, where the recipe
    # 1 - (h + U)/H would round 1 - u to 0
    assert (STRATA - 1 + (1 - 2.0 ** -53)) / STRATA == 1.0
    jammer = JammerSpec(kind=kind)
    for h in range(STRATA):
        lo, hi = h / STRATA, (h + 1) / STRATA
        for big_u in (0.0, 0.5, 1 - 2.0 ** -53):
            rng = _FixedUniforms(big_u, 0.25)
            a = draw_overlap_amplitude(rng, jammer, 0, tau, (h, STRATA))
            assert rng.sizes == [2]
            assert math.isfinite(abs(a))
            u = _uniform_of(kind, tau, abs(a) ** 2)
            assert lo - 1e-12 <= u <= hi + 1e-12, (h, big_u, u)
            if big_u == 0.5:
                assert u == pytest.approx((h + 0.5) / STRATA, rel=1e-12)
                assert cmath.phase(a) == pytest.approx(math.pi / 2, abs=1e-12)
    # there 1 - u is 2^-53 / H, t = -ln(1 - u) exactly ln H + 53 ln 2
    top = draw_overlap_amplitude(_FixedUniforms(1 - 2.0 ** -53, 0.0), jammer, 0, tau,
                                 (STRATA - 1, STRATA))
    t = math.log(STRATA) + 53 * math.log(2)
    law = t / tau if kind == "gaussian" else -math.expm1(-t / (tau - 1))
    assert abs(top) ** 2 == pytest.approx(law, rel=1e-12)


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
