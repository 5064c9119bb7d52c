import math
import warnings

import mpmath
import numpy as np
import pytest

from mvda.rng import CounterRng, SeedSpec


def moments_match(samples, exact, label):
    """Each raw moment within 4 empirical standard errors of its target."""
    n = len(samples)
    for k, target in enumerate(exact, start=1):
        vals = samples**k
        se = vals.std(ddof=1) / math.sqrt(n)
        assert abs(vals.mean() - target) <= 4 * se, (label, k, vals.mean(), target, se)


class TestSeedSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SeedSpec(seed=-1)
        with pytest.raises(ValueError):
            SeedSpec(seed=0, stream=2**64)

    def test_json_round_trip(self):
        s = SeedSpec(seed=42, stream=7)
        assert SeedSpec.from_json(s.to_json()) == s

    @pytest.mark.parametrize(
        "doc,field",
        [({"seed": "42"}, "seed"), ({"seed": 42.0}, "seed"), ({"seed": 42, "stream": 1.5}, "stream"),
         ({"seed": 42, "stream": False}, "stream")],
        ids=["seed-string", "seed-float", "stream-float", "stream-bool"],
    )
    def test_from_json_refuses_non_integers(self, doc, field):
        with pytest.raises(TypeError, match=f"^{field} must be a JSON integer"):
            SeedSpec.from_json(doc)


class TestDeterminism:
    def test_same_triple_same_stream(self):
        a = SeedSpec(123, 4).child(2).uniforms(100)
        b = SeedSpec(123, 4).child(2).uniforms(100)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = SeedSpec(123, 4).child(0).uniforms(100)
        b = SeedSpec(123, 5).child(0).uniforms(100)
        c = SeedSpec(123, 4).child(1).uniforms(100)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_gamma_determinism(self):
        a = SeedSpec(9).child(0).gammas(2.5, 50)
        b = SeedSpec(9).child(0).gammas(2.5, 50)
        assert np.array_equal(a, b)


class TestUniforms:
    def test_open_closed_interval(self):
        u = SeedSpec(1).child(0).uniforms(200000)
        assert np.all(u > 0.0) and np.all(u <= 1.0)

    def test_mean(self):
        u = SeedSpec(2).child(0).uniforms(200000)
        assert abs(u.mean() - 0.5) <= 4 * u.std(ddof=1) / math.sqrt(len(u))


class TestNormals:
    def test_moments(self):
        z = SeedSpec(3).child(0).normals(200000)
        moments_match(z, [0.0, 1.0, 0.0, 3.0], "normal")

    def test_odd_count(self):
        assert len(SeedSpec(4).child(0).normals(7)) == 7


class TestSharedStream:
    def test_normals_are_numpy_standard_normal_after_uniforms(self):
        # one SFC64 stream: uniforms take raw words, normals continue from there
        rng = SeedSpec(11, 2).child(3)
        rng.uniforms(5)
        z = rng.normals(1_001)
        ss = np.random.SeedSequence(entropy=11, spawn_key=(2, 3))
        bits = np.random.SFC64(ss)
        bits.random_raw(5)
        assert np.array_equal(z, np.random.Generator(bits).standard_normal(1_001))

    def test_complex_normals_are_scaled_consecutive_normals(self):
        z = SeedSpec(12).child(0).complex_normals(501)
        x = SeedSpec(12).child(0).normals(1_002)
        assert np.array_equal(z.real, math.sqrt(0.5) * x[0::2])
        assert np.array_equal(z.imag, math.sqrt(0.5) * x[1::2])
        with pytest.raises(TypeError):  # the variance is fixed at 1/2 per part
            SeedSpec(12).child(0).complex_normals(501, 0.5)


class TestGammas:
    @pytest.mark.parametrize("shape", [0.5, 1.0, 2.0, 3.7, 0.05, 0.3, 0.999, 40.0])
    def test_first_four_moments(self, shape):
        g = SeedSpec(5).child(0).gammas(shape, 100000)
        exact = [
            shape,
            shape * (shape + 1),
            shape * (shape + 1) * (shape + 2),
            shape * (shape + 1) * (shape + 2) * (shape + 3),
        ]
        moments_match(g, exact, f"gamma({shape})")

    def test_gammas_from_shape_one_are_numpy_standard_gamma(self):
        g = SeedSpec(13, 2).child(3).gammas(2.5, 1_001)
        gen = np.random.Generator(np.random.SFC64(np.random.SeedSequence(13, spawn_key=(2, 3))))
        assert np.array_equal(g, gen.standard_gamma(2.5, 1_001))

    def test_gammas_below_shape_one_are_boosted_by_one_exponential(self):
        # Gamma(a) = Gamma(a + 1) * exp(-E / a): two draws, in this order
        rng = SeedSpec(13, 2).child(3)
        g = rng.gammas(0.7, 1_001)
        z = rng.normals(101)
        gen = np.random.Generator(np.random.SFC64(np.random.SeedSequence(13, spawn_key=(2, 3))))
        boosted = gen.standard_gamma(1.7, 1_001)
        e = gen.standard_exponential(1_001)
        assert np.array_equal(g, boosted * np.exp(e / -0.7))
        # and nothing else: the stream goes on right after the exponentials
        assert np.array_equal(z, gen.standard_normal(101))

    def test_gammas_continue_the_stream_after_normals(self):
        rng = SeedSpec(14).child(1)
        rng.normals(5)
        g = rng.gammas(2.5, 1_001)
        gen = np.random.Generator(np.random.SFC64(np.random.SeedSequence(14, spawn_key=(0, 1))))
        gen.standard_normal(5)
        assert np.array_equal(g, gen.standard_gamma(2.5, 1_001))

    @pytest.mark.parametrize("shape", [0.7, 2.5])
    def test_gammas_into_a_buffer_row_are_the_same_draws(self, shape):
        rows = np.zeros((2, 1_001))
        rng = SeedSpec(15).child(2)
        got = rng.gammas(shape, 1_001, out=rows[1])
        after = rng.normals(11)
        fresh = SeedSpec(15).child(2)
        assert np.shares_memory(got, rows) and not rows[0].any()
        assert np.array_equal(rows[1], fresh.gammas(shape, 1_001))
        assert np.array_equal(after, fresh.normals(11))

    def test_positive(self):
        g = SeedSpec(6).child(0).gammas(0.3, 50000)
        assert np.all(g > 0)

    def test_invalid_shape(self):
        with pytest.raises(ValueError):
            SeedSpec(7).child(0).gammas(0.0, 10)

    @pytest.mark.parametrize("shape", [math.inf, math.nan])
    def test_non_finite_shape(self, shape):
        # the shape is checked before the draw count, so an empty request fails too
        with pytest.raises(ValueError, match="finite"):
            SeedSpec(7).child(0).gammas(shape, 0)


class TestGammaLowerTail:
    """The law near 0, which raw moments barely see: log moments and the
    share of draws that round to exactly 0."""

    N = 100_000

    @pytest.mark.parametrize("key", [(5, 0, 0), (21, 3, 7)])
    @pytest.mark.parametrize("shape", [0.05, 0.3, 0.7, 1 - 2**-52, 1.0, 2.5])
    def test_log_mean_and_variance(self, shape, key):
        # E log G = psi(a) and Var log G = psi'(a)
        log_g = np.log(SeedSpec(*key[:2]).child(key[2]).gammas(shape, self.N))
        mean, var = log_g.mean(), log_g.var(ddof=1)
        se = math.sqrt(var / self.N)
        assert abs(mean - float(mpmath.digamma(shape))) <= 4 * se, (mean, se)
        assert abs(var / float(mpmath.psi(1, shape)) - 1) <= 0.05, var

    def test_share_of_exact_zeros(self):
        # P(G < x) ~ x**a / Gamma(1 + a) as x -> 0, and a draw below half
        # the smallest subnormal, 2**-1075, rounds to 0
        a, chunks = 0.01, 5
        law = 2.0 ** (-1075 * a) / math.gamma(1 + a)
        zeros = sum(
            int(np.count_nonzero(SeedSpec(5).child(c).gammas(a, self.N) == 0.0))
            for c in range(chunks)
        )
        n = chunks * self.N
        assert abs(zeros / n - law) <= 4 * math.sqrt(law * (1 - law) / n), (zeros, law * n)

    def test_subnormal_shape_gives_zeros_quietly(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = SeedSpec(5).child(0).gammas(5e-324, 1_000)
        assert np.all(g == 0.0)


class TestKeyedSubstreams:
    N = 100_000

    @pytest.mark.parametrize(
        "key_a, key_b",
        [((21, 3, 7), (21, 3, 8)), ((21, 3, 7), (21, 4, 7))],
        ids=["adjacent_chunks", "adjacent_streams"],
    )
    def test_normals_uncorrelated(self, key_a, key_b):
        x = SeedSpec(*key_a[:2]).child(key_a[2]).normals(self.N)
        y = SeedSpec(*key_b[:2]).child(key_b[2]).normals(self.N)
        assert abs(np.corrcoef(x, y)[0, 1]) <= 4 / math.sqrt(self.N)

    @pytest.mark.parametrize("key", [(21, 3, 7), (22, 0, 1)])
    def test_small_shape_gamma_moments(self, key):
        shape = 0.3
        g = SeedSpec(*key[:2]).child(key[2]).gammas(shape, self.N)
        exact = [math.prod(shape + i for i in range(r)) for r in range(1, 5)]
        moments_match(g, exact, f"gamma({shape}) at {key}")


def test_complex_normals_variance():
    z = SeedSpec(8).child(0).complex_normals(100000)
    # |z|^2 should average to 1 (variance 1/2 per component)
    sq = np.abs(z) ** 2
    assert abs(sq.mean() - 1.0) <= 4 * sq.std(ddof=1) / math.sqrt(len(sq))
