"""Determinism, stream independence, and distributional checks."""

import hashlib
import math
import struct
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import stats

from exchbound import (
    Bernoulli,
    BernoulliParamMixture,
    Beta,
    DomainError,
    FiniteMixture,
    PointMass,
    SeedSpec,
    TruncatedBetaDensity,
    UniformDensity,
    derive_stream,
    sample_sequence,
    standard_suite,
)
from exchbound.montecarlo import _block_stream
from exchbound.sampler import _Words

TWO_ATOM = FiniteMixture([(0.5, Bernoulli(0.2)), (0.5, Bernoulli(0.8))])


class TestStreams:
    def test_identical_seedspec_identical_stream(self):
        a = derive_stream(SeedSpec(master_seed=123, replication_index=0))
        b = derive_stream(SeedSpec(master_seed=123, replication_index=0))
        assert np.array_equal(
            a.integers(0, 2**63, size=32), b.integers(0, 2**63, size=32)
        )

    def test_distinct_replications_distinct_first_output(self):
        a = derive_stream(SeedSpec(master_seed=123, replication_index=0))
        b = derive_stream(SeedSpec(master_seed=123, replication_index=1))
        assert a.integers(0, 2**63) != b.integers(0, 2**63)

    def test_distinct_masters_distinct_first_output(self):
        a = derive_stream(SeedSpec(master_seed=1, replication_index=0))
        b = derive_stream(SeedSpec(master_seed=2, replication_index=0))
        assert a.integers(0, 2**63) != b.integers(0, 2**63)

    def test_first_outputs_uniform_chi_square(self):
        # first uniform of each of 10^4 replication streams, 20 bins,
        # chi-square accepted at the 0.001 level
        n, bins = 10_000, 20
        firsts = np.array(
            [derive_stream(SeedSpec(master_seed=99, replication_index=i)).random() for i in range(n)]
        )
        counts, _ = np.histogram(firsts, bins=np.linspace(0.0, 1.0, bins + 1))
        expected = n / bins
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < stats.chi2.ppf(0.999, df=bins - 1)

    def test_negative_replication_index_rejected(self):
        with pytest.raises(DomainError):
            SeedSpec(master_seed=1, replication_index=-1)

    def test_replication_index_past_64_bits_rejected(self):
        # the stream hash reads 64 bits of the index too, so 2^64 would alias 0
        with pytest.raises(DomainError, match=r"replication_index must lie in \[0, 2\^64\)"):
            SeedSpec(master_seed=1, replication_index=2**64)

    @pytest.mark.parametrize(
        "master_seed", [-1, 2**64, 10**400, 10**5000], ids=["-1", "2^64", "10^400", "10^5000"]
    )
    def test_master_seed_outside_64_bits_rejected(self, master_seed):
        # the stream reads 64 bits, so 2^64 would alias 0 and -1 alias 2^64 - 1
        with pytest.raises(DomainError, match=r"\[0, 2\^64\)"):
            SeedSpec(master_seed=master_seed, replication_index=0)

    def test_fractional_master_seed_rejected(self):
        with pytest.raises(DomainError, match="master_seed must be an integer"):
            SeedSpec(master_seed=1.5, replication_index=0)

    def test_fractional_replication_index_rejected(self):
        with pytest.raises(DomainError, match="replication_index must be an integer"):
            SeedSpec(master_seed=1, replication_index=1.5)

    def test_master_seed_range_edges_accepted(self):
        for master_seed in (0, 2**64 - 1):
            assert SeedSpec(master_seed=master_seed, replication_index=0).master_seed == master_seed

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "master_seed", [np.int64(5), np.uint64(5), np.uint64(2**64 - 1)],
        ids=["int64", "uint64", "uint64-max"],
    )
    def test_numpy_integer_seed_fields_are_the_ints_they_hold(self, master_seed):
        # the stream hash works in Python ints; a numpy integer overflowed or warned there
        spec, same = SeedSpec(master_seed, type(master_seed)(3)), SeedSpec(int(master_seed), 3)
        assert type(spec.master_seed) is int and type(spec.replication_index) is int
        assert spec == same
        for stream in (derive_stream, _block_stream):
            words = stream(spec).bit_generator.random_raw(4)
            assert np.array_equal(words, stream(same).bit_generator.random_raw(4))
        batch = sample_sequence(TWO_ATOM, 5, spec)
        assert np.array_equal(batch.values, sample_sequence(TWO_ATOM, 5, same).values)


class TestBlockStreams:
    """Monte Carlo blocks draw from SFC64; derive_stream and replays stay on Philox."""

    @pytest.mark.parametrize("entropy", [0, 1, 2**64 - 1, 12345678901234567890123])
    def test_recipe_is_numpys_sfc64_seeding(self, entropy):
        ss = np.random.SeedSequence(entropy)
        ours = np.random.SFC64(_Words(ss.generate_state(3, np.uint64)))
        assert np.array_equal(ours.random_raw(64), np.random.SFC64(ss).random_raw(64))

    @pytest.mark.parametrize(
        "words, n_words, dtype",
        [((1, 0), 3, np.uint64), ((1, 2, 3), 2, np.uint64), ((1, 0), 2, np.uint32),
         ((1, 0), 4, np.uint32)],
        ids=["too-few", "too-many", "uint32", "uint32-count"],
    )
    def test_words_refuse_any_other_request(self, words, n_words, dtype):
        with pytest.raises(ValueError, match="uint64 words"):
            _Words(words).generate_state(n_words, dtype)
        with pytest.raises(ValueError):  # SFC64 asks for 3 words, Philox for 2
            (np.random.SFC64 if len(words) == 2 else np.random.Philox)(_Words(words))

    def test_pinned_words(self):
        # the stream contract, bit for bit: the first 8 words of both streams
        # for 192 SeedSpecs (computed with numpy 2.4.6)
        digests = {}
        for stream in (derive_stream, _block_stream):
            h = hashlib.sha256()
            for master_seed in (0, 1, 2**64 - 1):
                for index in range(64):
                    words = stream(SeedSpec(master_seed, index)).bit_generator.random_raw(8)
                    h.update(words.astype("<u8").tobytes())
            digests[stream.__name__] = h.hexdigest()
        assert digests == {
            "derive_stream": "674d5274f84acdc8df462228df4f6cf1a9876e4cbc3d7fbd4b6d3262dd4bb335",
            "_block_stream": "6732075bddff2105af624d299b2cb2751aded95b6d7d4826764a1f7240e28e6d",
        }

    def test_no_stream_reads_os_entropy(self, monkeypatch):
        # a SeedSequence without entropy reads 128 bits from the OS through randbits
        reads = []
        randbits = np.random.bit_generator.randbits
        monkeypatch.setattr(
            np.random.bit_generator, "randbits", lambda *a: reads.append(a) or randbits(*a)
        )
        seed = SeedSpec(master_seed=3, replication_index=1)
        derive_stream(seed)
        _block_stream(seed)
        # a fresh thread builds its replay generator on its first batch
        thread = threading.Thread(target=sample_sequence, args=(TWO_ATOM, 4, seed))
        thread.start()
        thread.join()
        np.random.SeedSequence()  # the spy sees an entropy read
        assert reads == [(128,)]

    def test_generator_kinds(self):
        seed = SeedSpec(master_seed=5, replication_index=2)
        assert isinstance(derive_stream(seed).bit_generator, np.random.Philox)
        assert isinstance(_block_stream(seed).bit_generator, np.random.SFC64)

    def test_first_outputs_uniform_chi_square(self):
        # first uniform of 10^4 consecutive blocks, 20 bins, chi-square
        # accepted at the 0.001 level, as for derive_stream
        n, bins = 10_000, 20
        firsts = np.array(
            [_block_stream(SeedSpec(master_seed=99, replication_index=i)).random() for i in range(n)]
        )
        counts, _ = np.histogram(firsts, bins=np.linspace(0.0, 1.0, bins + 1))
        expected = n / bins
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < stats.chi2.ppf(0.999, df=bins - 1)

    def test_distinct_blocks_and_masters_distinct_first_output(self):
        firsts = {
            int(_block_stream(SeedSpec(master_seed=s, replication_index=i)).bit_generator.random_raw())
            for s in (0, 1, 2, 2**64 - 1)
            for i in range(64)
        }
        assert len(firsts) == 4 * 64

    def test_block_and_replay_streams_differ(self):
        # the same SeedSpec keys both, but they must not draw the same words
        seed = SeedSpec(master_seed=7, replication_index=0)
        assert not np.array_equal(
            _block_stream(seed).bit_generator.random_raw(8),
            derive_stream(seed).bit_generator.random_raw(8),
        )


class TestSampleSequence:
    def test_point_mass_sequence(self):
        m = FiniteMixture([(1.0, PointMass(0.7))])
        batch = sample_sequence(m, 3, SeedSpec(master_seed=5, replication_index=0))
        assert np.array_equal(batch.values, [0.7, 0.7, 0.7])
        assert batch.sample_mean == pytest.approx(0.7, abs=1e-12)
        assert batch.drawn_component_index == 0

    def test_degenerate_mixture_never_mixes_within_batch(self):
        m = FiniteMixture([(0.5, PointMass(0.0)), (0.5, PointMass(1.0))])
        seen = set()
        for i in range(200):
            batch = sample_sequence(m, 5, SeedSpec(master_seed=11, replication_index=i))
            assert np.all(batch.values == batch.values[0])
            seen.add(float(batch.values[0]))
        assert seen == {0.0, 1.0}

    def test_pure_function_of_seedspec(self):
        for m in (TWO_ATOM, BernoulliParamMixture(UniformDensity(0.2, 0.8))):
            a = sample_sequence(m, 64, SeedSpec(master_seed=77, replication_index=3))
            b = sample_sequence(m, 64, SeedSpec(master_seed=77, replication_index=3))
            assert np.array_equal(a.values, b.values)
            assert a.sample_mean == b.sample_mean
            assert a.drawn_component_index == b.drawn_component_index

    def test_values_stay_in_unit_interval(self):
        m = FiniteMixture([(0.5, Beta(0.4, 0.7)), (0.5, Bernoulli(0.3))])
        for i in range(50):
            batch = sample_sequence(m, 20, SeedSpec(master_seed=13, replication_index=i))
            assert np.all(batch.values >= 0.0) and np.all(batch.values <= 1.0)
            assert batch.sample_mean == pytest.approx(batch.values.mean(), abs=1e-12)

    def test_sample_mean_matches_values(self):
        batch = sample_sequence(TWO_ATOM, 1000, SeedSpec(master_seed=1, replication_index=0))
        assert batch.sample_mean == pytest.approx(float(np.mean(batch.values)), abs=1e-12)

    def test_rejects_bad_m(self):
        with pytest.raises(DomainError):
            sample_sequence(TWO_ATOM, 0, SeedSpec(master_seed=1, replication_index=0))

    def test_streams_match_derive_stream_across_threads(self):
        # sample_sequence resets one kept generator per thread; every batch
        # must still be the derive_stream draw, also with threads interleaved
        c = Beta(2.0, 5.0)
        m = FiniteMixture([(1.0, c)])
        seeds = [SeedSpec(master_seed=61, replication_index=i) for i in range(200)]
        expected = [c.quantile(derive_stream(s).random(9)[1:]) for s in seeds]

        def replay(order):
            return [(i, sample_sequence(m, 8, seeds[i]).values) for i in order]

        assert all(np.array_equal(v, expected[i]) for i, v in replay(range(200)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(replay, range(k, 200, 4)) for k in range(4)]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert sum(len(r) for r in results) == 200
        assert all(np.array_equal(v, expected[i]) for r in results for i, v in r)

    def test_batches_match_the_pinned_digest(self):
        # the stream contract: any faster path must replay these batches exactly;
        # bit-level, so the literal holds for one numpy/scipy version (computed
        # with numpy 2.4.6 and scipy 1.17.1)
        models = [m for _, m in standard_suite()] + [
            FiniteMixture([(0.6, Beta(2.0, 5.0)), (0.4, Bernoulli(0.7))]),
            BernoulliParamMixture(TruncatedBetaDensity(2.0, 3.0, 0.1, 0.9)),
        ]
        h = hashlib.sha256()
        for m in models:
            for M in (1, 3, 8):
                for s in range(200):
                    b = sample_sequence(m, M, SeedSpec(master_seed=1000 + s, replication_index=s))
                    h.update(np.asarray(b.values, dtype="<f8").tobytes())
                    h.update(struct.pack("<d", b.sample_mean))
                    h.update(repr(b.drawn_component_index).encode())
        assert h.hexdigest() == "4fd8a06d0df7ddfa6c5cf02fa61e83047fd05632b0f955a65ea80a308e90cdbd"

    def test_grand_mean_of_iid_coin(self):
        # 4-sigma binomial check: SE = 0.5 / sqrt(reps * M)
        m = FiniteMixture([(1.0, Bernoulli(0.5))])
        reps, M = 10_000, 10_000
        total = 0.0
        for i in range(reps):
            total += sample_sequence(m, M, SeedSpec(master_seed=21, replication_index=i)).sample_mean
        grand = total / reps
        assert abs(grand - 0.5) < 0.01  # stated tolerance, ~50x the 4-sigma radius

    def test_conditionally_iid_marginals(self):
        # restricted to batches from atom i, values are i.i.d. from that atom
        reps, M = 30_000, 2
        ones = [0, 0]
        draws = [0, 0]
        for i in range(reps):
            batch = sample_sequence(TWO_ATOM, M, SeedSpec(master_seed=31, replication_index=i))
            k = batch.drawn_component_index
            ones[k] += int(batch.values.sum())
            draws[k] += M
        for k, p in ((0, 0.2), (1, 0.8)):
            p_hat = ones[k] / draws[k]
            se = math.sqrt(p * (1.0 - p) / draws[k])
            assert abs(p_hat - p) < 4.0 * se

    def test_beta_component_moments(self):
        # Beta(2,5): mean 2/7, var 10/(49*8)
        m = FiniteMixture([(1.0, Beta(2.0, 5.0))])
        values = np.concatenate(
            [
                sample_sequence(m, 100, SeedSpec(master_seed=41, replication_index=i)).values
                for i in range(200)
            ]
        )
        mean, var = 2.0 / 7.0, 10.0 / (49.0 * 8.0)
        assert abs(values.mean() - mean) < 4.0 * math.sqrt(var / values.size)

    def test_param_mixture_marginal_mean(self):
        # marginal of each draw is Bernoulli with p ~ Uniform(0.2, 0.8)
        m = BernoulliParamMixture(UniformDensity(0.2, 0.8))
        reps, M = 20_000, 4
        total = 0
        for i in range(reps):
            total += int(
                sample_sequence(m, M, SeedSpec(master_seed=51, replication_index=i)).values.sum()
            )
        p_hat = total / (reps * M)
        # draws within a batch are positively correlated; SE is bounded by
        # treating each batch mean as one observation with variance <= 1/4
        se = math.sqrt(0.25 / reps)
        assert abs(p_hat - 0.5) < 4.0 * se
