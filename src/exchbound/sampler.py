"""Two-stage generation of exchangeable sequences, with replayable streams.

A batch is produced by first drawing one component q from the mixing
measure and then drawing all M observations i.i.d. from q.  Marginally
over the component draw this yields an exchangeable (in general not
independent) sequence.

Randomness contract
-------------------
Every batch is a pure function of the model and a :class:`SeedSpec`
(master seed plus replication index).  The stream for a SeedSpec is a
Philox counter-based generator keyed by a SplitMix64 hash of the two
seed fields, so distinct replication indices give statistically
independent streams and results do not depend on scheduling order.
The master seed lies in [0, 2^64): the hash reads 64 bits, so a wider
seed would alias another.
A Monte Carlo block (:mod:`exchbound.montecarlo`) draws from an SFC64
generator instead, seeded with the first three words of its SeedSpec's
Philox stream (:func:`_block_stream`): a block's Beta draws are bound by
the generator, whose words SFC64 makes about four times faster than
Philox, while a replay costs the reset of its generator, not its few
draws, and so stays on Philox.  Every generator is built by numpy's own
constructor from fixed words (:class:`_Words`), so no stream reads OS
entropy.

Every random draw is taken by inverse CDF from one uniform variate:
component selection searches the cumulative atom weights, and each
observation is the drawn component's ``quantile`` of its uniform
(Bernoulli and discrete draws search their cumulative weights, and Beta
draws, like the success-probability draw of a continuous mixture, invert
the regularized incomplete beta function).  One uniform in, one value
out; nothing else touches the stream.
"""

from __future__ import annotations

import bisect
import operator
import threading
from dataclasses import dataclass

import numpy as np

from .bounds import check_engine_m
from .errors import DomainError
from .model import Bernoulli, BernoulliParamMixture, Component, FiniteMixture, MixingMeasure

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # SplitMix64 stream increment


@dataclass(frozen=True)
class SeedSpec:
    """Addresses one replication of one experiment.

    The derived stream depends on nothing but these two fields.
    """

    master_seed: int
    replication_index: int

    def __post_init__(self) -> None:
        # frozen: both fields become Python ints, which the stream hash needs
        object.__setattr__(self, "master_seed", check_master_seed(self.master_seed))
        try:
            object.__setattr__(self, "replication_index", operator.index(self.replication_index))
        except TypeError:
            raise DomainError(
                f"replication_index must be an integer, got {self.replication_index!r}"
            ) from None
        if self.replication_index < 0:
            raise DomainError(
                f"replication_index must be >= 0, got {self.replication_index}"
            )


def check_master_seed(master_seed: int) -> int:
    """The master seed as a Python int, which must lie in [0, 2^64).  Streams are
    keyed by its 64 bits, so a seed outside would draw the rows of the seed it
    equals modulo 2^64.  A numpy integer keys as the int it holds: the stream
    hash needs Python ints, which do not wrap or overflow."""
    try:
        master_seed = operator.index(master_seed)
    except TypeError:
        raise DomainError(f"master_seed must be an integer, got {master_seed!r}") from None
    if not 0 <= master_seed <= _MASK64:
        shown = master_seed if abs(master_seed) <= 2 * _MASK64 else (
            f"a seed of {len(str(abs(master_seed)))} digits"
        )
        raise DomainError(f"master_seed must lie in [0, 2^64), got {shown}")
    return master_seed


def mix64(master_seed: int, index: int) -> int:
    """SplitMix64 output stream: finalizer of master_seed + (index+1)*gamma."""
    z = (master_seed + (index + 1) * _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _stream_key(seed: SeedSpec) -> int:
    return mix64(seed.master_seed, seed.replication_index)


class _Words(np.random.bit_generator.ISeedSequence):
    """Fixed uint64 words as a bit generator's seed: numpy's constructors ask
    ``generate_state`` for 2 words (Philox's key) or 3 (SFC64's state), then
    set the generator up as numpy seeds it, and read no OS entropy."""

    def __init__(self, words) -> None:
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        if n_words != len(self.words) or np.dtype(dtype) != np.uint64:
            raise ValueError(f"holds {len(self.words)} uint64 words, asked for {n_words} {dtype}")
        return np.array(self.words, dtype=np.uint64)


def derive_stream(seed: SeedSpec) -> np.random.Generator:
    """Deterministic, replication-independent random stream for a SeedSpec."""
    return np.random.Generator(np.random.Philox(_Words((_stream_key(seed), 0))))


def _block_stream(seed: SeedSpec) -> np.random.Generator:
    """The stream of one Monte Carlo block: SFC64 seeded with the first
    three words of derive_stream(seed)."""
    words = derive_stream(seed).bit_generator.random_raw(3)
    return np.random.Generator(np.random.SFC64(_Words(words)))


_thread = threading.local()


def _replay_stream(seed: SeedSpec) -> np.random.Generator:
    """This thread's one Philox generator, reset to the state of derive_stream(seed).

    Building a generator costs more than the draws of a short batch.
    derive_stream still returns a new one, because its callers may hold
    two streams at once.
    """
    gen = getattr(_thread, "gen", None)
    if gen is None:
        gen = _thread.gen = np.random.Generator(np.random.Philox(_Words((0, 0))))
    # the setter reads the words one by one, so tuples serve, and cost less
    # to build than uint64 arrays
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (_stream_key(seed), 0)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,  # the buffer is empty
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """One simulated sequence X_1..X_M plus its sample mean.

    ``drawn_component_index`` records which finite-mixture atom generated
    the batch (None for continuous-parameter mixtures): conditional on
    it, the values are i.i.d. from that atom.
    """

    values: np.ndarray
    sample_mean: float
    drawn_component_index: int | None


def sample_sequence(m: MixingMeasure, M: int, seed: SeedSpec) -> SampleBatch:
    """Draw one exchangeable batch of length M.

    Consumes exactly 1 + M uniforms from the SeedSpec's stream: one for
    the component draw, then one per observation.
    """
    check_engine_m(M)
    gen = _replay_stream(seed)
    u0 = gen.random()
    if isinstance(m, FiniteMixture):
        # the first atom whose cumulative weight exceeds u0, clamped to the last,
        # as DiscreteOnUnit.quantile picks a point
        cum = m.cumulative_weights
        idx = min(bisect.bisect_right(cum, u0), len(cum) - 1)
        component: Component = m.atoms[idx][1]
    elif isinstance(m, BernoulliParamMixture):
        idx = None
        component = Bernoulli(m.density.quantile(u0))
    else:
        raise TypeError(f"not a MixingMeasure: {m!r}")
    values = component.quantile(gen.random(M))
    values.setflags(write=False)
    return SampleBatch(
        values=values,
        sample_mean=float(np.add.reduce(values)) / M,  # what values.mean() computes
        drawn_component_index=idx,
    )
