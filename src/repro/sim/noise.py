"""OS-noise models for the MPI simulator.

System noise — daemons, interrupts, page faults — preempts HPC
processes and stretches their computations without any progress in
hardware counters.  The second case study of the paper (COSMO-
SPECS+FD4, Section VII-B) traces exactly such an event: one process is
interrupted during a single function invocation, visible as a long
invocation with a *low* ``PAPI_TOT_CYC`` count.

A noise model maps each computation ``(rank, t_start, active_seconds)``
to the extra wall time injected into it.  Interruption time never
advances counters (the engine attributes counters to active time only).
"""

from __future__ import annotations

import numpy as np

from .._record import record

__all__ = [
    "NoiseModel",
    "NoNoise",
    "GaussianJitter",
    "ScheduledInterruptions",
    "NoiseBursts",
    "ImbalanceRamp",
    "Straggler",
    "CompositeNoise",
    "scalar_noise",
    "vector_noise",
]


class NoiseModel:
    """Interface: :meth:`interruption` returns extra wall seconds."""

    def interruption(self, rank: int, t_start: float, active: float) -> float:
        """Extra (non-computing) wall time injected into this compute op."""
        raise NotImplementedError


@record(frozen=True, slots=True)
class NoNoise(NoiseModel):
    """The quiet machine: no perturbation."""

    def interruption(self, rank: int, t_start: float, active: float) -> float:
        return 0.0


class GaussianJitter(NoiseModel):
    """Half-normal multiplicative jitter: each computation stretches by
    ``|N(0, sigma)| * active``.

    OS noise only ever *adds* wall time, so the half-normal shape (all
    mass above zero) is the natural fit; ``sigma`` scales the typical
    relative stretch.

    Deterministic per (seed, rank, start time): the model derives a
    fresh PRNG from a hash of those values, so identical simulations
    produce identical traces regardless of scheduling order.
    """

    def __init__(self, sigma: float = 0.01, seed: int = 0) -> None:
        if sigma < 0:
            raise ValueError("sigma must be non-negative")
        self.sigma = sigma
        self.seed = seed

    def interruption(self, rank: int, t_start: float, active: float) -> float:
        # Hash-based deterministic draw: independent of call ordering.
        key = np.uint64(
            (self.seed * 0x9E3779B97F4A7C15 + rank * 0xBF58476D1CE4E5B9)
            & 0xFFFFFFFFFFFFFFFF
        )
        mix = np.uint64(int(t_start * 1e9) & 0xFFFFFFFFFFFFFFFF)
        rng = np.random.default_rng(np.array([key, mix], dtype=np.uint64))
        draw = abs(float(rng.normal(0.0, self.sigma)))
        return draw * active


@record(frozen=True)
class ScheduledInterruptions(NoiseModel):
    """Deterministic preemptions: (rank, window, duration) triples.

    A computation starting inside ``[t0, t1)`` on ``rank`` receives
    ``duration`` seconds of interruption (once per matching window).
    """

    events: tuple[tuple[int, float, float, float], ...] = ()
    # each entry: (rank, t0, t1, duration)

    def interruption(self, rank: int, t_start: float, active: float) -> float:
        total = 0.0
        for ev_rank, t0, t1, duration in self.events:
            if ev_rank == rank and t0 <= t_start < t1:
                total += duration
        return total


@record(frozen=True)
class NoiseBursts(NoiseModel):
    """Periodic system-noise bursts on a subset of ranks.

    Every ``period`` seconds a daemon-like burst preempts the listed
    ranks for ``duration`` seconds: a computation *starting* inside
    ``[k * period + phase, k * period + phase + window)`` receives the
    full ``duration`` of interruption.  A single early burst on one
    rank of a nearest-neighbour workload is the canonical trigger of
    an idle wave (Afzal et al.): the delay propagates through the
    communication dependencies one neighbour per iteration.

    Fully deterministic from the record fields — no hidden RNG —
    so identical simulations yield identical traces.
    """

    ranks: tuple[int, ...] = ()
    period: float = 1.0
    duration: float = 0.01
    #: Start of the first burst window.
    phase: float = 0.0
    #: Width of the susceptible window at the start of each period.
    window: float = 0.05

    def interruption(self, rank: int, t_start: float, active: float) -> float:
        if rank not in self.ranks or self.period <= 0.0:
            return 0.0
        offset = (t_start - self.phase) % self.period
        if t_start >= self.phase and offset < self.window:
            return self.duration
        return 0.0


@record(frozen=True)
class ImbalanceRamp(NoiseModel):
    """Load imbalance that grows linearly over virtual time.

    The listed ranks are stretched by ``rate * min(t_start, t_cap)``
    relative seconds per active second — at ``t_start`` seconds into
    the run a computation of ``active`` seconds gains
    ``rate * t_start * active`` extra wall time.  Models a slowly
    developing imbalance (the COSMO-SPECS cloud-growth shape) as an
    injection knob rather than a hand-crafted workload.
    """

    ranks: tuple[int, ...] = ()
    rate: float = 0.1
    #: Time after which the ramp saturates (``inf`` = never).
    t_cap: float = float("inf")

    def interruption(self, rank: int, t_start: float, active: float) -> float:
        if rank not in self.ranks or self.rate <= 0.0:
            return 0.0
        return self.rate * min(max(t_start, 0.0), self.t_cap) * active


@record(frozen=True)
class Straggler(NoiseModel):
    """Persistent multiplicative slowdown of selected ranks.

    Each listed rank computes ``factor`` times slower for the whole
    run: every computation of ``active`` seconds is stretched by
    ``(factor - 1) * active`` wall seconds without counter progress —
    the WRF case-study shape (one rank trapped in FPU microtraps),
    available as a composable injection.
    """

    ranks: tuple[int, ...] = ()
    factor: float = 1.5

    def __post_init__(self) -> None:
        if self.factor < 1.0:
            raise ValueError("straggler factor must be >= 1")

    def interruption(self, rank: int, t_start: float, active: float) -> float:
        if rank not in self.ranks:
            return 0.0
        return (self.factor - 1.0) * active


@record(frozen=True)
class CompositeNoise(NoiseModel):
    """Sum of several noise models."""

    models: tuple[NoiseModel, ...] = ()

    def interruption(self, rank: int, t_start: float, active: float) -> float:
        return sum(m.interruption(rank, t_start, active) for m in self.models)


# -- compiled forms ---------------------------------------------------------
#
# The engine's inner loop used to call ``model.interruption`` once per
# Compute op, and the membership-style models (Straggler, ImbalanceRamp,
# NoiseBursts, ScheduledInterruptions) re-scanned their rank tuples on
# every call — O(events * ranks_listed).  ``scalar_noise`` hoists those
# schedules into per-rank arrays built once per run (O(ranks)), and
# ``vector_noise`` produces the whole-rank-vector form the vectorized
# fast path consumes.  Both forms evaluate the *same floating-point
# expressions* as the uncompiled models so traces stay bitwise
# identical; composites preserve per-model summation order.


def _member_list(ranks, size: int) -> list[bool]:
    member = [False] * size
    for r in ranks:
        if 0 <= r < size:
            member[r] = True
    return member


def scalar_noise(model: NoiseModel, size: int):
    """Compile ``model`` into a per-rank-indexed closure.

    Returns ``None`` when the model provably injects no noise (the
    engine then skips the call entirely); otherwise a callable
    ``fn(rank, t_start, active) -> float`` that matches
    ``model.interruption`` bit for bit.
    """
    if isinstance(model, NoNoise):
        return None
    if isinstance(model, Straggler):
        coeff = [0.0] * size
        factor = model.factor - 1.0
        for r in model.ranks:
            if 0 <= r < size:
                coeff[r] = factor
        if not any(coeff):
            return None

        def straggler(rank: int, t_start: float, active: float) -> float:
            return coeff[rank] * active

        return straggler
    if isinstance(model, ImbalanceRamp):
        if model.rate <= 0.0:
            return None
        member = _member_list(model.ranks, size)
        if not any(member):
            return None
        rate, t_cap = model.rate, model.t_cap

        def ramp(rank: int, t_start: float, active: float) -> float:
            if not member[rank]:
                return 0.0
            return rate * min(max(t_start, 0.0), t_cap) * active

        return ramp
    if isinstance(model, ScheduledInterruptions):
        by_rank: list[list[tuple[float, float, float]]] = [[] for _ in range(size)]
        for ev_rank, t0, t1, duration in model.events:
            if 0 <= ev_rank < size:
                by_rank[ev_rank].append((t0, t1, duration))
        if not any(by_rank):
            return None

        def scheduled(rank: int, t_start: float, active: float) -> float:
            total = 0.0
            for t0, t1, duration in by_rank[rank]:
                if t0 <= t_start < t1:
                    total += duration
            return total

        return scheduled
    if isinstance(model, NoiseBursts):
        member = _member_list(model.ranks, size)
        if not any(member) or model.period <= 0.0:
            return None
        period, duration = model.period, model.duration
        phase, window = model.phase, model.window

        def bursts(rank: int, t_start: float, active: float) -> float:
            if not member[rank]:
                return 0.0
            offset = (t_start - phase) % period
            if t_start >= phase and offset < window:
                return duration
            return 0.0

        return bursts
    if isinstance(model, CompositeNoise):
        fns = [scalar_noise(m, size) for m in model.models]
        if all(f is None for f in fns):
            return None
        # Models compiled to None contribute exactly 0.0, which the
        # uncompiled sum would have added too; keep the literal adds so
        # the accumulation order (and hence every bit) is unchanged.
        parts = [f if f is not None else (lambda rank, t, a: 0.0) for f in fns]

        def composite(rank: int, t_start: float, active: float) -> float:
            total = 0
            for f in parts:
                total = total + f(rank, t_start, active)
            return total

        return composite
    if type(model) is GaussianJitter:
        return _scalar_jitter(model)
    # Unknown / stateful models (user subclasses): call straight
    # through — correctness first, no compilation possible.
    return model.interruption


def vector_noise(model: NoiseModel, size: int):
    """Compile ``model`` into whole-rank-vector form for the fast path.

    Returns ``fn(t_start, active) -> ndarray`` taking per-rank vectors,
    or ``None`` when the model cannot be evaluated faithfully in vector
    form (the fast path then falls back to the general engine).  The
    returned callable carries ``always_zero=True`` when the model is
    provably silent, letting callers skip the add entirely.
    """
    zero = None

    def _zeros(t_start: np.ndarray, active: np.ndarray) -> np.ndarray:
        return np.zeros(size)

    _zeros.always_zero = True  # type: ignore[attr-defined]
    zero = _zeros

    if isinstance(model, NoNoise):
        return zero
    if isinstance(model, Straggler):
        coeff = np.zeros(size)
        for r in model.ranks:
            if 0 <= r < size:
                coeff[r] = model.factor - 1.0
        if not coeff.any():
            return zero

        def straggler(t_start: np.ndarray, active: np.ndarray) -> np.ndarray:
            return coeff * active

        return straggler
    if isinstance(model, ImbalanceRamp):
        member = np.array(_member_list(model.ranks, size))
        if model.rate <= 0.0 or not member.any():
            return zero
        rate_arr = np.where(member, model.rate, 0.0)
        t_cap = model.t_cap

        def ramp(t_start: np.ndarray, active: np.ndarray) -> np.ndarray:
            return rate_arr * np.minimum(np.maximum(t_start, 0.0), t_cap) * active

        return ramp
    if isinstance(model, ScheduledInterruptions):
        events = [
            (r, t0, t1, duration)
            for r, t0, t1, duration in model.events
            if 0 <= r < size
        ]
        if not events:
            return zero

        def scheduled(t_start: np.ndarray, active: np.ndarray) -> np.ndarray:
            out = np.zeros(size)
            for r, t0, t1, duration in events:
                ts = float(t_start[r])
                if t0 <= ts < t1:
                    out[r] += duration
            return out

        return scheduled
    if isinstance(model, NoiseBursts):
        members = [r for r in sorted(set(model.ranks)) if 0 <= r < size]
        if not members or model.period <= 0.0:
            return zero
        period, duration = model.period, model.duration
        phase, window = model.phase, model.window

        def bursts(t_start: np.ndarray, active: np.ndarray) -> np.ndarray:
            out = np.zeros(size)
            # Scalar evaluation per member rank keeps the window test
            # (Python float ``%``) identical to the uncompiled model.
            for r in members:
                ts = float(t_start[r])
                if ts >= phase and (ts - phase) % period < window:
                    out[r] = duration
            return out

        return bursts
    if isinstance(model, GaussianJitter):
        return _vector_jitter(model, size)
    if isinstance(model, CompositeNoise):
        fns = [vector_noise(m, size) for m in model.models]
        if any(f is None for f in fns):
            return None
        live = [f for f in fns if not getattr(f, "always_zero", False)]
        if not live:
            return zero

        def composite(t_start: np.ndarray, active: np.ndarray) -> np.ndarray:
            total = np.zeros(size)
            for f in live:
                total = total + f(t_start, active)
            return total

        return composite
    return None


# -- GaussianJitter without a generator per draw -----------------------------
#
# ``GaussianJitter.interruption`` builds ``default_rng([key, mix])`` per
# draw: a ``SeedSequence`` hashes the seed words into a pool, the pool
# seeds a ``PCG64``, and one ``normal`` is drawn.  Constructing the
# generator costs ~25 us and dominates a noisy simulation.  The
# ``SeedSequence`` hash and the PCG64 seeding step are fixed-width
# integer arithmetic, written here once for NumPy uint32 arrays (one
# pass for every rank, the fast path) and Python ints (one draw, the
# engine): every step is masked to 32 bits, which is a no-op on uint32
# arrays.  A reused generator whose state is set to what ``PCG64``
# would have derived then makes the very same ``Generator.normal``
# call, so the draws are bitwise equal to the reference.

_M32 = 0xFFFFFFFF
_M64 = 0xFFFFFFFFFFFFFFFF
_M128 = (1 << 128) - 1
# numpy.random.SeedSequence hash constants (pool size 4, 32-bit words).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
#: PCG64's 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_consts(init: int, mult: int, n: int) -> list[tuple[int, int]]:
    """``(xor, multiply)`` constants of ``n`` successive hash steps."""
    consts = [init]
    for _ in range(n):
        consts.append((consts[-1] * mult) & _M32)
    return list(zip(consts, consts[1:]))


#: The 16 pool hashes (4 to fill, 12 to mix) and 8 output hashes of
#: ``SeedSequence(...).generate_state(4, np.uint64)``.
_POOL_HASH = _hash_consts(_INIT_A, _MULT_A, 16)
_OUT_HASH = _hash_consts(_INIT_B, _MULT_B, 8)


#: ``(source, destination)`` pool slots of the 12 mixing steps.  The
#: first 6 read only slots 0 and 1, which hold the two key words.
_MIX_PAIRS = [(src, dst) for src in range(4) for dst in range(4) if src != dst]


def _key_pool(word0, word1) -> tuple:
    """Pool slots 0 and 1 after the first 6 mixing steps, and those
    steps' source hashes: a function of entropy words 0 and 1 alone."""
    pool = []
    for value, (xor, mult) in zip((word0, word1), _POOL_HASH):
        value = ((value ^ xor) * mult) & _M32
        pool.append(value ^ (value >> 16))
    hashes = []
    for (src, dst), (xor, mult) in zip(_MIX_PAIRS[:6], _POOL_HASH[4:]):
        value = ((pool[src] ^ xor) * mult) & _M32
        hashes.append(value ^ (value >> 16))
        if dst < 2:
            value = (_MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashes[-1]) & _M32
            pool[dst] = value ^ (value >> 16)
    return pool[0], pool[1], hashes


def _state_words(words: list, key_pool: tuple | None = None) -> list:
    """The 8 uint32 state words ``SeedSequence`` derives from its four
    entropy words (NumPy uint32 arrays or Python ints alike).
    ``key_pool`` is :func:`_key_pool` of words 0 and 1, if known."""
    p0, p1, hashes = key_pool or _key_pool(words[0], words[1])
    pool = [p0, p1]
    for value, (xor, mult) in zip(words[2:], _POOL_HASH[2:4]):
        value = ((value ^ xor) * mult) & _M32
        pool.append(value ^ (value >> 16))
    for (src, dst), (xor, mult), hashed in zip(
        _MIX_PAIRS, _POOL_HASH[4:], hashes + [None] * 6
    ):
        if hashed is None:
            value = ((pool[src] ^ xor) * mult) & _M32
            hashed = value ^ (value >> 16)
        elif dst < 2:
            continue  # applied in the key pool
        value = (_MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashed) & _M32
        pool[dst] = value ^ (value >> 16)
    state = []
    for i, (xor, mult) in enumerate(_OUT_HASH):
        value = ((pool[i % 4] ^ xor) * mult) & _M32
        state.append(value ^ (value >> 16))
    return state


def _pcg64_state(s0: int, s1: int, i0: int, i1: int) -> tuple[int, int]:
    """``(state, inc)`` of ``PCG64`` seeded with the 4 uint64 words
    (``pcg_setseq_128_srandom_r``: state 0, step, add the seed, step)."""
    inc = ((((i0 << 64) | i1) << 1) | 1) & _M128
    return ((inc + ((s0 << 64) | s1)) * _PCG_MULT + inc) & _M128, inc


def _entropy_words(value: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Low word, high word and "needs two words" of uint64 seed values.

    ``SeedSequence`` coerces each seed integer to as many 32-bit words as
    it needs: one below 2**32 (zero included), two from there on.
    """
    lo = (value & np.uint64(_M32)).astype(np.uint32)
    hi = (value >> np.uint64(32)).astype(np.uint32)
    return lo, hi, hi != 0


def _pcg64_seeds(keys: np.ndarray, mixes: np.ndarray) -> list[tuple[int, int]]:
    """``(state, inc)`` of ``PCG64(SeedSequence([key, mix]))`` per element."""
    k_lo, k_hi, k_two = _entropy_words(keys)
    m_lo, m_hi, m_two = _entropy_words(mixes)
    zero = np.zeros_like(k_lo)
    # The assembled entropy is at most 4 words, the pool size: positions
    # past its end hash a 0 word, exactly like these zero pads.
    state = _state_words([
        k_lo,
        np.where(k_two, k_hi, m_lo),
        np.where(k_two, m_lo, np.where(m_two, m_hi, zero)),
        np.where(k_two & m_two, m_hi, zero),
    ])
    # generate_state(4, uint64) pairs the 8 words little-endian.
    v = [
        (lo.astype(np.uint64) | (hi.astype(np.uint64) << np.uint64(32))).tolist()
        for lo, hi in zip(state[0::2], state[1::2])
    ]
    return [_pcg64_state(*words) for words in zip(*v)]


def _pcg64_seed(key: int, mix: int, key_pool: tuple | None) -> tuple[int, int]:
    """``(state, inc)`` of ``PCG64(SeedSequence([key, mix]))``, one draw;
    ``key_pool`` is :func:`_key_pool` of a two-word ``key``, if known."""
    k_lo, k_hi = key & _M32, key >> 32
    m_lo, m_hi = mix & _M32, mix >> 32
    if k_hi:
        state = _state_words([k_lo, k_hi, m_lo, m_hi], key_pool)
    else:
        state = _state_words([k_lo, m_lo, m_hi, 0])
    return _pcg64_state(*[
        state[i] | (state[i + 1] << 32) for i in range(0, 8, 2)
    ])


def _scalar_jitter(model: GaussianJitter):
    """``model.interruption`` drawing from one reused generator."""
    bitgen = np.random.PCG64()
    normal = np.random.Generator(bitgen).normal
    sigma = model.sigma
    seed_part = model.seed * 0x9E3779B97F4A7C15
    key_pools: dict[int, tuple] = {}
    pcg: dict = {}
    full = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}

    def jitter(rank: int, t_start: float, active: float) -> float:
        key = (seed_part + rank * 0xBF58476D1CE4E5B9) & _M64
        pool = key_pools.get(rank)
        if pool is None and key >> 32:
            pool = key_pools[rank] = _key_pool(key & _M32, key >> 32)
        pcg["state"], pcg["inc"] = _pcg64_seed(
            key, int(t_start * 1e9) & _M64, pool
        )
        bitgen.state = full
        return abs(float(normal(0.0, sigma))) * active

    return jitter


def _vector_jitter(model: GaussianJitter, size: int):
    keys = np.array(
        [
            (model.seed * 0x9E3779B97F4A7C15 + r * 0xBF58476D1CE4E5B9) & _M64
            for r in range(size)
        ],
        dtype=np.uint64,
    )
    bitgen = np.random.PCG64()
    normal = np.random.Generator(bitgen).normal
    sigma = model.sigma
    pcg: dict = {}
    full = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}

    def jitter(t_start: np.ndarray, active: np.ndarray) -> np.ndarray:
        ns = t_start * 1e9
        # int(t * 1e9) truncates toward zero, as astype(int64) does;
        # the view is its two's complement mod 2**64.  Out-of-range
        # starts take the scalar path.
        wild = ~(np.abs(ns) < 2.0**63)
        mixes = np.where(wild, 0.0, ns).astype(np.int64).view(np.uint64)
        draws = []
        for pcg["state"], pcg["inc"] in _pcg64_seeds(keys, mixes):
            bitgen.state = full
            draws.append(normal(0.0, sigma))
        out = np.abs(np.array(draws)) * active
        for r in np.flatnonzero(wild):
            out[r] = model.interruption(int(r), float(t_start[r]), float(active[r]))
        return out

    return jitter
