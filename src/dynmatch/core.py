"""Domain types and randomness plumbing for the matching-market simulator.

A run is parameterized by ``MarketConfig``: agents arrive at Poisson rate
``m`` over the horizon ``[0, T]``, any two agents are compatible with
probability ``p = d/m`` (one independent Bernoulli draw per unordered
pair), and each agent carries a maximum sojourn time drawn from the
departure distribution.

Seeding contract
----------------
Every random draw of a run derives from the 64-bit ``seed``.  The master
seed is expanded into four named sub-streams (interarrival, sojourn,
compatibility, tie-break) with the splitmix64 mixer, each feeding its own
PCG64 generator.  Arrivals and sojourns therefore stay bit-identical when
only the matching policy changes, which is what makes paired-seed policy
comparisons and the coupled two-pool mode meaningful.  Reproducibility is
guaranteed within one implementation, not across languages or RNG
libraries.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field, fields
from enum import Enum, IntEnum
from itertools import accumulate, chain, islice
from typing import ClassVar, Union

import numpy as np


class ConfigError(ValueError):
    """Invalid market or departure configuration."""


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class RangeError(ValueError):
    """Instrumentation time outside the admissible window."""


class FormatError(ValueError):
    """Malformed structured input (trajectory, record list, flag syntax)."""


class NumericError(ArithmeticError):
    """Numeric invariant breached (underflow, failed internal cross-check)."""


_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Sub-stream indices under the master seed.
STREAM_INTERARRIVAL = 0
STREAM_SOJOURN = 1
STREAM_COMPATIBILITY = 2
STREAM_TIEBREAK = 3


def splitmix64(x: int) -> int:
    """One splitmix64 round; the documented mixing primitive for seeds."""
    x = (x + _GOLDEN) & _M64
    z = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def mix_seed(master: int, *indices: int) -> int:
    """Derive a sub-seed by folding indices into the master seed.

    Folding is left to right, one splitmix64 round per index, so
    ``mix_seed(s, a, b)`` is a fixed, documented function of its inputs.
    """
    h = master & _M64
    for ix in indices:
        h = splitmix64((h ^ (ix & _M64)) & _M64)
    return h


def check_seed(seed: object) -> None:
    """Refuse a seed outside [0, 2^64), which ``mix_seed`` would silently mask."""
    if not (isinstance(seed, int) and 0 <= seed < 1 << 64):
        raise ConfigError(f"seed must be a 64-bit unsigned integer, got {seed!r}")


class PolicyKind(str, Enum):
    """Matching policy: match at arrival, at the last moment, or at
    arrival with preference for the partner closest to departure."""

    GREEDY = "greedy"
    PATIENT = "patient"
    GREEDY_SOJOURN = "greedy-sojourn"


# --------------------------------------------------------------------------
# Departure (maximum-sojourn) distributions
#
# Each variant owns its law (``sample(u)`` with ``u()`` the next uniform, the
# exact mass ``cdf`` of [0, x], and ``support_min``, the least sojourn in its
# support: no mass lies below it, so it is the ``c_min`` the greedy loss and
# waiting bounds take) and its names: ``kind`` in JSON, ``flag`` in the CLI
# syntax.  Its fields are its parameters in both.


@dataclass(frozen=True)
class Constant:
    """Point mass at ``c``; consumes no randomness."""

    kind: ClassVar[str] = "constant"
    flag: ClassVar[str] = "const"
    c: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.c) and self.c >= 0):
            raise ConfigError(f"constant sojourn must be finite and >= 0, got {self.c}")

    def sample(self, u: Callable[[], float]) -> float:
        return self.c

    def cdf(self, x: float) -> float:
        return 1.0 if x >= self.c else 0.0

    def support_min(self) -> float:
        return self.c


@dataclass(frozen=True)
class Exponential:
    kind: ClassVar[str] = "exponential"
    flag: ClassVar[str] = "exp"
    rate: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rate) and self.rate > 0):
            raise ConfigError(f"exponential rate must be finite and > 0, got {self.rate}")

    def sample(self, u: Callable[[], float]) -> float:
        return exponential_icdf(u(), self.rate)

    def cdf(self, x: float) -> float:
        return -math.expm1(-self.rate * x)

    def support_min(self) -> float:
        return 0.0


@dataclass(frozen=True)
class Uniform:
    kind: ClassVar[str] = "uniform"
    flag: ClassVar[str] = "unif"
    a: float
    b: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and math.isfinite(self.b) and 0 <= self.a < self.b):
            raise ConfigError(f"uniform support needs 0 <= a < b, got [{self.a}, {self.b}]")

    def sample(self, u: Callable[[], float]) -> float:
        return self.a + (self.b - self.a) * u()

    def cdf(self, x: float) -> float:
        if x <= self.a:
            return 0.0
        if x >= self.b:
            return 1.0
        return (x - self.a) / (self.b - self.a)

    def support_min(self) -> float:
        return self.a


@dataclass(frozen=True)
class NeverPerish:
    """Point mass at +inf: agents never perish."""

    kind: ClassVar[str] = "never"
    flag: ClassVar[str] = "never"

    def sample(self, u: Callable[[], float]) -> float:
        return math.inf

    def cdf(self, x: float) -> float:
        return 0.0

    def support_min(self) -> float:
        return math.inf


@dataclass(frozen=True)
class Mixture:
    """Weighted mixture (weights normalized); one uniform picks the component."""

    kind: ClassVar[str] = "mixture"
    flag: ClassVar[str] = "mix"
    components: tuple[tuple[float, "DepartureSpec"], ...]

    def __post_init__(self) -> None:
        if not self.components:
            raise ConfigError("mixture needs at least one component")
        total = math.fsum(w for w, _ in self.components)
        if not (math.isfinite(total) and total > 0):
            raise ConfigError(f"mixture weights must sum to a positive value, got {total}")
        if any(w <= 0 for w, _ in self.components):
            raise ConfigError("mixture weights must be positive")
        object.__setattr__(self, "components", tuple((w / total, c) for w, c in self.components))

    def sample(self, u: Callable[[], float]) -> float:
        pick = u()
        acc = 0.0
        for w, comp in self.components:
            acc += w
            if pick < acc:
                return comp.sample(u)
        return self.components[-1][1].sample(u)

    def cdf(self, x: float) -> float:
        return math.fsum(w * comp.cdf(x) for w, comp in self.components)

    def support_min(self) -> float:
        return min(comp.support_min() for _, comp in self.components)


DEPARTURE_VARIANTS = (Constant, Exponential, Uniform, NeverPerish, Mixture)
DepartureSpec = Union[DEPARTURE_VARIANTS]


def sample_sojourn(spec: DepartureSpec, rng: np.random.Generator) -> float:
    """Draw one maximum sojourn time; NeverPerish yields +inf."""
    return spec.sample(rng.random)


def exponential_icdf(u: float, rate: float) -> float:
    """Inverse CDF of Exponential(rate) at u in [0, 1)."""
    return -math.log1p(-u) / rate


def sample_interarrival(m: float, rng: np.random.Generator) -> float:
    """One Exponential(m) interarrival gap, via inverse CDF."""
    return exponential_icdf(rng.random(), m)


# Uniforms per block of a drawn stream; private, they change no output bit.
_UNIFORM_BLOCK = 1024
# Geometric gaps per block of the compatibility stream; private too, since a
# block holds the draws of as many scalar ``rng.geometric(p)`` calls.
_COMPAT_BLOCK = 1024


def _blocks(draw: Callable[[], list]) -> Iterator:
    """The items of ``draw()``, ``draw()``, ... in turn, one list per call;
    lazy, so nothing is drawn before the first item is asked for."""
    return chain.from_iterable(iter(draw, None))


def uniforms(rng: np.random.Generator) -> Iterator[float]:
    """The floats of successive scalar ``rng.random()`` calls, drawn
    ``_UNIFORM_BLOCK`` at a time (``rng.random(n)`` is exactly n scalar
    calls).  It draws ahead, so it must be the only consumer of ``rng``."""
    return _blocks(lambda: rng.random(_UNIFORM_BLOCK).tolist())


def arrival_times(m: float, rng: np.random.Generator) -> Iterator[float]:
    """Poisson(m) arrival times from 0: running sums of the Exponential(m)
    gaps ``exponential_icdf(u, m)`` of ``uniforms(rng)``, the same float
    additions in the same order as ``t = t + sample_interarrival(m, rng)``.
    The gaps come a block at a time; the sums run over the whole stream."""
    gaps = _blocks(lambda: [-math.log1p(-u) / m for u in rng.random(_UNIFORM_BLOCK).tolist()])
    return accumulate(gaps)


def tiebreaks(rng: np.random.Generator) -> Callable[[int], int]:
    """``draw(k)``, equal to successive ``int(rng.integers(k))`` calls.

    It replays numpy's 32-bit Lemire rule on ``random_raw`` words drawn a
    block at a time, each split low half first (as PCG64's 32-bit output
    does): ``k == 1`` draws nothing, and ``x = w * k`` is redrawn while
    ``x mod 2^32 < (2^32 - k) mod k``; the draw is ``x >> 32``.  It draws
    ahead, so it must be the only consumer of ``rng``."""
    half = _blocks(  # little-endian 32-bit view of each word: low half first
        lambda: rng.bit_generator.random_raw(_UNIFORM_BLOCK).astype("<u8").view("<u4").tolist()
    ).__next__

    def draw(k: int) -> int:
        if k == 1:
            return 0
        if not 1 < k < 1 << 32:
            raise DomainError(f"tie-break range must be in [1, 2^32), got {k}")
        x = half() * k
        while x & 0xFFFFFFFF < ((1 << 32) - k) % k:
            x = half() * k
        return x >> 32

    return draw


def hit_positions(rng: np.random.Generator, p: float) -> Iterator[int]:
    """The ascending positions of the hits in a Bernoulli(p) sequence: running
    sums, from -1, of the Geometric(p) gaps of successive scalar
    ``rng.geometric(p)`` calls, drawn ``_COMPAT_BLOCK`` at a time.  The sums
    are Python ints and cannot wrap; numpy caps a gap at 2^63 - 1, past any
    position a run can reach.  It draws ahead, so it must be the only
    consumer of ``rng``."""
    hits = accumulate(_blocks(lambda: rng.geometric(p, _COMPAT_BLOCK).tolist()), initial=-1)
    return islice(hits, 1, None)  # from the first hit, past the -1


def departure_cdf(spec: DepartureSpec, x: float) -> float:
    """Mass of [0, x] under the departure distribution, exact per variant."""
    if x < 0:
        raise DomainError(f"cdf argument must be >= 0, got {x}")
    return spec.cdf(x)


def departure_to_dict(spec: DepartureSpec) -> dict:
    if isinstance(spec, Mixture):
        comps = [{"weight": w, "spec": departure_to_dict(c)} for w, c in spec.components]
        return {"kind": spec.kind, "components": comps}
    return {"kind": spec.kind, **{f.name: getattr(spec, f.name) for f in fields(spec)}}


def _number(data: dict, key: str) -> float:
    """``float(data[key])`` of a JSON number, refusing strings and booleans
    (``float(True)`` is 1.0); an integer past the float range overflows."""
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    return float(value)


def _check_keys(data: dict, names: Iterable[str]) -> None:
    """Refuse keys outside ``names``, so a misspelt field is not dropped."""
    unknown = set(data) - set(names)
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {data!r}")


def departure_from_dict(data: dict) -> DepartureSpec:
    try:
        kind = data["kind"]
    except (TypeError, KeyError):
        raise ConfigError(f"departure object needs a 'kind' key, got {data!r}") from None
    variant = next((v for v in DEPARTURE_VARIANTS if v.kind == kind), None)
    if variant is None:
        raise ConfigError(f"unknown departure kind {kind!r}")
    try:
        _check_keys(data, ["kind", *(f.name for f in fields(variant))])
        if variant is Mixture:
            for e in data["components"]:
                _check_keys(e, ["weight", "spec"])
            comps = [(_number(e, "weight"), departure_from_dict(e["spec"]))
                     for e in data["components"]]
            return Mixture(tuple(comps))
        return variant(*(_number(data, f.name) for f in fields(variant)))
    except (TypeError, KeyError, ValueError, OverflowError) as exc:
        raise ConfigError(f"malformed departure object {data!r}: {exc}") from None


def parse_departure_flag(text: str) -> DepartureSpec:
    """Parse the CLI departure syntax.

    Accepted forms: ``const:<c>``, ``exp:<rate>``, ``unif:<a>:<b>``,
    ``never``, and ``mix:<w>*<inner>,<w>*<inner>,...`` (inner specs must
    not themselves be mixtures; use JSON configs for nesting).
    """
    prefix, sep, rest = text.partition(":")
    variant = next((v for v in DEPARTURE_VARIANTS if v.flag == prefix), None)
    if variant is None:
        raise FormatError(f"cannot parse departure flag {text!r}")
    try:
        if variant is Mixture:
            comps = []
            for part in rest.split(","):
                weight, inner = part.split("*", 1)
                if inner.startswith("mix:"):
                    raise FormatError("nested mixtures are not supported in flag syntax")
                comps.append((float(weight), parse_departure_flag(inner)))
            return Mixture(tuple(comps))
        values = rest.split(":") if sep else []
        if len(values) != len(fields(variant)):
            raise FormatError(f"{prefix!r} takes {len(fields(variant))} number(s), got {len(values)}")
        return variant(*map(float, values))
    except ValueError as exc:
        raise FormatError(f"cannot parse departure flag {text!r}: {exc}") from None


# --------------------------------------------------------------------------
# Agents and compatibility


class AgentOutcome(IntEnum):
    UNRESOLVED = 0
    MATCHED = 1
    PERISHED = 2
    IN_POOL_AT_HORIZON = 3


@dataclass(slots=True)
class Agent:
    """One market participant; ids are 1-based in arrival order."""

    id: int
    arrival_time: float
    critical_time: float
    outcome: int = AgentOutcome.UNRESOLVED
    partner_id: int | None = None
    outcome_time: float | None = None


class PairCompatibilityOracle:
    """Bernoulli(p) compatibility draws, one per unordered agent pair.

    Draws are taken lazily at the first (and only) time a pair is queried:
    at the later agent's arrival under greedy matching, at the earlier
    criticality under patient matching.  Each pair is queried at most once
    per run, so lazy drawing is distributionally exact.

    All queries share one Bernoulli(p) sequence: a query of n members takes
    its next n positions.  The oracle is a cursor over ``hit_positions``,
    which draws only the positions of the hits (the Bernoulli-skip method of
    Batagelj and Brandes, Phys. Rev. E 71, 036113, 2005), so a query costs
    per hit rather than per pair.  The cursor keeps the next position to use
    and the last hit drawn, and draws the next hit only when a query reaches
    past the last one, so gaps come at most one block past the queried
    positions and a query with no hit costs one comparison.
    ``hit_positions`` draws ahead, so the oracle must be the only consumer
    of ``rng``.
    """

    __slots__ = ("_next_hit", "_hit", "_pos")

    def __init__(self, rng: np.random.Generator, p: float) -> None:
        if not 0 < p <= 1:
            raise ConfigError(f"compatibility probability must be in (0, 1], got {p}")
        self._next_hit = hit_positions(rng, p).__next__
        self._hit = -1  # the last hit drawn; already returned iff below _pos
        self._pos = 0  # position of the next draw to use

    def query_block(self, agent_id: int, member_ids: Sequence[int]) -> list[int]:
        """Query one agent against a block of pool members, one position each.

        Returns the ascending offsets into ``member_ids`` of the compatible
        members: each is a hit with probability ``p``, independently."""
        begin = self._pos
        end = self._pos = begin + len(member_ids)
        hit = self._hit
        if hit >= end:
            return []
        hits = [hit - begin] if hit >= begin else []
        while hit < end - 1:  # a position below end is not decided yet
            hit = self._next_hit()
            hits.append(hit - begin)
        if hit >= end:
            hits.pop()
        self._hit = hit
        return hits


# --------------------------------------------------------------------------
# Run configuration


@dataclass(frozen=True)
class MarketConfig:
    """Full parameterization of one market run."""

    m: float
    d: float
    T: float
    policy: PolicyKind
    departure: DepartureSpec
    seed: int
    pool_trace: bool = False

    def __post_init__(self) -> None:
        if not (math.isfinite(self.m) and self.m > 0):
            raise ConfigError(f"arrival rate m must be finite and > 0, got {self.m}")
        if not (math.isfinite(self.T) and self.T > 0):
            raise ConfigError(f"horizon T must be finite and > 0, got {self.T}")
        if not (math.isfinite(self.d) and 0 < self.d <= self.m):
            raise ConfigError(
                f"density d must satisfy 0 < d <= m so p = d/m is a probability, got d={self.d}, m={self.m}"
            )
        if not isinstance(self.policy, PolicyKind):
            raise ConfigError(f"policy must be a PolicyKind, got {self.policy!r}")
        check_seed(self.seed)

    @property
    def p(self) -> float:
        return self.d / self.m

    def to_dict(self) -> dict:
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        return data | {"policy": self.policy.value, "departure": departure_to_dict(self.departure)}

    @classmethod
    def from_dict(cls, data: dict) -> "MarketConfig":
        try:
            _check_keys(data, [f.name for f in fields(cls)])
            seed, pool_trace = data["seed"], data.get("pool_trace", False)
            if not (type(seed) is int or isinstance(seed, float) and seed.is_integer()):
                raise ConfigError(f"seed must be an integer, got {seed!r}")
            if not isinstance(pool_trace, bool):
                raise ConfigError(f"pool_trace must be true or false, got {pool_trace!r}")
            return cls(
                m=_number(data, "m"),
                d=_number(data, "d"),
                T=_number(data, "T"),
                policy=PolicyKind(data["policy"]),
                departure=departure_from_dict(data["departure"]),
                seed=int(seed),
                pool_trace=pool_trace,
            )
        except (TypeError, KeyError, ValueError, OverflowError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"malformed market config: {exc}") from None


@dataclass(frozen=True)
class RngStreams:
    """The four per-run generators derived from one master seed."""

    interarrival: np.random.Generator = field(repr=False)
    sojourn: np.random.Generator = field(repr=False)
    compatibility: np.random.Generator = field(repr=False)
    tiebreak: np.random.Generator = field(repr=False)

    @classmethod
    def from_seed(cls, seed: int) -> "RngStreams":
        def gen(stream: int) -> np.random.Generator:
            return np.random.Generator(np.random.PCG64(mix_seed(seed, stream)))

        return cls(
            interarrival=gen(STREAM_INTERARRIVAL),
            sojourn=gen(STREAM_SOJOURN),
            compatibility=gen(STREAM_COMPATIBILITY),
            tiebreak=gen(STREAM_TIEBREAK),
        )
