"""Projected fixed-step SGD engine, gradient oracle abstraction and trace statistics.

Everything downstream (the step-size tuner, the restart wrapper, the
validation checks) consumes the :class:`SgdTrace` summaries produced here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

Vector = np.ndarray
Step = Callable[[Vector, int], Vector]
_MASK64 = (1 << 64) - 1


class NumericalFailure(RuntimeError):
    """A gradient or iterate became non-finite during an SGD run."""

    def __init__(self, step: int, what: str):
        super().__init__(f"non-finite {what} at step {step}")
        self.step = step
        self.what = what


def derive_stream(master_seed: int, *parts) -> int:
    """Derive a 128-bit stream id from a master seed and a tuple of labels.

    Distinct label tuples give statistically independent streams; the result
    is a pure function of its inputs, so runs are reproducible and splittable.
    """
    # SeedSequence's own entropy words: an int masked to 64 bits gives its
    # nonzero little-endian 32-bit words (0 gives [0]), a string gives one
    # word per UTF-8 byte. Handing them over as a uint32 array skips
    # SeedSequence's per-element coercion and yields the same state.
    words = []
    for p in (int(master_seed), *parts):
        if isinstance(p, str):
            words.extend(p.encode())
        else:
            v = int(p) & _MASK64
            words.append(v & 0xFFFFFFFF)
            if v >> 32:
                words.append(v >> 32)
    state = np.random.SeedSequence(np.array(words, dtype=np.uint32)) \
        .generate_state(4, np.uint32)
    return int.from_bytes(state.astype(">u4").tobytes(), "big")


def stream_rng(stream: int) -> np.random.Generator:
    """Counter-based generator keyed by a 128-bit stream id."""
    return np.random.Generator(np.random.Philox(key=stream & ((1 << 128) - 1)))


@dataclass
class StochasticOracle:
    """Queryable source of (sub)gradient samples.

    ``query(x, rng)`` returns one stochastic subgradient sample; its
    conditional expectation at any fixed point must lie in the subdifferential.
    ``exact_subgradient`` is the noiseless side channel, present only on
    validation-grade problems. ``norm_bound_L`` upper-bounds every possible
    sample norm when present.

    ``sampler(rng, T)``, when present, draws a whole run's noise from ``rng``
    at once and returns the run's step function ``step(x, i)`` (a float
    array). It must follow the same law as ``query`` bit for bit: on the same
    generator, ``step(x_i, i)`` for i = 0, ..., T-1 returns exactly what T
    successive ``query(x_i, rng)`` calls return. :func:`sgd_run` uses it in
    place of ``query`` when present. Assigning ``query`` on a built oracle
    drops the sampler, which no longer matches it.
    """

    dimension: int
    query: Callable[[Vector, np.random.Generator], Vector]
    norm_bound_L: Optional[float] = None
    exact_subgradient: Optional[Callable[[Vector], Vector]] = None
    exact_value: Optional[Callable[[Vector], float]] = None
    optimum_info: Optional[tuple] = None  # (x_star, f_star)
    sampler: Optional[Callable[[np.random.Generator, int], Step]] = field(
        default=None, repr=False, compare=False)

    def __setattr__(self, name, value):
        if name == "query" and "query" in self.__dict__:
            self.__dict__["sampler"] = None
        object.__setattr__(self, name, value)


@dataclass(frozen=True)
class ProjectionDomain:
    """Euclidean projection onto the whole space, a ball, or a box."""

    kind: str  # "whole" | "ball" | "box"
    center: Optional[Vector] = None
    radius: Optional[float] = None
    lower: Optional[Vector] = None
    upper: Optional[Vector] = None

    @staticmethod
    def whole_space() -> "ProjectionDomain":
        return ProjectionDomain(kind="whole")

    @staticmethod
    def ball(center, radius: float) -> "ProjectionDomain":
        return ProjectionDomain(kind="ball", center=np.asarray(center, dtype=float),
                                radius=float(radius))

    @staticmethod
    def box(lower, upper) -> "ProjectionDomain":
        return ProjectionDomain(kind="box", lower=np.asarray(lower, dtype=float),
                                upper=np.asarray(upper, dtype=float))

    def project(self, x: Vector) -> Vector:
        if self.kind == "whole":
            return x
        if self.kind == "ball":
            diff = x - self.center
            nrm = math.sqrt(diff.dot(diff))  # what np.linalg.norm computes
            if nrm <= self.radius:
                return x
            return self.center + diff * (self.radius / nrm)
        if self.kind == "box":
            # np.clip's result at a fraction of its call cost
            return np.minimum(np.maximum(x, self.lower), self.upper)
        raise ValueError(f"unknown domain kind {self.kind!r}")

    def contains(self, x: Vector, tol: float = 1e-12) -> bool:
        return bool(np.linalg.norm(self.project(x) - x) <= tol)


class _ValueStat:
    """Field descriptor for ``best_x``, ``best_f`` and ``value_avg`` of an
    :class:`SgdTrace`: the first access on a trace with a ``replay`` takes all
    three from the rerun it returns."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, trace, owner=None):
        if trace is None:
            return None  # the dataclass default
        if trace.replay is not None:
            rerun, trace.replay = trace.replay(), None
            for name in ("best_x", "best_f", "value_avg"):
                trace.__dict__[name] = getattr(rerun, name)
        return trace.__dict__[self.name]

    def __set__(self, trace, value):
        trace.__dict__[self.name] = value


@dataclass
class SgdTrace:
    """Summary of one realization of a fixed-step projected SGD run.

    ``r_bar`` is max_{i<=T} ||x0 - x_i|| and ``G`` is the running sum of
    squared gradient norms over the T queried gradients. ``x_avg`` averages
    the first T iterates x_0, ..., x_{T-1}. ``best_x``/``best_f`` (lowest
    value over x_0, ..., x_T) and ``value_avg`` are set only when the run
    tracked values. Traces made by the tuner are run without value tracking
    and carry a ``replay``: their value statistics are computed on first
    access, by rerunning the same realization with ``oracle.exact_value``.
    A run is a pure function of (oracle, x0, eta, T, stream), so they equal
    those of a run that tracked values.
    """

    eta: float
    T: int
    x0: Vector
    x_avg: Vector
    r_bar: float
    G: float
    g0_norm: float
    query_count: int
    stream: int
    xs: Optional[np.ndarray] = None  # (T+1, d) when full record kept
    gs: Optional[np.ndarray] = None  # (T, d)
    best_x: Optional[Vector] = _ValueStat()
    best_f: Optional[float] = _ValueStat()
    value_avg: Optional[float] = _ValueStat()  # mean of f over x_0, ..., x_{T-1}
    replay: Optional[Callable[[], "SgdTrace"]] = field(
        default=None, repr=False, compare=False)

    @property
    def has_full_record(self) -> bool:
        return self.xs is not None


def _query_step(query, rng) -> Step:
    """The step function of an oracle that has only ``query``."""
    return lambda x, i: np.asarray(query(x, rng), dtype=float)


def sgd_run(oracle: StochasticOracle, domain: ProjectionDomain, x0, eta: float,
            T: int, stream: int, record_full: bool = False,
            value_fn: Optional[Callable[[Vector], float]] = None) -> SgdTrace:
    """Run projected SGD for exactly T steps with a fixed step size.

    The realization is a pure function of (oracle, x0, eta, T, stream).
    Raises :class:`NumericalFailure` if a gradient or iterate goes non-finite.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    if eta <= 0:
        raise ValueError("eta must be positive")
    x0 = domain.project(np.asarray(x0, dtype=float))
    rng = stream_rng(stream)
    if oracle.sampler is not None:
        step = oracle.sampler(rng, T)
    else:
        step = _query_step(oracle.query, rng)
    project = None if domain.kind == "whole" else domain.project

    # per step: the query, G and the iterate with their finiteness checks;
    # everything else is read off the iterate record xs after the loop
    xs = np.empty((T + 1, x0.shape[0]))
    xs[0] = x0
    gs = np.empty((T, x0.shape[0])) if record_full else None
    x = x0
    G = 0.0
    G_comp = 0.0  # Kahan compensation, keeps G independent of rounding order
    g0_norm = 0.0
    for i in range(T):
        g = step(x, i)
        gsq = float(g.dot(g))
        # a finite square implies finite entries; the elementwise check
        # runs only to tell overflow of the square from a non-finite entry
        if not math.isfinite(gsq) and not np.all(np.isfinite(g)):
            raise NumericalFailure(i, "gradient")
        if i == 0:
            g0_norm = gsq ** 0.5
        y = gsq - G_comp
        t = G + y
        G_comp = (t - G) - y
        G = t
        x = x - eta * g
        if project is not None:
            x = project(x)
        if not math.isfinite(x.dot(x)) and not np.all(np.isfinite(x)):
            raise NumericalFailure(i, "iterate")
        xs[i + 1] = x
        if record_full:
            gs[i] = g
    if G != G:
        # once G overflows, the compensation takes inf - inf and G turns
        # nan; the sum of the (finite or overflowed) squares is +inf
        G = math.inf

    # the sequential sum x_0 + ... + x_{T-1} (a plain sum is pairwise);
    # + 0.0 gives the +0.0 a sum started from 0.0 has in an all -0.0 column
    x_avg = (np.add.accumulate(xs[:T], axis=0)[-1] + 0.0) / T
    disp = xs[1:] - x0
    # one ddot per row, the square np.linalg.norm takes the root of
    dsq = np.matmul(disp[:, None, :], disp[:, :, None]).ravel()
    trace = SgdTrace(
        eta=float(eta), T=T, x0=x0, x_avg=x_avg,
        r_bar=math.sqrt(dsq.max()), G=G, g0_norm=g0_norm, query_count=T,
        stream=stream, xs=xs if record_full else None, gs=gs)
    if value_fn is not None:
        fs = [float(value_fn(row)) for row in xs]
        best = 0
        value_sum = 0.0
        for i in range(T):
            value_sum += fs[i]  # f at the pre-step iterate x_i
            if fs[i + 1] < fs[best]:
                best = i + 1
        trace.best_x, trace.best_f = xs[best].copy(), fs[best]
        trace.value_avg = value_sum / T
    return trace


def trace_distances(trace: SgdTrace, x_star) -> tuple[float, float, np.ndarray]:
    """Distances to the optimum along a fully recorded run.

    Returns (d0, d_bar, series) where series[t] = ||x_t - x_star|| for
    t = 0..T and d_bar is the running maximum over the whole record.
    """
    if not trace.has_full_record:
        raise ValueError("trace_distances requires a full record")
    x_star = np.asarray(x_star, dtype=float)
    series = np.linalg.norm(trace.xs - x_star[None, :], axis=1)
    return float(series[0]), float(series.max()), series
