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
    entropy = [int(master_seed) & ((1 << 64) - 1)]
    for p in parts:
        if isinstance(p, str):
            entropy.extend(p.encode())
        else:
            entropy.append(int(p) & ((1 << 64) - 1))
    words = np.random.SeedSequence(entropy).generate_state(4, np.uint32)
    out = 0
    for w in words:
        out = (out << 32) | int(w)
    return out


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
    """

    dimension: int
    query: Callable[[Vector, np.random.Generator], Vector]
    norm_bound_L: Optional[float] = None
    exact_subgradient: Optional[Callable[[Vector], Vector]] = None
    exact_value: Optional[Callable[[Vector], float]] = None
    optimum_info: Optional[tuple] = None  # (x_star, f_star)


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
            nrm = float(np.linalg.norm(diff))
            if nrm <= self.radius:
                return x
            return self.center + diff * (self.radius / nrm)
        if self.kind == "box":
            return np.clip(x, self.lower, self.upper)
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
    project = None if domain.kind == "whole" else domain.project

    x = x0.copy()
    x_sum = np.zeros_like(x0)
    dsq_max = 0.0  # max ||x_i - x0||^2; r_bar is its root
    G = 0.0
    G_comp = 0.0  # Kahan compensation, keeps G independent of rounding order
    g0_norm = 0.0
    best_x = None
    best_f = np.inf
    xs = [x0.copy()] if record_full else None
    gs = [] if record_full else None

    value_sum = 0.0
    fx = None
    if value_fn is not None:
        fx = float(value_fn(x0))
        best_f = fx
        best_x = x0.copy()

    for i in range(T):
        g = np.asarray(oracle.query(x, rng), dtype=float)
        gsq = float(g @ g)
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
        x_sum += x
        x = x - eta * g
        if project is not None:
            x = project(x)
        d = x - x0
        dsq = float(d.dot(d))  # the square np.linalg.norm takes the root of
        if not math.isfinite(dsq) and not np.all(np.isfinite(x)):
            raise NumericalFailure(i, "iterate")
        if dsq > dsq_max:
            dsq_max = dsq
        if record_full:
            gs.append(g)
            xs.append(x.copy())
        if value_fn is not None:
            value_sum += fx  # f at the pre-step iterate x_i
            fx = float(value_fn(x))
            if fx < best_f:
                best_f = fx
                best_x = x.copy()

    return SgdTrace(
        eta=float(eta), T=T, x0=x0, x_avg=x_sum / T, r_bar=math.sqrt(dsq_max),
        G=G, g0_norm=g0_norm, query_count=T, stream=stream,
        xs=np.array(xs) if record_full else None,
        gs=np.array(gs) if record_full else None,
        best_x=best_x, best_f=(best_f if value_fn is not None else None),
        value_avg=(value_sum / T if value_fn is not None else None),
    )


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
