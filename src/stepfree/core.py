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
Step = Callable[[Vector, int, Vector], None]
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # SeedSequence's output hash


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
    pool = np.random.SeedSequence(np.array(words, dtype=np.uint32)).pool
    # SeedSequence.generate_state(4, uint32) on the 4-word pool, in Python
    # ints (numpy's own call costs more than this loop); word 0 is the most
    # significant of the id
    stream, mult = 0, _INIT_B
    for v in pool.tolist():
        v ^= mult
        mult = mult * _MULT_B & 0xFFFFFFFF
        v = v * mult & 0xFFFFFFFF
        stream = stream << 32 | v ^ v >> 16
    return stream


class _PhiloxKey(np.random.bit_generator.ISeedSequence):
    """A Philox key posing as a seed sequence.

    Philox seeded from a sequence takes its key from
    ``generate_state(2, uint64)`` and starts at counter 0, as
    ``Philox(key=...)`` does. The latter also seeds a ``SeedSequence`` from
    OS entropy that it never uses, which costs more than the rest of the
    build.
    """

    __slots__ = ("words",)

    def __init__(self, key: int):
        self.words = np.array([key & _MASK64, key >> 64], dtype=np.uint64)

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError("a Philox key is two uint64 words")
        return self.words


def stream_rng(stream: int) -> np.random.Generator:
    """Counter-based generator keyed by a 128-bit stream id: the generator of
    ``Philox(key=stream)``, built from the key alone."""
    return np.random.Generator(np.random.Philox(_PhiloxKey(stream & _MASK128)))


@dataclass
class StochasticOracle:
    """Queryable source of (sub)gradient samples.

    ``query(x, rng)`` returns one stochastic subgradient sample; its
    conditional expectation at any fixed point must lie in the subdifferential.
    ``exact_subgradient`` is the noiseless side channel, present only on
    validation-grade problems. ``norm_bound_L`` upper-bounds every possible
    sample norm when present.

    ``sampler(stream, T)``, when present, returns the step function
    ``step(x, i, out)`` of a T-step run keyed by the 128-bit ``stream`` id,
    which writes the i-th sample at x into the float64 array ``out`` and
    never writes to ``x``. A random sampler draws the run's noise at once
    from ``stream_rng(stream)``. It must follow the same law as ``query``
    bit for bit: ``step(x_i, i, out)`` for i = 0, ..., T-1 writes what T
    successive ``query(x_i, rng)`` calls return on ``rng =
    stream_rng(stream)``; :func:`run_step` uses it in place of ``query``.
    ``noiseless`` declares that samples draw nothing: its runs take
    ``stream=None`` from :meth:`run_stream` and derive no stream id.
    Assigning ``query`` on a built oracle drops the sampler and the
    declaration, which no longer match it.
    """

    dimension: int
    query: Callable[[Vector, np.random.Generator], Vector]
    norm_bound_L: Optional[float] = None
    exact_subgradient: Optional[Callable[[Vector], Vector]] = None
    exact_value: Optional[Callable[[Vector], float]] = None
    optimum_info: Optional[tuple] = None  # (x_star, f_star)
    sampler: Optional[Callable[[Optional[int], int], Step]] = field(
        default=None, repr=False, compare=False)
    noiseless: bool = False

    def __setattr__(self, name, value):
        if name == "query" and "query" in self.__dict__:
            self.__dict__["sampler"] = None
            self.__dict__["noiseless"] = False
        object.__setattr__(self, name, value)

    def run_stream(self, master_seed: int, *parts) -> Optional[int]:
        """The stream id of a run: ``derive_stream(master_seed, *parts)``,
        or None, derived from nothing, for a noiseless oracle."""
        return None if self.noiseless else derive_stream(master_seed, *parts)


@dataclass(frozen=True)
class ProjectionDomain:
    """Euclidean projection onto the whole space, a ball, or a box.

    A ball needs a finite center and a radius >= 0, and must lie within
    half the float range (max |center_i| + radius finite when doubled); a
    box needs bounds without nan, lower <= upper, and a finite point in
    every coordinate (no lower bound +inf, no upper bound -inf). On such a
    domain the projection maps finite points to finite points, which the
    one finiteness screen per step of :func:`sgd_run` relies on.
    """

    kind: str  # "whole" | "ball" | "box"
    center: Optional[Vector] = None
    radius: Optional[float] = None
    lower: Optional[Vector] = None
    upper: Optional[Vector] = None

    def __post_init__(self):
        if self.kind == "ball":
            if not self.radius >= 0:
                raise ValueError(f"a ball needs a radius >= 0, got "
                                 f"{self.radius!r}")
            extent = float(np.abs(self.center).max(initial=0.0)) + self.radius
            if not math.isfinite(2.0 * extent):
                raise ValueError("a ball needs a finite center and radius, "
                                 "within half the float range")
            object.__setattr__(self, "_at_origin", not (
                self.center.any() or np.signbit(self.center).any()))
        elif self.kind == "box":
            lower, upper = self.lower, self.upper
            if not (np.all(lower <= upper) and np.all(lower < math.inf)
                    and np.all(upper > -math.inf)):
                raise ValueError("a box needs bounds without nan, "
                                 "lower <= upper, no lower bound +inf and "
                                 "no upper bound -inf")
        elif self.kind != "whole":
            raise ValueError(f"unknown domain kind {self.kind!r}")

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
        return self.screened(x)[0]

    def screened(self, x: Vector) -> tuple[Vector, bool]:
        """(projection of x, whether x passed :meth:`project_in_place`)."""
        x = np.array(x, dtype=float)
        return x, self.project_in_place(x)

    def project_in_place(self, x: Vector) -> bool:
        """Overwrite x with its projection; return whether x passed the
        finiteness screen.

        The screen is a finite squared norm: of x, or for a ball of x minus
        the center, the square its inside test takes anyway. A pass proves
        every entry of x finite, and with it the projection. A fail means an
        entry may be non-finite, or the square overflowed.
        """
        if self.kind == "whole":
            return math.isfinite(x.dot(x))
        if self.kind == "ball":
            # x - (+0.0) is x; outside, adding the center makes -0.0 +0.0
            diff = x if self._at_origin else x - self.center
            dsq = diff.dot(diff)
            nrm = math.sqrt(dsq)  # what np.linalg.norm computes
            if nrm <= self.radius:  # then dsq is finite, as the radius is
                return True
            np.multiply(diff, self.radius / nrm, x)
            np.add(self.center, x, x)
            return math.isfinite(dsq)
        passed = math.isfinite(x.dot(x))
        # np.clip's result at a fraction of its call cost
        np.maximum(x, self.lower, out=x)
        np.minimum(x, self.upper, out=x)
        return passed

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
    squared gradient norms over the T queried gradients, +inf once a square
    or the sum overflows. ``G`` and ``g0_norm`` are read off the run's
    (T, d) gradient record after its last step (kept as ``gs`` only in a
    full record); the steps themselves are screened for finiteness once
    each, which :func:`sgd_run` shows is enough. ``x_avg`` averages
    the first T iterates x_0, ..., x_{T-1}. ``best_x``/``best_f`` (lowest
    value over x_0, ..., x_T) and ``value_avg`` are set only when the run
    tracked values. Traces made by the tuner are run without value tracking
    and carry a ``replay``: their value statistics are computed on first
    access, by rerunning the same realization with ``oracle.exact_value``.
    A run is a pure function of (oracle, x0, eta, T, stream), so they equal
    those of a run that tracked values. ``stream`` is None for the runs of a
    noiseless oracle, which depend on no stream.
    """

    eta: float
    T: int
    x0: Vector
    x_avg: Vector
    r_bar: float
    G: float
    g0_norm: float
    query_count: int
    stream: Optional[int]
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


def run_step(oracle: StochasticOracle, stream: Optional[int], T: int) -> Step:
    """The step function of a T-step run of ``oracle`` keyed by ``stream``:
    the oracle's sampler when present, else T successive ``query`` calls on
    ``stream_rng(stream)``. Only a noiseless oracle takes ``stream=None``."""
    if stream is None and not oracle.noiseless:
        raise ValueError("only a noiseless oracle runs without a stream id")
    if oracle.sampler is not None:
        return oracle.sampler(stream, T)
    query = oracle.query
    rng = None if stream is None else stream_rng(stream)

    def step(x, i, out):
        out[...] = np.asarray(query(x, rng), dtype=float)
    return step


def sgd_run(oracle: StochasticOracle, domain: ProjectionDomain, x0, eta: float,
            T: int, stream: Optional[int], record_full: bool = False,
            value_fn: Optional[Callable[[Vector], float]] = None) -> SgdTrace:
    """Run projected SGD for exactly T steps with a fixed step size.

    The realization is a pure function of (oracle, x0, eta, T, stream).
    Raises :class:`NumericalFailure` if a gradient or iterate goes non-finite.

    Steps write in place: each gradient into its row of the (T, d) gradient
    record, the step and its projection into the next row of the (T+1, d)
    iterate record, by :meth:`ProjectionDomain.project_in_place`, whose one
    finiteness screen of the step is the only check. One screen
    suffices: from a finite iterate with eta > 0, a non-finite gradient
    entry makes the step non-finite, and the domain maps finite points to
    finite points. A step that fails the screen is looked at elementwise,
    the gradient first and then the projected step, which gives the
    ``NumericalFailure`` step and cause of checking both on every step;
    the oracle is never queried at a non-finite iterate. ``G`` and
    ``g0_norm`` are read off the gradient record after the loop, and
    ``r_bar``, ``x_avg`` and value statistics off the iterate record.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    if eta <= 0:
        raise ValueError("eta must be positive")
    x0 = domain.project(x0)
    step = run_step(oracle, stream, T)
    project = domain.project_in_place
    # eta as an array operand: the products are eta * g's, and numpy
    # multiplies two arrays for less call overhead than a scalar and one
    eta_vec = np.full(x0.shape, eta, dtype=float)

    xs = np.empty((T + 1, x0.shape[0]))
    xs[0] = x = x0
    gs = np.empty((T, x0.shape[0]))
    for i, g, xn in zip(range(T), gs, xs[1:]):
        step(x, i, g)
        np.multiply(eta_vec, g, xn)
        np.subtract(x, xn, xn)
        if not project(xn):
            if not np.all(np.isfinite(g)):
                raise NumericalFailure(i, "gradient")
            if not np.all(np.isfinite(xn)):
                raise NumericalFailure(i, "iterate")
        x = xn

    # one ddot per row, each equal to g.dot(g); a finite gradient's square
    # may overflow to +inf
    gsq = np.matmul(gs[:, None, :], gs[:, :, None]).ravel().tolist()
    G = 0.0
    G_comp = 0.0  # Kahan compensation, keeps G independent of rounding order
    for sq in gsq:
        y = sq - G_comp
        t = G + y
        G_comp = (t - G) - y
        G = t
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
        r_bar=math.sqrt(dsq.max()), G=G, g0_norm=gsq[0] ** 0.5, query_count=T,
        stream=stream, xs=xs if record_full else None,
        gs=gs if record_full else None)
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
