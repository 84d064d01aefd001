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
TINY_LENGTH = 2.0 ** -511  # the shortest length whose square is normal


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
    # ints enter SeedSequence masked to 64 bits, strings as their UTF-8 bytes
    entropy = [int(master_seed) & _MASK64]
    for p in parts:
        if isinstance(p, str):
            entropy.extend(p.encode())
        else:
            entropy.append(int(p) & _MASK64)
    words = np.random.SeedSequence(entropy).generate_state(4, np.uint32)
    return int.from_bytes(words.astype(">u4").tobytes(), "big")  # word 0 first


def stream_rng(stream: int) -> np.random.Generator:
    """Counter-based generator keyed by a 128-bit stream id: the generator of
    ``Philox(key=stream)``, the id masked to 128 bits."""
    return np.random.Generator(np.random.Philox(key=stream & (2 ** 128 - 1)))


@dataclass
class StochasticOracle:
    """Source of (sub)gradient samples, drawn a run at a time.

    ``sampler(rng, T)`` returns the step function ``step(x, i, out)`` of a
    T-step run on the run's generator ``rng`` (None for a noiseless
    oracle), which writes the i-th sample at x into the float64 array
    ``out`` and never writes to ``x``; the conditional expectation of a
    sample at any fixed point must lie in the subdifferential. A random
    sampler may draw the run's noise from ``rng`` at once, but a T-step run
    must give bit for bit what T one-step runs in turn give on the same
    generator; :meth:`query` is the one-step case. ``noiseless`` declares
    that samples draw nothing: its runs take ``stream=None`` from
    :meth:`run_stream` and derive no stream id.

    ``exact_subgradient`` is the noiseless side channel, present only on
    validation-grade problems. It takes a point, or a (k, d) block of
    points, and returns the subgradient of each row, bit for bit what k
    calls on the rows return. ``norm_bound_L`` upper-bounds every possible
    sample norm when present.
    """

    sampler: Callable[[Optional[np.random.Generator], int], Step] \
        = field(repr=False, compare=False)
    norm_bound_L: Optional[float] = None
    exact_subgradient: Optional[Callable[[Vector], Vector]] = None
    exact_value: Optional[Callable[[Vector], float]] = None
    optimum_info: Optional[tuple] = None  # (x_star, f_star)
    noiseless: bool = False

    def query(self, x: Vector, rng: Optional[np.random.Generator]) -> Vector:
        """One sample at x on ``rng``: the sampler's one-step case."""
        out = np.empty(len(x))
        self.sampler(rng, 1)(x, 0, out)
        return out

    def run_stream(self, master_seed: Optional[int], *parts) -> Optional[int]:
        """The stream id of a run: ``derive_stream(master_seed, *parts)``,
        or None, derived from nothing, for a noiseless oracle, which ignores
        ``master_seed``. A noisy oracle needs an integer master seed."""
        if self.noiseless:
            return None
        if master_seed is None:
            raise ValueError("a noisy oracle needs an integer master seed, "
                             "got None")
        return derive_stream(master_seed, *parts)


def norm(v, axis: Optional[int] = None):
    """The Euclidean length of v, or of each of its slices along ``axis``.

    Where ``np.linalg.norm`` lies in [``TINY_LENGTH``, inf), this is its
    result, bit for bit: for a 1-D v there, or a zero one, the float
    ``math.sqrt(v.dot(v))`` it computes. Elsewhere its squares overflowed
    (entries beyond ~1.3e154) or may have underflowed: that slice is scaled
    by 2^-e, e the ``frexp`` exponent of its largest entry, and its norm by
    2^e, both exactly, so a length scales by exactly 2^s with its vector,
    is 0 only for a zero vector and +inf only past the float range or at an
    inf entry.
    """
    v = np.asarray(v, dtype=float)
    if axis is None and v.ndim == 1:
        v = v.ravel(order="K")  # as np.linalg.norm does: strides sum otherwise
        length = math.sqrt(v.dot(v))
        if TINY_LENGTH <= length < math.inf or not v.any():
            return length
    length = np.linalg.norm(v, axis=axis)
    off = ~((length >= TINY_LENGTH) & (length < np.inf))  # nan included
    if not off.any():
        return length
    e = np.frexp(np.abs(v).max(axis=axis, keepdims=True, initial=0.0))[1]
    with np.errstate(over="ignore"):
        scaled = np.ldexp(np.linalg.norm(np.ldexp(v, -e), axis=axis),
                          np.squeeze(e, axis=axis))
    return np.where(off, scaled, length)[()]


def row_squares(M) -> np.ndarray:
    """The squared length ``M[i].dot(M[i])`` of each row of the 2-D array
    M, bit for bit, +inf where a finite row's square overflows.
    ``np.einsum`` and ``np.linalg.norm(M, axis=1)`` sum in another order,
    so they round differently."""
    return np.vecdot(M, M)


def square(x: float) -> float:
    """x ** 2 of a float, +inf where it overflows (past ~1.3e154), where
    ``**`` raises ``OverflowError``. Not ``x * x``, which rounds otherwise
    on a few inputs."""
    try:
        return x ** 2
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class ProjectionDomain:
    """Euclidean projection onto the whole space or a ball.

    A ball needs a finite center and a radius >= 0, and must lie within
    half the float range (max |center_i| + radius finite when doubled). On
    such a domain the projection maps finite points to finite points, which
    the one finiteness screen per step of :func:`sgd_run` relies on. A ball
    measures a point's distance to its center by :func:`norm`, so a finite
    point leaves the ball, or stays where it is, by its true length also
    where the square of that length overflows or underflows.
    """

    kind: str  # "whole" | "ball"
    center: Optional[Vector] = None
    radius: Optional[float] = None

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
        elif self.kind != "whole":
            raise ValueError(f"unknown domain kind {self.kind!r}")

    @staticmethod
    def whole_space() -> "ProjectionDomain":
        return ProjectionDomain(kind="whole")

    @staticmethod
    def ball(center, radius: float) -> "ProjectionDomain":
        return ProjectionDomain(kind="ball", center=np.asarray(center, dtype=float),
                                radius=float(radius))

    def project(self, x: Vector) -> Vector:
        """The projection of x, as a new float array."""
        x = np.array(x, dtype=float)
        self.project_in_place(x)
        return x

    def project_in_place(self, x: Vector) -> bool:
        """Overwrite x with its projection; return whether x passed the
        finiteness screen.

        The screen is a finite squared norm: of x, or for a ball of x minus
        the center, the square its inside test takes anyway. A pass proves
        every entry of x finite, and with it the projection. A fail means an
        entry may be non-finite, or the square overflowed. A ball takes the
        distance as ``sqrt`` of that square where :func:`norm` would (in
        [``TINY_LENGTH``, inf)), and from :func:`norm` elsewhere.
        """
        if self.kind == "whole":
            return math.isfinite(x.dot(x))
        # x - (+0.0) is x; outside, adding the center makes -0.0 +0.0
        diff = x if self._at_origin else x - self.center
        dsq = diff.dot(diff)
        nrm = math.sqrt(dsq)  # what np.linalg.norm computes
        if TINY_LENGTH <= nrm <= self.radius:  # then dsq is finite
            return True
        if not TINY_LENGTH <= nrm < math.inf:  # a square over/underflowed
            nrm = norm(diff)
            if nrm <= self.radius:
                return math.isfinite(dsq)
        np.multiply(diff, self.radius / nrm, x)
        np.add(self.center, x, x)
        return math.isfinite(dsq)


@dataclass
class SgdTrace:
    """One realization of a fixed-step projected SGD run: its record and
    the summaries read off it.

    ``xs`` is the (T+1, d) iterate record x_0, ..., x_T and ``gs`` the (T, d)
    record of the T queried gradients. ``r_bar`` is max_{i<=T} ||x0 - x_i||,
    a length by :func:`norm`, +inf only past the float range; ``G`` is the
    correctly rounded sum (``math.fsum``) of the squared gradient norms over
    ``gs``, +inf once a square or the sum passes the float range. The steps
    themselves are screened for finiteness once each, which :func:`sgd_run`
    shows is enough. ``x_avg`` averages the first T iterates x_0, ...,
    x_{T-1}. ``best_x``/``best_f`` (lowest value over x_0, ..., x_T) and
    ``value_avg`` are set only by a run given a ``value_fn``, and are None
    otherwise; any value statistic can also be read off ``xs``. ``stream``
    is None for the runs of a noiseless oracle, which depend on no stream.
    """

    eta: float
    T: int
    x0: Vector
    x_avg: Vector
    r_bar: float
    G: float
    stream: Optional[int]
    xs: np.ndarray  # (T+1, d)
    gs: np.ndarray  # (T, d)
    best_x: Optional[Vector] = None
    best_f: Optional[float] = None
    value_avg: Optional[float] = None  # mean of f over x_0, ..., x_{T-1}


def run_step(oracle: StochasticOracle, stream: Optional[int], T: int) -> Step:
    """The step function of a T-step run of ``oracle`` keyed by ``stream``:
    the oracle's sampler on the generator ``stream_rng(stream)``, or on None
    for ``stream=None``, which only a noiseless oracle takes."""
    if stream is None and not oracle.noiseless:
        raise ValueError("only a noiseless oracle runs without a stream id")
    return oracle.sampler(None if stream is None else stream_rng(stream), T)


def sgd_run(oracle: StochasticOracle, domain: ProjectionDomain, x0, eta: float,
            T: int, stream: Optional[int],
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
    the oracle is never queried at a non-finite iterate. ``x_avg``, value
    statistics and, by :func:`row_squares`, the squares that ``G`` and
    ``r_bar`` are made of are read off the two records after the loop; the
    displacements x_i - x_0 live only that long, so a trace holds its two
    records, (2T+1)·d floats, and nothing more.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    if eta <= 0:
        raise ValueError("eta must be positive")
    x0 = domain.project(x0)
    step = run_step(oracle, stream, T)
    project = domain.project_in_place
    d = x0.shape[0]
    # eta as an array operand: the products are eta * g's, and numpy
    # multiplies two arrays for less call overhead than a scalar and one;
    # empty + fill costs less than np.full
    eta_vec = np.empty(d)
    eta_vec.fill(eta)

    xs = np.empty((T + 1, d))
    xs[0] = x = x0
    gs = np.empty((T, d))
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

    # G correctly rounded; fsum raises once finite squares pass the float range
    try:
        G = math.fsum(row_squares(gs).tolist())
    except OverflowError:
        G = math.inf

    # the sequential sum x_0 + ... + x_{T-1} (a plain sum is pairwise);
    # + 0.0 gives the +0.0 a sum started from 0.0 has in an all -0.0 column
    x_avg = (np.add.accumulate(xs[:T], axis=0)[-1] + 0.0) / T
    # the largest displacement square found by argmax, whose call costs less
    # than ndarray.max's and, unlike a Python max over a list, ~nothing a row
    disp = xs[1:] - x0
    dsq = row_squares(disp)
    r_bar = math.sqrt(dsq.item(dsq.argmax()))
    if not TINY_LENGTH <= r_bar < math.inf:  # a square over- or underflowed
        r_bar = max(float(norm(row)) for row in disp)  # ddot's rounding
    trace = SgdTrace(
        eta=float(eta), T=T, x0=x0, x_avg=x_avg, r_bar=r_bar, G=G,
        stream=stream, xs=xs, gs=gs)
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

