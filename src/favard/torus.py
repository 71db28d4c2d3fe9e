"""Quasi-periodic coefficient data as trigonometric polynomials on a torus.

A coefficient function of time is represented as a function on the
m-torus evaluated along the linear flow ``theta0 + t*omega (mod 2*pi)``.
The torus functions are finite trigonometric polynomials, optionally
wrapped in a reciprocal ``p(theta) / (c + q(theta))`` to cover signals
such as ``1 / (2 + cos t + cos sqrt(2) t)``.

Along a uniform time grid ``t0 + j*dt`` the coefficients are read by angle
addition (:meth:`TrigPolynomial.along_flow`): every B-th grid point is a
reduced torus point from :meth:`QuasiPeriodicSpec.phase_at`, and the points
between are reached by B fine rotations ``e^{i(k.omega) b dt}``, so a grid
of N points costs about ``4 sqrt(N)`` cos/sin per term instead of ``2 N``.
The sum over the terms is one real matrix product per block of nodes: the
node phasors times the coefficients, as real and imaginary rows, against
the cosines and sines of the fine rotations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NearSingularityError

TWO_PI = 2.0 * np.pi

#: Default lower bound on the magnitude of a reciprocal denominator.
DEFAULT_DENOMINATOR_MARGIN = 1e-6
#: Byte budget of the blocks one along-flow evaluation holds at a time, at 8
#: bytes a float: the fine rotations ``[Re F, Im F]`` (2 T B per evaluation)
#: and, per block of coarse nodes, the rows ``[Re Y, -Im Y]`` (2 T V per node)
#: and their outputs (B V per node), for T terms, V values per point and B
#: fine steps.  It keeps the memory of an evaluation to its output, whatever
#: the number of terms.
_PHASOR_BYTES = 1 << 20


def reduce_phase(theta: np.ndarray) -> np.ndarray:
    """Reduce torus coordinates to [0, 2*pi). Applied after every phase addition.

    ``np.mod(x, 2*pi)`` rounds up to exactly 2*pi for tiny negative x, so
    that endpoint is folded back to 0.
    """
    r = np.mod(theta, TWO_PI)
    return np.where(r >= TWO_PI, 0.0, r)


def _whole(name: str, values) -> np.ndarray:
    """``values`` as integers: a ValueError unless whole (1.0 is, 1.5 is not)."""
    ints = np.asarray(values, dtype=int)
    if not np.array_equal(ints, np.asarray(values, dtype=float)):
        raise ValueError(f"{name} must be whole, got {values!r}")
    return ints


def angular_distance(theta: np.ndarray) -> np.ndarray:
    """Distance of each coordinate to 0 along the circle, in [0, pi]."""
    r = np.mod(theta, TWO_PI)
    return np.minimum(r, TWO_PI - r)


@dataclass(frozen=True)
class TrigPolynomial:
    """Finite trigonometric polynomial theta -> sum_k cos(k.theta) C_k + sin(k.theta) S_k.

    ``indices`` has shape (T, m); the coefficient arrays have shape
    (T, *value_shape).  Values may be matrices or vectors.
    """

    indices: np.ndarray
    cos_coeffs: np.ndarray
    sin_coeffs: np.ndarray

    def __post_init__(self):
        idx = np.atleast_2d(np.asarray(self.indices, dtype=int))
        cc = np.asarray(self.cos_coeffs, dtype=float)
        sc = np.asarray(self.sin_coeffs, dtype=float)
        if cc.shape != sc.shape or cc.shape[0] != idx.shape[0]:
            raise ValueError("coefficient arrays must share a leading term axis")
        if not (np.isfinite(cc).all() and np.isfinite(sc).all()):
            raise ValueError("term coefficients must be finite")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "cos_coeffs", cc)
        object.__setattr__(self, "sin_coeffs", sc)

    @property
    def num_variables(self) -> int:
        return self.indices.shape[1]

    @property
    def value_shape(self) -> tuple[int, ...]:
        return self.cos_coeffs.shape[1:]

    def __call__(self, theta: np.ndarray) -> np.ndarray:
        """Evaluate at one torus point (m,) or a batch (..., m)."""
        phase = np.asarray(theta, dtype=float) @ self.indices.T  # (..., T)
        out = np.tensordot(np.cos(phase), self.cos_coeffs, axes=([-1], [0]))
        out += np.tensordot(np.sin(phase), self.sin_coeffs, axes=([-1], [0]))
        return out

    def along_flow(self, grid: "FlowGrid") -> np.ndarray:
        """Values at the points of ``grid``, shape (count, *value_shape).

        Point ``j = a*B + b`` is coarse node ``a`` turned by ``b`` fine steps.
        With ``W_k = C_k - i S_k``, its value is
        ``Re sum_k (e^{ik.theta_a} W_k) e^{i(k.omega) b dt}``: per block of nodes,
        the real rows ``[Re Y, -Im Y]`` of ``Y = e^{ik.theta_a} W_k`` times the
        fine rotations ``[Re F, Im F]^T``, one real matrix product with inner
        size 2T.  ``B`` is about ``sqrt(count)``, capped so that the fine
        rotations and one node's outputs fit ``_PHASOR_BYTES``; nodes are taken
        in blocks whose rows and outputs fit that budget.  A k = 0 term has
        the phasors ``1 + 0i``, so it gives its constant exactly.
        """
        T = self.indices.shape[0]
        count, V = grid.count, math.prod(self.value_shape)
        B = max(1, min(math.isqrt(max(count - 1, 0)) + 1, _PHASOR_BYTES // (16 * (T + V))))
        fine = np.multiply.outer(self.indices @ grid.spec.frequencies, grid.dt * np.arange(B))
        F = np.concatenate([np.cos(fine), np.sin(fine)])  # (2T, B)
        C = self.cos_coeffs.reshape(T, V).T[None]
        S = self.sin_coeffs.reshape(T, V).T[None]
        nodes = grid.nodes(B) @ self.indices.T  # (ceil(count / B), T) phases
        rows = max(1, _PHASOR_BYTES // (8 * V * (2 * T + B)))
        out = np.empty((nodes.shape[0], B, V))
        for a in range(0, nodes.shape[0], rows):
            cos, sin = np.cos(nodes[a : a + rows, None, :]), np.sin(nodes[a : a + rows, None, :])
            Y = np.concatenate([cos * C + sin * S, cos * S - sin * C], axis=-1)  # (rows, V, 2T)
            out[a : a + rows] = (Y.reshape(-1, 2 * T) @ F).reshape(-1, V, B).transpose(0, 2, 1)
        return out.reshape(-1, V)[:count].reshape(count, *self.value_shape)

    @classmethod
    def from_terms(cls, terms: list[dict]) -> "TrigPolynomial":
        if not terms:
            raise ValueError("a trigonometric polynomial needs at least one term")
        idx = _whole("term indices k", [t["k"] for t in terms])
        cc = np.array([t["cos"] for t in terms], dtype=float)
        sc = np.array([t["sin"] for t in terms], dtype=float)
        return cls(idx, cc, sc)

    @classmethod
    def constant(cls, value: np.ndarray, num_variables: int) -> "TrigPolynomial":
        value = np.asarray(value, dtype=float)
        return cls(
            np.zeros((1, num_variables), dtype=int),
            value[None, ...],
            np.zeros_like(value)[None, ...],
        )


@dataclass(frozen=True)
class ReciprocalForcing:
    """Torus function p(theta) / (c + q(theta)) with a scalar denominator.

    Evaluation raises :class:`NearSingularityError` whenever the denominator
    magnitude drops below ``margin`` at a requested point.
    """

    numerator: TrigPolynomial
    c: float
    q: TrigPolynomial
    margin: float = DEFAULT_DENOMINATOR_MARGIN

    @property
    def value_shape(self) -> tuple[int, ...]:
        return self.numerator.value_shape

    def __call__(self, theta: np.ndarray) -> np.ndarray:
        return self._quotient(lambda form: form(theta))

    def along_flow(self, grid: "FlowGrid") -> np.ndarray:
        """Values at the points of ``grid``, both polynomials by angle addition."""
        return self._quotient(lambda form: form.along_flow(grid))

    def _quotient(self, values) -> np.ndarray:
        """``p / (c + q)`` with ``values(form)`` the values of p and of q."""
        den = self.c + values(self.q)
        bad = np.min(np.abs(den))
        if bad < self.margin:
            raise NearSingularityError(float(bad), self.margin)
        num = values(self.numerator)
        return num / np.expand_dims(den, tuple(range(np.ndim(den), np.ndim(num))))


@dataclass(frozen=True)
class FlowGrid:
    """The flow points ``theta(t0 + j*dt)``, ``j < count``, from ``base_phase``."""

    spec: "QuasiPeriodicSpec"
    base_phase: np.ndarray
    t0: float
    dt: float
    count: int

    def nodes(self, stride: int) -> np.ndarray:
        """Reduced torus points at every ``stride``-th grid time, shape
        (ceil(count / stride), m), through :meth:`QuasiPeriodicSpec.phase_at`."""
        j = stride * np.arange(-(-self.count // stride))
        return self.spec.phase_at(self.base_phase, self.t0 + self.dt * j)


@dataclass(frozen=True)
class QuasiPeriodicSpec:
    """Frequency vector plus torus-function descriptions of A(t) and f(t).

    In the delay case (``delay_order`` r > 0) the matrix function maps the
    stacked history of dimension n*(r+1) to the next n-vector, so its values
    have shape (n, n*(r+1)).
    """

    frequencies: np.ndarray
    matrix_form: TrigPolynomial
    forcing_form: TrigPolynomial | ReciprocalForcing
    time_domain: str = "continuous"
    dimension: int = 1
    delay_order: int = 0

    def __post_init__(self):
        omega = np.atleast_1d(np.asarray(self.frequencies, dtype=float))
        object.__setattr__(self, "frequencies", omega)
        if omega.size == 0:
            raise ValueError("at least one frequency is required")
        if not np.isfinite(omega).all():
            raise ValueError("frequencies must be finite")
        if np.any(omega == 0.0):
            raise ValueError("frequencies must be nonzero")
        if len(set(omega.tolist())) != omega.size:
            raise ValueError("frequencies must be pairwise distinct")
        if self.time_domain not in ("continuous", "discrete"):
            raise ValueError("time_domain must be 'continuous' or 'discrete'")
        if self.delay_order < 0:
            raise ValueError("delay_order must be >= 0")
        if self.delay_order > 0 and self.time_domain != "discrete":
            raise ValueError("delay systems are supported in discrete time only")
        n = self.dimension
        cols = n * (self.delay_order + 1)
        if self.matrix_form.value_shape != (n, cols):
            raise ValueError(
                f"matrix_form values must have shape ({n}, {cols}), "
                f"got {self.matrix_form.value_shape}"
            )
        if self.forcing_form.value_shape != (n,):
            raise ValueError(
                f"forcing_form values must have shape ({n},), "
                f"got {self.forcing_form.value_shape}"
            )
        forms = [self.matrix_form, getattr(self.forcing_form, "numerator", self.forcing_form)]
        if isinstance(self.forcing_form, ReciprocalForcing):
            forms.append(self.forcing_form.q)
            if self.forcing_form.q.value_shape not in ((), (1,)):
                raise ValueError("the reciprocal denominator q must have scalar values")
        for form in forms:
            if form.num_variables != omega.size:
                raise ValueError("torus function arity must match the frequency count")

    @property
    def num_frequencies(self) -> int:
        return int(self.frequencies.size)

    @property
    def stacked_dimension(self) -> int:
        return self.dimension * (self.delay_order + 1)

    def phase_at(self, base_phase: np.ndarray, t) -> np.ndarray:
        """Torus point(s) reached from ``base_phase`` after time(s) ``t``."""
        t = np.asarray(t, dtype=float)
        theta = np.asarray(base_phase, dtype=float) + np.multiply.outer(t, self.frequencies)
        return reduce_phase(theta)

    def base_return_quality(self, tau) -> np.ndarray:
        """Sup over coordinates of the angular distance of tau*omega to 0, in
        the shape of ``tau``.

        The frequency axis leads, so the max is one elementwise pass over m
        rows rather than a reduction along a short trailing axis.
        """
        tau = np.asarray(tau, dtype=float)
        return np.max(angular_distance(np.multiply.outer(self.frequencies, tau)), axis=0)

    @classmethod
    def from_dict(cls, doc: dict) -> "QuasiPeriodicSpec":
        required = {"frequencies", "matrix_terms", "forcing_terms"}
        missing = required - doc.keys()
        if missing:
            raise KeyError(f"missing spec fields: {sorted(missing)}")
        forcing: TrigPolynomial | ReciprocalForcing
        forcing = TrigPolynomial.from_terms(doc["forcing_terms"])
        if "reciprocal" in doc and doc["reciprocal"] is not None:
            rec = doc["reciprocal"]
            forcing = ReciprocalForcing(
                numerator=forcing,
                c=float(rec["c"]),
                q=TrigPolynomial.from_terms(rec["q_terms"]),
            )
        return cls(
            frequencies=np.asarray(doc["frequencies"], dtype=float),
            matrix_form=TrigPolynomial.from_terms(doc["matrix_terms"]),
            forcing_form=forcing,
            time_domain=doc.get("time_domain", "continuous"),
            dimension=int(_whole("dimension", doc.get("dimension", 1))),
            delay_order=int(_whole("delay_order", doc.get("delay_order", 0))),
        )
