"""Linear and affine cocycle evaluation for quasi-periodic systems.

The continuous-time back end marches the augmented propagator
``M(t) = [[U(t), b(t)], [0, 1]]`` with classical fixed-step RK4, where
``U`` solves the homogeneous matrix equation and ``b(t)`` is the forced
response from 0.  Every affine evaluation is then ``U(t) u + b(t)``, so
affineness holds by construction.  Discrete and delay back ends use the
exact one-step recursion in the same augmented form.

Per-step propagators depend only on the coefficients, so they are built
in vectorized batches and combined by pairwise products; long horizons
cost a few batched matmul sweeps instead of a Python loop per step.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import BlowUpError, SingularStepError
from .signals import vector_norm
from .torus import QuasiPeriodicSpec, reduce_phase

_CHUNK = 200_000
#: A state whose norm exceeds this factor times ``1 + |start|`` has left the
#: bounded regime.
BLOWUP_FACTOR = 1e8


@dataclass(frozen=True)
class CocycleSystem:
    """A coefficient spec anchored at a base torus phase, plus integrator step."""

    spec: QuasiPeriodicSpec
    base_phase: np.ndarray
    h: float = 1e-3

    def __post_init__(self):
        phase = reduce_phase(np.atleast_1d(np.asarray(self.base_phase, dtype=float)))
        if phase.size != self.spec.num_frequencies:
            raise ValueError("base phase arity must match the frequency count")
        object.__setattr__(self, "base_phase", phase)
        if self.spec.time_domain == "continuous" and self.h <= 0:
            raise ValueError("integrator step h must be positive")

    @property
    def continuous(self) -> bool:
        return self.spec.time_domain == "continuous"

    @property
    def step(self) -> float:
        """March step: the integrator step ``h``, or 1 in discrete time."""
        return self.h if self.continuous else 1.0

    def steps(self, t):
        """Whole march steps in the nonnegative time(s) ``t``.

        The only conversion of a time to a step count: the ``1e-9`` slack
        keeps a grid time that roundoff put just below its step on it.
        """
        return np.floor(np.asarray(t, dtype=float) / self.step + 1e-9).astype(int)

    def stride(self, scan_step: float | None = None) -> int:
        """Whole march steps in ``scan_step`` (default 0.01, or 1 in discrete
        time), rounded and at least one."""
        if scan_step is None:
            scan_step = 0.01 if self.continuous else 1.0
        return max(1, round(scan_step / self.step))

    def shift_grid(self, span: float, scan_step: float | None = None) -> np.ndarray:
        """Step counts of the shifts ``s, 2s, ...`` in ``(0, span]``, ``s`` one stride."""
        stride = self.stride(scan_step)
        return stride * np.arange(1, int(self.steps(span)) // stride + 1)

    @property
    def state_dim(self) -> int:
        return self.spec.stacked_dimension

    @property
    def norm_kind(self) -> str:
        return "delay_sum" if self.spec.delay_order > 0 else "euclidean"

    def state_norm(self, v: np.ndarray) -> np.ndarray:
        return vector_norm(np.asarray(v, dtype=float), self.norm_kind, self.spec.dimension)

    def shifted(self, s: float) -> "CocycleSystem":
        """The same system re-anchored at the base point advanced by ``s``."""
        return replace(self, base_phase=self.spec.phase_at(self.base_phase, s))


@dataclass(frozen=True)
class FundamentalMatrix:
    t: float
    U: np.ndarray


@dataclass(frozen=True)
class AffineMapSample:
    """The affine return map u -> Phi u + b at shift tau, with base-return quality."""

    tau: float
    Phi: np.ndarray
    b: np.ndarray
    delta: float
    composed: bool = False  # a pairwise-sum shift, not a base return


@dataclass(frozen=True)
class DelayState:
    """History segment (u(t), u(t-1), ..., u(t-r)) of a delay recursion."""

    history: tuple

    def stacked(self) -> np.ndarray:
        return np.concatenate([np.atleast_1d(np.asarray(h, dtype=float)) for h in self.history])


# ---------------------------------------------------------------------------
# propagator construction


def _generators(sys: CocycleSystem, times: np.ndarray) -> np.ndarray:
    """Augmented continuous-time generators [[A, f], [0, 0]] at a batch of times."""
    theta = sys.spec.phase_at(sys.base_phase, times)
    A = sys.spec.matrix_form(theta)
    f = sys.spec.forcing_form(theta)
    n = sys.state_dim
    G = np.zeros((times.size, n + 1, n + 1))
    G[:, :n, :n] = A
    G[:, :n, n] = f
    return G


def _continuous_propagators(sys: CocycleSystem, t_start: float, n_steps: int, h: float) -> np.ndarray:
    """One-step RK4 propagators for the augmented system on n_steps steps of size h."""
    times = t_start + (h / 2.0) * np.arange(2 * n_steps + 1)
    G = _generators(sys, times)
    G0, Gh, G1 = G[0:-1:2], G[1::2], G[2::2]
    d = G.shape[1]
    eye = np.eye(d)
    K1 = G0
    K2 = Gh @ (eye + (h / 2.0) * K1)
    K3 = Gh @ (eye + (h / 2.0) * K2)
    K4 = G1 @ (eye + h * K3)
    return eye + (h / 6.0) * (K1 + 2.0 * K2 + 2.0 * K3 + K4)


def _companion(sys: CocycleSystem, A: np.ndarray) -> np.ndarray:
    """Stack the delay recursion into a first-order step matrix."""
    n = sys.spec.dimension
    D = sys.state_dim
    N = A.shape[0]
    C = np.zeros((N, D, D))
    C[:, :n, :] = A
    if D > n:
        C[:, n:, : D - n] = np.eye(D - n)
    return C


def _discrete_propagators(sys: CocycleSystem, t_start: int, n_steps: int) -> np.ndarray:
    """Exact step matrices [[C(t), F(t)], [0, 1]] for t = t_start .. t_start+n_steps-1."""
    times = t_start + np.arange(n_steps, dtype=float)
    theta = sys.spec.phase_at(sys.base_phase, times)
    A = sys.spec.matrix_form(theta)
    f = sys.spec.forcing_form(theta)
    n = sys.spec.dimension
    D = sys.state_dim
    S = np.zeros((n_steps, D + 1, D + 1))
    S[:, :D, :D] = _companion(sys, A)
    S[:, :n, D] = f
    S[:, D, D] = 1.0
    return S


def _chain(S: np.ndarray) -> np.ndarray:
    """Ordered product S[N-1] @ ... @ S[0] by pairwise reduction."""
    if S.shape[0] == 0:
        return np.eye(S.shape[-1]) if S.ndim == 3 else np.eye(2)
    while S.shape[0] > 1:
        m = S.shape[0] // 2
        paired = S[1 : 2 * m : 2] @ S[0 : 2 * m : 2]
        S = np.concatenate([paired, S[2 * m :]]) if S.shape[0] % 2 else paired
    return S[0]


def _build_propagators(sys: CocycleSystem, start: int, count: int) -> np.ndarray:
    if sys.continuous:
        return _continuous_propagators(sys, start * sys.h, count, sys.h)
    return _discrete_propagators(sys, start, count)


def _split(sys: CocycleSystem, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whole march steps and the leftover time (zero on the grid) of each time."""
    n_full = sys.steps(times)
    rem = times - n_full * sys.step
    rem[np.abs(rem) < sys.step * 1e-9] = 0.0
    if not sys.continuous and np.any(rem):
        raise ValueError("discrete-time shifts must be integers")
    return n_full, rem


def affine_path(sys: CocycleSystem, taus) -> tuple[np.ndarray, np.ndarray]:
    """Propagator pairs (U(tau), b(tau)) for a batch of nonnegative shifts.

    One chunked forward march visits each distinct step count once, in
    increasing order; continuous-time shifts that are not grid multiples
    get a single trailing partial RK4 step.  Returns arrays of shape
    (K, n, n) and (K, n) in the order of ``taus``.
    """
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    if np.any(taus < 0):
        raise ValueError("affine_path takes nonnegative shifts")
    n_full, rem = _split(sys, taus)
    targets, where = np.unique(n_full, return_inverse=True)
    d = sys.state_dim + 1
    at = np.empty((targets.size, d, d))

    M = np.eye(d)
    done = int(np.searchsorted(targets, 0, side="right"))
    at[:done] = M
    last = int(targets[-1]) if targets.size else 0
    for pos in range(0, last, _CHUNK):
        count = min(_CHUNK, last - pos)
        S = _build_propagators(sys, pos, count)
        local = 0
        stop = int(np.searchsorted(targets, pos + count, side="right"))
        for j in range(done, stop):
            target = int(targets[j]) - pos
            M = _chain(S[local:target]) @ M
            local = target
            at[j] = M
        done = stop
        if local < count:
            M = _chain(S[local:]) @ M

    out = at[where]
    for k in np.flatnonzero(rem):
        out[k] = _continuous_propagators(sys, n_full[k] * sys.h, 1, rem[k])[0] @ out[k]
    n = sys.state_dim
    return out[:, :n, :n], out[:, :n, n]


def _negative_path(sys: CocycleSystem, t: float) -> tuple[np.ndarray, np.ndarray]:
    """(U(t), b(t)) for t < 0; continuous by backward RK4, discrete by step inverses."""
    n = sys.state_dim
    steps, rem = _split(sys, np.array([-t]))
    n_full, rem = int(steps[0]), -float(rem[0])
    if sys.continuous:
        M = _chain(_continuous_propagators(sys, 0.0, n_full, -sys.h))
        if rem != 0.0:
            M = _continuous_propagators(sys, n_full * -sys.h, 1, rem)[0] @ M
        return M[:n, :n], M[:n, n]
    S = _discrete_propagators(sys, -n_full, n_full)  # steps -n_full .. -1
    singular = np.flatnonzero(np.abs(np.linalg.det(S[:, :n, :n])) < 1e-300)
    if singular.size:
        raise SingularStepError(f"step matrix at time {singular[-1] - n_full} is singular")
    M = _chain(np.linalg.inv(S)[::-1])
    return M[:n, :n], M[:n, n]


# ---------------------------------------------------------------------------
# public operations


def fundamental_matrix(sys: CocycleSystem, t: float) -> FundamentalMatrix:
    """Homogeneous propagator U(t) with U(0) = I."""
    if t == 0:
        return FundamentalMatrix(0.0, np.eye(sys.state_dim))
    if t < 0:
        U, _ = _negative_path(sys, float(t))
    else:
        Phi, _ = affine_path(sys, [float(t)])
        U = Phi[0]
    if sys.continuous and np.linalg.det(U) <= 0:
        raise BlowUpError("fundamental matrix lost positivity of the determinant", t=t)
    return FundamentalMatrix(float(t), U)


def _as_state(sys: CocycleSystem, u) -> np.ndarray:
    if isinstance(u, DelayState):
        u = u.stacked()
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if u.size != sys.state_dim:
        raise ValueError(f"state dimension {u.size} != system dimension {sys.state_dim}")
    return u


def evaluate_affine(sys: CocycleSystem, u, t: float) -> np.ndarray:
    """Forced-system state after time ``t`` from initial state ``u``."""
    u = _as_state(sys, u)
    if t < 0:
        U, b = _negative_path(sys, float(t))
    else:
        Phi, bs = affine_path(sys, [float(t)])
        U, b = Phi[0], bs[0]
    x = U @ u + b
    if not np.all(np.isfinite(x)):
        raise BlowUpError("affine evaluation overflowed", t=t)
    return x


def affine_map_samples(sys: CocycleSystem, taus) -> list[AffineMapSample]:
    """Return maps with their base-return quality at a batch of shifts, one march for all."""
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    Phi, b = affine_path(sys, taus)
    deltas = np.atleast_1d(sys.spec.base_return_quality(taus))
    return [
        AffineMapSample(tau=float(t), Phi=Phi[i], b=b[i], delta=float(deltas[i]))
        for i, t in enumerate(taus)
    ]


def verify_cocycle_identity(sys: CocycleSystem, u, t: float, s: float) -> float:
    """Residual of the two-leg composition against the direct evaluation."""
    direct = evaluate_affine(sys, u, t + s)
    mid = evaluate_affine(sys, u, s)
    two_leg = evaluate_affine(sys.shifted(s), mid, t)
    return float(sys.state_norm(direct - two_leg))


def check_bounded(peak: float, start_norm: float, what: str, t: float | None = None) -> None:
    """Raise :class:`BlowUpError` unless ``peak`` is finite and at most
    ``BLOWUP_FACTOR * (1 + start_norm)``: the one bounded-orbit test."""
    if not np.isfinite(peak) or peak > BLOWUP_FACTOR * (1.0 + start_norm):
        raise BlowUpError(f"{what} left the bounded regime (peak {peak:.3g})", t=t)


def estimate_bound_constant(
    sys: CocycleSystem,
    u_samples,
    horizon: float,
    num_grid: int = 1000,
) -> float:
    """Empirical bound L with |U(t) u| <= L |u| on a grid of [0, horizon].

    Raises :class:`BlowUpError` when a sampled trajectory leaves the bounded
    regime, i.e. the sample does not witness a bounded orbit.
    """
    grid = sys.shift_grid(horizon, max(sys.step, horizon / num_grid))
    Phi, _ = affine_path(sys, np.concatenate([[0], grid]) * sys.step)
    L = 0.0
    for u in u_samples:
        u = _as_state(sys, u)
        nu = float(sys.state_norm(u))
        if nu == 0.0:
            raise ValueError("bound estimation needs nonzero states")
        peak = float(np.max(sys.state_norm(Phi @ u)))
        check_bounded(peak, nu, f"homogeneous trajectory from |u|={nu:.3g}")
        L = max(L, peak / nu)
    return L
