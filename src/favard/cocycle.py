"""Linear and affine cocycle evaluation for quasi-periodic systems.

The continuous-time back end marches the augmented propagator
``M(t) = [[U(t), b(t)], [0, 1]]`` with classical fixed-step RK4, where
``U`` solves the homogeneous matrix equation and ``b(t)`` is the forced
response from 0.  Every affine evaluation is then ``U(t) u + b(t)``, so
affineness holds by construction.  The bottom row ``[0 ... 0 1]`` never
changes, so steps and products are held as their top rows ``[U | b]``, of
shape (n, n + 1), and composed by :func:`_then`: one matmul and one add of
the last column.  The RK4 stages are formed in block form, a matrix block
and a vector block per stage, since the generator ``[[A, f], [0, 0]]`` has
a zero bottom row.  Discrete and delay back ends use the exact one-step
recursion in the same top-row form.  In state dimension 1, that of six of
the seven bundled scenarios, every one of these products contracts over a
single index and is one multiply, so compositions and stages are taken as
elementwise products over the batch: the same values, where a batched
1 x 1 matmul takes about four times as long.  Dimension 2 and up keeps the
matmul.

Per-step propagators depend only on the coefficients, so they are built
in vectorized batches, chunk by chunk, and combined through a pairwise
product tree: a march to K shifts over N steps costs about
N + K log2(2N / K) batched compositions (2N when every step is a shift) and
no Python loop over steps or shifts.  Chunks are sized
from a byte budget, so peak memory does not grow with the state dimension.
The coefficients along each chunk's uniform time grid are read by angle
addition (:meth:`favard.torus.TrigPolynomial.along_flow`), about
``4 sqrt(N)`` cos/sin per term for N grid points, and summed over the terms
by one real matrix product per block of grid nodes; a coefficient with only
k = 0 terms, such as a constant A, is read as its constant, with no phasors.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .errors import BlowUpError
from .torus import FlowGrid, QuasiPeriodicSpec, reduce_phase

#: Byte budget of one march chunk, counted in step-sized matrices only: a
#: chunk of N steps is sized as 9 N float64 matrices of the augmented size
#: d x d (d = n + 1, or n (r + 1) + 1 with delay order r).  The product tree
#: and the step stack hold only the top rows n x d, next to the coefficient
#: and RK4 stage blocks at the half steps and their temporaries.  Peaks by
#: ``tracemalloc`` over a three-chunk march with an A(t) that varies, beyond
#: its K result maps: to one end, about 4.8 N at n = 1, 6.3 N at n = 2 and
#: 8.8 N at n = 8; to every tenth step, 5.1, 6.6 and 9.0 N; to every step,
#: where the down-sweep holds the prefixes of a whole level and their
#: gather, 8.5, 9.1 and 11.1 N.  A constant A(t) is one broadcast matrix,
#: which lowers each peak by 0.5 N at n = 1, 0.9 N at n = 2 and 1.6 N at
#: n = 8.  The blocks that produce the coefficients are held apart, within
#: ``favard.torus._PHASOR_BYTES``, whatever the number of terms.
_CHUNK_BYTES = 8 << 20
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
        """Whole march steps in the nonnegative time(s) ``t`` (:func:`_whole_steps`)."""
        return _whole_steps(t, self.step)[0]

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

    def state_norm(self, v) -> np.ndarray:
        """Norm of each row of a (..., state_dim) array: the sum of the Euclidean
        norms of its n-blocks, the history-segment norm of a delay state.
        Without delay it is the Euclidean norm, bit for bit."""
        v = np.asarray(v, dtype=float)
        n = self.spec.dimension
        if v.shape[-1] != self.state_dim:
            raise ValueError(f"state norm needs {self.state_dim} entries per row")
        return np.linalg.norm(v.reshape(v.shape[:-1] + (v.shape[-1] // n, n)), axis=-1).sum(axis=-1)

    def shifted(self, s: float) -> "CocycleSystem":
        """The same system re-anchored at the base point advanced by ``s``."""
        return replace(self, base_phase=self.spec.phase_at(self.base_phase, s))


def _whole_steps(t, step: float) -> tuple[np.ndarray, np.ndarray]:
    """Whole steps of length ``step`` in the nonnegative time(s) ``t``, and the
    time left over past them: the one conversion of a time to a step count.

    A time within a relative ``1e-12`` of a step is on it, with nothing left
    over: floating-point ``k * step`` can fall a few units in the last place
    short of the k-th step, and so still counts as k steps for every k below
    10^11, far past the march-step cap of a scenario.
    """
    t = np.asarray(t, dtype=float)
    n = np.floor(t * ((1.0 + 1e-12) / step))
    rest = t - n * step
    return n.astype(int), np.where(rest > 1e-12 * t, rest, 0.0)


# ---------------------------------------------------------------------------
# propagator construction


def _augmented(sys: CocycleSystem, t0: float, count: int) -> np.ndarray:
    """Exact discrete steps as top rows [A(t) | f(t)] at the times ``t0 + j``, ``j < count``.

    A delay recursion's rows below the first n shift the stacked history
    down by one block.  The coefficients are read off the grid by angle
    addition (:meth:`TrigPolynomial.along_flow`).
    """
    grid = FlowGrid(sys.spec, sys.base_phase, t0, 1.0, count)
    n, D = sys.spec.dimension, sys.state_dim
    M = np.zeros((count, D, D + 1))
    M[:, :n, :D] = sys.spec.matrix_form.along_flow(grid)
    M[:, n:, : D - n] = np.eye(D - n)
    M[:, :n, D] = sys.spec.forcing_form.along_flow(grid)
    return M


def _continuous_propagators(sys: CocycleSystem, t_start: float, n_steps: int, h: float) -> np.ndarray:
    """One-step RK4 propagators as top rows [P | q] of the augmented system
    on n_steps steps of size h, shape (n_steps, n, n + 1).

    The generator [[A, f], [0, 0]] has a zero bottom row, so each RK4 stage
    is a block pair: from ``X = (U, b)`` the next stage is ``(A U, A b + f)``
    with ``X = (I + c U', c b')`` built from the previous stage ``(U', b')``.
    ``P = I + h/6 (U1 + 2 U2 + 2 U3 + U4)`` and ``q = h/6 (b1 + 2 b2 + 2 b3 + b4)``
    are the blocks of the augmented RK4 step, written into the step stack once.
    In dimension 1 every stage product contracts over one index, so a stage
    is ``(A (1 + c U'), A (c b') + f)`` taken elementwise, with no 1 x 1
    matmul or einsum: the same values, at vector speed.
    """
    grid = FlowGrid(sys.spec, sys.base_phase, t_start, h / 2.0, 2 * n_steps + 1)
    A, f = sys.spec.matrix_form.along_flow(grid), sys.spec.forcing_form.along_flow(grid)
    n = sys.state_dim
    eye = np.eye(n)

    def stage(k: slice, c: float, U: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if n == 1:
            return A[k] * (1.0 + c * U), A[k][..., 0] * (c * b) + f[k]
        return A[k] @ (eye + c * U), np.einsum("kij,kj->ki", A[k], c * b) + f[k]

    U1, b1 = A[0:-1:2], f[0:-1:2]
    U2, b2 = stage(slice(1, None, 2), h / 2.0, U1, b1)
    U3, b3 = stage(slice(1, None, 2), h / 2.0, U2, b2)
    U4, b4 = stage(slice(2, None, 2), h, U3, b3)
    out = np.empty((n_steps, n, n + 1))
    out[:, :, :n] = eye + (h / 6.0) * (U1 + 2.0 * U2 + 2.0 * U3 + U4)
    out[:, :, n] = (h / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
    return out


def _march_steps(sys: CocycleSystem, pos: int, count: int) -> np.ndarray:
    """Step matrices of march steps pos .. pos+count-1 from time 0: RK4
    steps of size ``h``, or the exact discrete steps."""
    if sys.continuous:
        return _continuous_propagators(sys, pos * sys.h, count, sys.h)
    return _augmented(sys, float(pos), count)


def _chunk_steps(d: int) -> int:
    """March steps per chunk for augmented matrices of size ``d``, at least one."""
    return max(1, _CHUNK_BYTES // (9 * 8 * d * d))


def _then(first: np.ndarray, second: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The affine maps "``first``, then ``second``" as top rows ``[U | b]``.

    ``[U2 | b2]`` after ``[U1 | b1]`` is ``[U2 U1 | U2 b1 + b2]``: one matmul
    of ``U2`` with the whole of ``first``, then ``b2`` added to the last
    column.  This is the augmented product without its ``[0 ... 0 1]`` row.
    In dimension 1 the matmul contracts over one index, so it is the two
    column products ``U2 U1`` and ``U2 b1``, taken elementwise over the batch:
    the same values (up to the sign of a zero, which matmul reads as
    ``0 + (-0.0) = +0.0``) in 35-46 us against 143 us for a batched 1 x 1
    matmul, over 14,563 maps.  Dimension 2 and up keeps the matmul, which
    measured faster there than einsum or unrolled products.
    """
    if first.shape[-2] == 1:
        out = np.empty(first.shape) if out is None else out
        np.multiply(second[..., 0], first[..., 0], out=out[..., 0])
        np.multiply(second[..., 0], first[..., 1], out=out[..., 1])
    else:
        out = np.matmul(second[..., :-1], first, out=out)
    out[..., -1] += second[..., -1]
    return out


def _prefix_products(build, ends: np.ndarray, n: int) -> np.ndarray:
    """Ordered compositions of steps ``S[0]``, then ... ``S[e-1]``, for each step
    count ``e`` in ``ends``, as top rows ``[U | b]`` of shape (n, n + 1).

    ``build(pos, count)`` returns the step maps ``S[pos:pos + count]`` as top
    rows.  Per chunk, level k of a pairwise tree holds the m_k compositions of
    the aligned blocks of 2**k steps, written into one buffer (N compositions
    for N steps).  The ends are read in two parts (Blelloch 1990):

    * a down-sweep from the carry, the map up to the chunk start, gives the
      m_k + 1 exclusive prefixes E_k of each level k, down to the lowest
      level k0 with no more nodes than the chunk has ends (counting the
      carry row): the even rows of E_k are E_{k+1}, and the odd rows are
      E_{k+1} then every other node of level k, one batched composition;
    * each end takes its prefix at level k0, ``E_k0[offset >> k0]``, and
      composes the nodes along the binary digits of its offset below k0,
      one batched composition per level over all ends in the chunk.

    Both parts make the same compositions, in the same order, as composing
    every digit of every end, so the maps do not depend on how many ends a
    chunk holds; a chunk with one end (the burn-in) descends a level or two
    only and keeps to the digit path.  Every
    composition is :func:`_then`.  The result, of shape (K, n, n + 1), is in
    the order of ``ends``.
    """
    order = np.argsort(ends, kind="stable")
    ends = ends[order]
    identity = np.eye(n, n + 1)
    out = np.tile(identity, (ends.size, 1, 1))
    lo = int(np.searchsorted(ends, 0, side="right"))
    last = int(ends[-1]) if ends.size else 0
    chunk = min(_chunk_steps(n + 1), max(last, 1))
    tree = np.empty((chunk - 1, n, n + 1))  # level k >= 1 holds chunk >> k nodes
    carry = identity
    for pos in range(0, last, chunk):
        count = min(chunk, last - pos)
        hi = int(np.searchsorted(ends, pos + count, side="right"))
        levels, used = [build(pos, count)], 0
        while levels[-1].shape[0] > 1:
            below, m = levels[-1], levels[-1].shape[0] // 2
            levels.append(_then(below[0 : 2 * m : 2], below[1 : 2 * m : 2], out=tree[used : used + m]))
            used += m
        offsets = np.append(ends[lo:hi] - pos, count)  # the last row carries to the next chunk
        E, k0 = carry[None], len(levels)  # E[j]: the map up to offset j << k0
        while k0 > 0 and levels[k0 - 1].shape[0] <= offsets.size:
            k0 -= 1
            m = levels[k0].shape[0]
            E, above = np.empty((m + 1, n, n + 1)), E
            E[0::2] = above
            _then(above[: (m + 1) // 2], levels[k0][0::2], out=E[1::2])
        R = E[offsets >> k0]
        for k in range(k0 - 1, -1, -1):
            sel = np.flatnonzero(offsets & (1 << k))
            R[sel] = _then(R[sel], levels[k][(offsets[sel] >> k) - 1])  # the node after the higher digits
        out[order[lo:hi]] = R[:-1]
        carry, lo = R[-1], hi
    return out


def affine_path(sys: CocycleSystem, taus) -> tuple[np.ndarray, np.ndarray]:
    """Propagator pairs (U(tau), b(tau)) for a batch of nonnegative shifts.

    One forward march to the largest shift reads every shift off its chunk's
    product tree (:func:`_prefix_products`), which holds each map as the top
    rows ``[U | b]``; chunks hold at most ``_CHUNK_BYTES`` of step maps and
    their temporaries.  A continuous-time shift off the step grid gets one
    trailing partial RK4 step, composed by the same :func:`_then`.  Returns
    arrays of shape (K, n, n) and (K, n) in the order of ``taus``.
    """
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    if np.any(taus < 0):
        raise ValueError("affine_path takes nonnegative shifts")
    n_full, rem = _whole_steps(taus, sys.step)
    if not sys.continuous and np.any(rem):
        raise ValueError("discrete-time shifts must be integers")
    n = sys.state_dim
    out = _prefix_products(partial(_march_steps, sys), n_full, n)
    for k in np.flatnonzero(rem):
        out[k] = _then(out[k], _continuous_propagators(sys, n_full[k] * sys.h, 1, rem[k])[0])
    return out[:, :, :n], out[:, :, n]


# ---------------------------------------------------------------------------
# public operations


def fundamental_matrix(sys: CocycleSystem, t: float) -> np.ndarray:
    """Homogeneous propagator U(t) with U(0) = I, at a time ``t >= 0``."""
    if t == 0:
        return np.eye(sys.state_dim)
    U = affine_path(sys, [float(t)])[0][0]
    if sys.continuous and np.linalg.det(U) <= 0:
        raise BlowUpError("fundamental matrix lost positivity of the determinant", t=t)
    return U


def _as_state(sys: CocycleSystem, u) -> np.ndarray:
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if u.size != sys.state_dim:
        raise ValueError(f"state dimension {u.size} != system dimension {sys.state_dim}")
    return u


def evaluate_affine(sys: CocycleSystem, u, t: float) -> np.ndarray:
    """Forced-system state after time ``t >= 0`` from initial state ``u``."""
    u = _as_state(sys, u)
    U, b = affine_path(sys, [float(t)])
    x = U[0] @ u + b[0]
    if not np.all(np.isfinite(x)):
        raise BlowUpError("affine evaluation overflowed", t=t)
    return x


def affine_map_samples(sys: CocycleSystem, taus) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return maps ``(Phi, b)`` and their base-return quality ``delta`` at a
    batch of shifts, one march for all: arrays of shape (K, n, n), (K, n)
    and (K,) in the order of ``taus``."""
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    Phi, b = affine_path(sys, taus)
    return Phi, b, np.atleast_1d(sys.spec.base_return_quality(taus))


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
