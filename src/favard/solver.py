"""Distinguished bounded solution via a min-max over near-return maps.

The affine maps ``u -> Phi_k u + b_k`` at the shifts an analysis reads are
held as one stacked table, :class:`ReturnMaps`, filled by one march
(:func:`march_maps`); the near returns, the certificate and the
comparability modulus each read their rows from it.  The candidate
distinguished state minimizes ``l(u) = max_k |Phi_k u + b_k - u0|`` over the
return maps and the convex hull of the return images of the anchor ``u0``,
nearest the anchor among minimizers: a linear program in the hull weights
(see :func:`solve_minmax`).  Small residuals ``|Phi_k u + b_k - u|`` of the
returns at the minimizer, read as the curve :func:`residual_curve` over the
return quality, certify an (approximate) common fixed point of the return
semigroup.  ``|.|`` is the state norm,
:meth:`~favard.cocycle.CocycleSystem.state_norm`: the sum of the Euclidean
norms of the n-blocks of a state.  The reports here carry numbers only;
:mod:`favard.scenarios` writes them to the payload files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cocycle import CocycleSystem, _as_state, affine_map_samples
from .errors import SolverError

_HULL_RANK_TOL = 1e-10


# ---------------------------------------------------------------------------
# near returns


@dataclass(frozen=True)
class NearReturnSet:
    """Shifts whose base-phase return quality stays below ``delta_cap``.

    Each shift is a whole number ``steps`` of march steps of length ``step``.
    """

    steps: np.ndarray
    deltas: np.ndarray
    step: float

    def __post_init__(self):
        steps = np.atleast_1d(np.asarray(self.steps, dtype=int))
        deltas = np.atleast_1d(np.asarray(self.deltas, dtype=float))
        if steps.shape != deltas.shape:
            raise ValueError("steps and deltas must align")
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "deltas", deltas)

    @property
    def taus(self) -> np.ndarray:
        """The shifts as times."""
        return self.steps * self.step

    def __len__(self) -> int:
        return int(self.steps.size)


def find_near_returns(
    sys: CocycleSystem,
    delta_cap: float,
    horizon: float,
    scan_step: float | None = None,
) -> NearReturnSet:
    """Scan shifts in (0, horizon] and keep those returning the base phase.

    Purely arithmetic (no integration); an empty result is a valid report,
    not an error.  The scan step is snapped to a whole number of march
    steps (:meth:`CocycleSystem.shift_grid`), so every shift lands on the
    march grid.
    """
    if delta_cap <= 0:
        raise ValueError("delta_cap must be positive")
    steps = sys.shift_grid(horizon, scan_step)
    qualities = sys.spec.base_return_quality(steps * sys.step)
    mask = qualities < delta_cap
    return NearReturnSet(steps=steps[mask], deltas=qualities[mask], step=sys.step)


@dataclass(frozen=True)
class ReturnMaps:
    """Affine maps ``u -> Phi[k] u + b[k]`` at the shifts of ``steps[k]`` march steps.

    Arrays of shape (M,), (M, n, n), (M, n) and (M,), with ``delta`` the
    base-return quality of each shift.  :func:`march_maps` fills one such
    table per analysis; the problem, the certificate and the comparability
    modulus each read their rows from it through :meth:`rows`.
    """

    steps: np.ndarray
    Phi: np.ndarray
    b: np.ndarray
    delta: np.ndarray

    def __len__(self) -> int:
        return int(self.steps.size)

    def rows(self, steps) -> "ReturnMaps":
        """The maps at the step counts ``steps``, in that order; each must be
        in the table, whose steps are sorted."""
        steps = np.asarray(steps, dtype=int)
        idx = np.searchsorted(self.steps, steps)
        if np.any(idx >= len(self)) or not np.array_equal(self.steps[idx], steps):
            raise ValueError("shift missing from the table")
        return ReturnMaps(steps, self.Phi[idx], self.b[idx], self.delta[idx])


def march_maps(sys: CocycleSystem, steps) -> ReturnMaps:
    """The table of maps at the distinct step counts in ``steps``, one march.

    The steps are deduplicated by one sort and a neighbour mask, a fifteenth
    of the time ``np.unique`` takes over 30,000 steps on NumPy 2.4.
    """
    steps = np.sort(np.asarray(steps, dtype=int), axis=None)
    steps = steps[np.diff(steps, prepend=steps[:1] - 1) != 0]
    return ReturnMaps(steps, *affine_map_samples(sys, steps * sys.step))


# ---------------------------------------------------------------------------
# min-max problem over the hull of return images


@dataclass(frozen=True)
class FavardProblem:
    """Anchor state, return maps, and the hull of return images of the anchor."""

    system: CocycleSystem
    anchor: np.ndarray
    maps: ReturnMaps
    hull_points: np.ndarray  # (K, n): images of the anchor under the returns

    @classmethod
    def from_returns(
        cls,
        sys: CocycleSystem,
        anchor,
        returns: NearReturnSet,
        table: ReturnMaps | None = None,
    ) -> "FavardProblem":
        """The problem over the maps at the returns, read from ``table``
        (by default a march over the returns alone)."""
        anchor = _as_state(sys, anchor)
        if len(returns) == 0:
            raise ValueError("cannot build a problem without near returns")
        maps = (march_maps(sys, returns.steps) if table is None else table).rows(returns.steps)
        hull = maps.Phi @ anchor + maps.b
        return cls(system=sys, anchor=anchor, maps=maps, hull_points=hull)

    def objective(self, u: np.ndarray) -> float:
        """l(u) = max over maps of |Phi u + b - anchor|."""
        return float(self.objective_batch(np.asarray(u, dtype=float)[None, :])[0])

    def objective_batch(self, us: np.ndarray) -> np.ndarray:
        """Vectorized ``objective`` over rows of a (B, n) array."""
        us = np.asarray(us, dtype=float)
        best = np.zeros(us.shape[0])
        for Phi, b in zip(self.maps.Phi, self.maps.b):
            r = us @ Phi.T + (b - self.anchor)
            np.maximum(best, self.system.state_norm(r), out=best)
        return best

    def hull_dimension(self) -> int:
        centered = self.hull_points - self.hull_points.mean(axis=0)
        if self.hull_points.shape[0] == 1:
            return 0
        s = np.linalg.svd(centered, compute_uv=False)
        scale = max(1.0, float(s[0]))
        return int(np.sum(s > _HULL_RANK_TOL * scale))


@dataclass(frozen=True)
class FavardResult:
    """Minimizer of the min-max functional, with ``iterations`` the simplex
    pivots spent and ``lower_bound`` the stage-1 LP value, a certified lower
    bound on the optimum."""

    u_bar: np.ndarray
    value: float
    weights: np.ndarray
    iterations: int
    converged: bool
    lower_bound: float
    hull_dimension: int


#: Stage 2 may raise the stage-1 optimum ``t*`` by this factor of
#: ``max(1, t*)`` while it moves toward the anchor.
TIE_BREAK_SLACK = 1e-9
#: On data scaled to unit size: reduced costs above ``-_TOL`` count as
#: optimal, and a cut model within ``_TOL * max(1, norm)`` of every norm as
#: exact; tableau entries below ``_PIVOT_TOL`` never serve as pivots, and an
#: LP solution off a constraint by more has lost it to roundoff.
_TOL = 1e-12
_PIVOT_TOL = 1e-9
#: Degenerate pivots in a row after which Bland's rule takes over.
_STALL_PIVOTS = 50


def _simplex(c, A_ub, b_ub, A_eq, b_eq, budget: int):
    """Minimize ``c @ x`` subject to ``A_ub x <= b_ub``, ``A_eq x = b_eq``, ``x >= 0``.

    Dense two-phase tableau; costs and right-hand sides must be nonnegative,
    so the LP is bounded and the slacks and one artificial per equality form
    the first basis.  The most negative reduced cost enters and the largest
    tied pivot leaves, as these LPs are highly degenerate and smallest-index
    choices often pivot on roundoff; after ``_STALL_PIVOTS`` degenerate
    pivots in a row Bland's rule, which cannot cycle, takes over.  Returns
    the solution (None if roundoff left no pivot or a singular basis) and
    the pivots spent; raises :class:`SolverError` once ``budget`` is spent.
    """
    m_ub, n = A_ub.shape
    m = m_ub + A_eq.shape[0]
    T = np.zeros((m + 2, n + m + 1))
    T[:m, :n] = np.vstack([A_ub, A_eq])
    T[:m, n : n + m] = np.eye(m)
    T[:m, -1] = np.concatenate([b_ub, b_eq])
    T[m, :n] = c
    T[m + 1] = -T[m_ub:m].sum(axis=0)  # phase 1: sum of the artificials
    T[m + 1, n + m_ub : n + m] = 0.0
    basis = np.arange(n, n + m)
    pivots = 0

    def pivot(r: int, j: int) -> None:
        nonlocal pivots
        if pivots == budget:
            raise SolverError("the min-max solve reached its pivot cap")
        T[r] /= T[r, j]
        col = T[:, j].copy()
        col[r] = 0.0
        T[...] -= np.outer(col, T[r])
        basis[r] = j
        pivots += 1

    def optimize(cost: int, width: int) -> bool:
        stalled = 0  # pivots in a row that left the objective unchanged
        while True:
            entering = np.flatnonzero(T[cost, :width] < -_TOL)
            if entering.size == 0:
                return True
            bland = stalled >= _STALL_PIVOTS
            j = entering[0] if bland else entering[np.argmin(T[cost, entering])]
            col = T[:m, j]
            rows = np.flatnonzero(col > _PIVOT_TOL)
            if rows.size == 0:  # a bounded LP has no such ray
                return False
            ratios = T[rows, -1] / col[rows]
            ties = rows[ratios <= ratios.min() + _TOL]
            before = T[cost, -1]
            pivot(int(ties[np.argmin(basis[ties]) if bland else np.argmax(col[ties])]), int(j))
            stalled = stalled + 1 if T[cost, -1] == before else 0

    feasible = optimize(m + 1, n + m)
    # an artificial left basic at level zero must not move in phase 2
    for r in np.flatnonzero(basis >= n + m_ub):
        cols = np.flatnonzero(np.abs(T[r, : n + m_ub]) > _PIVOT_TOL)
        if cols.size:
            pivot(int(r), int(cols[0]))
    if not (feasible and optimize(m, n + m_ub)):
        return None, pivots
    # the basic values again from the data, free of the tableau's roundoff
    x = np.zeros(n + m)
    full = np.hstack([np.vstack([A_ub, A_eq]), np.eye(m)])
    try:
        x[basis] = np.linalg.solve(full[:, basis], np.concatenate([b_ub, b_eq]))
    except np.linalg.LinAlgError:  # a basis singular to working precision
        return None, pivots
    return x[:n], pivots


def _lp_minimize(R, block: int, bounded: int, budget: int, cap=None):
    """Minimize over simplex weights by an LP model of the state norms.

    Residual ``k`` at weights ``lam`` is ``R[k] @ lam``; its state norm sums
    the Euclidean norms of its ``block``-sized pieces, each modelled by an
    epigraph variable ``e >= g . r`` over cuts ``g``.  Residuals
    ``k < bounded`` are held to norm ``<= t``; the objective is ``t`` if
    that is all of them, else the norm of the last one, with ``t <= cap``.
    Cuts start as ``+-`` the unit vectors, exact for scalar pieces; each
    round adds ``r / |r|`` at the pieces of every residual whose norm
    exceeds its model (Kelley's cutting planes) until none does by more than
    ``_TOL``.  Returns the weights, the LP value, the pivots spent and
    whether the model got there; once the LP can no longer resolve the cuts
    it stops short, with the last LP that held.
    """
    M, N, K = R.shape
    nb = N // block
    scale = np.abs(R).max() or 1.0
    pieces = R.reshape(M * nb, block, K) / scale
    cols = K + 1 + M * nb  # lam, t, one epigraph variable per piece
    c = np.zeros(cols)
    c[K if bounded == M else slice(cols - nb, None)] = 1.0
    sums = np.hstack([np.zeros((bounded, K)), -np.ones((bounded, 1)),
                      np.kron(np.eye(bounded, M), np.ones(nb))])
    fixed = np.vstack([sums] if cap is None else [sums, np.eye(1, cols, K)])
    A_eq = (np.arange(cols) < K)[None].astype(float)
    piece = np.arange(len(pieces)).repeat(2 * block)
    g = np.tile(np.vstack([np.eye(block), -np.eye(block)]), (len(pieces), 1))
    pivots, held = 0, None
    while True:
        rows = np.zeros((piece.size, cols))
        rows[:, :K] = np.einsum("cb,cbk->ck", g, pieces[piece])
        rows[np.arange(piece.size), K + 1 + piece] = -1.0
        A_ub = np.vstack([rows, fixed])
        b_ub = np.zeros(len(A_ub))
        if cap is not None:
            b_ub[-1] = cap / scale
        x, used = _simplex(c, A_ub, b_ub, A_eq, np.ones(1), budget - pivots)
        pivots += used
        off = np.inf if x is None else max(
            0.0, (A_ub @ x - b_ub).max(), abs(x[:K].sum() - 1.0), -x.min())
        if off > _PIVOT_TOL:
            if held is None:
                raise SolverError("simplex lost precision to roundoff")
            return (*held, pivots, False)
        lam, t, e = x[:K], x[K], x[K + 1 :]
        held = (lam, float(c @ x) * scale)
        r = pieces @ lam
        norms = np.linalg.norm(r, axis=1)
        model = e.reshape(M, nb).sum(axis=1)
        model[:bounded] = t
        true = norms.reshape(M, nb).sum(axis=1)
        short = true - model > _TOL * np.maximum(1.0, true)
        # a cut the LP cannot resolve past its own roundoff would repeat
        add = np.repeat(short, nb) & (norms - e > 2.0 * off)
        if not add.any():
            return (*held, pivots, not short.any())
        piece = np.concatenate([piece, np.flatnonzero(add)])
        g = np.vstack([g, r[add] / norms[add, None]])


def solve_minmax(
    problem: FavardProblem,
    iterations: int = 10_000,
) -> FavardResult:
    """Minimize ``l(u) = max_k |Phi_k u + b_k - u0|`` over the hull, nearest the anchor.

    With ``u = P^T lam`` every residual is linear in the simplex weights
    ``lam``, so the solve is two LPs (:func:`_lp_minimize`):
    stage 1 minimizes ``l``, whose optimum ``t*`` is the ``lower_bound``;
    stage 2 keeps ``l(u) <= t* + TIE_BREAK_SLACK * max(1, t*)`` and
    minimizes the state-norm distance ``|u - u0|``, picking the minimizer
    nearest the anchor.  ``iterations`` caps the simplex pivots of the whole
    solve; reaching it raises :class:`SolverError`.  :func:`grid_oracle` is
    the independent brute-force cross-check.
    """
    P = problem.hull_points  # (K, n)
    K = P.shape[0]
    dim = problem.hull_dimension()
    block = problem.system.spec.dimension
    if dim == 0:
        u_bar, lam, pivots, converged = P.mean(axis=0), np.full(K, 1.0 / K), 0, True
        t_star = problem.objective(u_bar)
    else:
        R = problem.maps.Phi @ P.T + (problem.maps.b - problem.anchor)[:, :, None]
        _, t_star, first, exact = _lp_minimize(R, block, len(R), iterations)
        cap = t_star + TIE_BREAK_SLACK * max(1.0, t_star)
        R = np.concatenate([R, (P - problem.anchor).T[None]])
        lam, _, second, converged = _lp_minimize(R, block, len(R) - 1, iterations - first, cap)
        u_bar, pivots, converged = P.T @ lam, first + second, exact and converged
    return FavardResult(
        u_bar=u_bar,
        value=problem.objective(u_bar),
        weights=lam,
        iterations=pivots,
        converged=converged,
        lower_bound=t_star,
        hull_dimension=dim,
    )


def grid_oracle(problem: FavardProblem, resolution: int = 201) -> tuple[np.ndarray, float]:
    """Brute-force minimizer over a grid of the hull, for hull dimension <= 2.

    Independent of the LP solver: parametrizes the affine span of
    the hull points, grids it, discards points outside the hull, and takes
    the best objective value.  Used as a cross-check oracle in tests.
    """
    P = problem.hull_points
    mean = P.mean(axis=0)
    centered = P - mean
    dim = problem.hull_dimension()
    if dim == 0:
        return mean, problem.objective(mean)
    U, s, Vt = np.linalg.svd(centered, full_matrices=False)
    axes = Vt[:dim]  # (dim, n)
    coords = centered @ axes.T  # (K, dim)
    if dim == 1:
        lo, hi = float(coords.min()), float(coords.max())
        ts = np.linspace(lo, hi, resolution)
        cands = mean + np.outer(ts, axes[0])
    elif dim == 2:
        from scipy.spatial import ConvexHull

        hull = ConvexHull(coords)
        xs = np.linspace(coords[:, 0].min(), coords[:, 0].max(), resolution)
        ys = np.linspace(coords[:, 1].min(), coords[:, 1].max(), resolution)
        gx, gy = np.meshgrid(xs, ys)
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        # keep grid points satisfying every facet inequality A x + b <= 0
        A, b = hull.equations[:, :-1], hull.equations[:, -1]
        inside = np.all(pts @ A.T + b <= 1e-12, axis=1)
        pts = np.vstack([pts[inside], coords])  # vertices always included
        cands = mean + pts @ axes
    else:
        raise ValueError("grid oracle supports hull dimension 0, 1 or 2 only")
    vals = problem.objective_batch(cands)
    i = int(np.argmin(vals))
    return cands[i], float(vals[i])


# ---------------------------------------------------------------------------
# fixed-point certificate


def residual_curve(qualities, residuals, grid) -> tuple[np.ndarray, np.ndarray]:
    """Worst residual and count among the shifts of quality below each grid value.

    ``qualities`` and ``residuals`` are arrays with one entry per shift.
    Shift ``i`` qualifies for ``g`` when ``qualities[i] < g``; a grid value
    no shift qualifies for gets worst 0 and count 0.  One stable sort by
    quality and a prefix max serve the whole grid.  Both arrays are in the
    order of ``grid``.
    """
    order = np.argsort(qualities, kind="stable")
    counts = np.searchsorted(qualities[order], grid, side="left")
    worst = np.concatenate([[0.0], np.maximum.accumulate(residuals[order])])
    return worst[counts], counts


@dataclass(frozen=True)
class FixedPointReport:
    """Residual curve r(delta) of a candidate common fixed point.

    ``r(delta)`` is the worst return deviation among shifts of base quality
    below delta (:func:`residual_curve`); an empty qualifying set
    contributes 0 by convention, with the honest count recorded alongside.
    The curve is nonincreasing by construction (max over shrinking sets).
    """

    delta_grid: tuple
    residuals: tuple
    counts: tuple
    tolerance: float
    verdict: str  # "certified" or "inconclusive"
    max_residual: float


def default_certificate_tolerance(sys: CocycleSystem) -> float:
    """Residual level below which a fixed point counts as certified.

    Continuous time allows ten times the nominal one-step truncation error
    of the fourth-order integrator; discrete recursions are exact up to
    roundoff.
    """
    if sys.continuous:
        return max(1e-6, 10.0 * sys.h**4)
    return 1e-9


def verify_fixed_point(
    sys: CocycleSystem,
    u_bar,
    maps,
    delta_grid,
    tolerance: float | None = None,
) -> FixedPointReport:
    """Certify ``u_bar`` as a common fixed point of the return maps ``maps``."""
    u = _as_state(sys, u_bar)
    if tolerance is None:
        tolerance = default_certificate_tolerance(sys)
    residuals = sys.state_norm(maps.Phi @ u + maps.b - u)
    grid = sorted(delta_grid, reverse=True)
    curve, counts = residual_curve(maps.delta, residuals, grid)
    certified = counts.any() and curve[-1] <= tolerance
    return FixedPointReport(
        delta_grid=tuple(float(g) for g in grid),
        residuals=tuple(curve.tolist()),
        counts=tuple(counts.tolist()),
        tolerance=float(tolerance),
        verdict="certified" if certified else "inconclusive",
        max_residual=float(residuals.max()) if residuals.size else 0.0,
    )
