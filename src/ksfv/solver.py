"""Time integration of the regularized chemotaxis system.

One step advances (u, v) by operator splitting:

  1. u is updated by backward-Euler diffusion with explicit chemotaxis,

         u1 - dt lap_h w(u1) = u0 - dt div F_chem(u0, v0),  w = (u+sigma)^m,

     solved by Newton in the Kirchhoff potential w.  The chemotactic face
     flux is donor-cell upwinded, and dt keeps each cell's outgoing
     chemotactic mass within its content, so the right-hand side stays
     nonnegative.  u1 is formed in flux form from the total face flux,
     diffusive -(w_R - w_L)/h plus chemotactic, so total mass telescopes
     exactly.  Cells a slightly inexact solve would leave negative are
     limited (_StepWork.flux_update); only a Newton solve that does not
     converge is retried at half the step.
  2. v is advanced by backward Euler on v_t - laplace v + v = u, with the
     previous step's u on the right-hand side (the operator is symmetric
     positive definite and an M-matrix, so the exact update preserves
     nonnegativity and the discrete maximum principle).

Every face operation runs on the grid's flat face layout (grid._FaceBuffer,
whose wrap faces on the last axis of a 2-D grid are exactly 0.0) and every
Laplacian is grid._Laplacian.  The chemotactic rates and the limiter
share one donor-cell face transfer, _upwind.

Every implicit system here is symmetric positive definite.  Two have
constant coefficients: the v-solve, whose operator is (1 + dt) - dt lap_h,
and the m = 1 diffusion step, whose operator is I - dt lap_h.  One routine,
_solve_shifted, solves both by corrections with the exact inverse of
a - dt lap_h in the cosine basis of the Neumann Laplacian, testing the
residual before each.  Conjugate gradients serve only the
variable-coefficient Newton corrections (m != 1), whose Jacobian
diag(du/dw) - dt lap_h varies only in its diagonal.  Those are
preconditioned by a symmetric multigrid V-cycle (_NewtonPreconditioner):
two damped-Jacobi sweeps before and after each coarse correction, grids
halved while every axis is even, and the cosine-basis inverse scaled by the
diagonal on the coarsest level, which is exact when du/dw is uniform.  Its
depth follows the grid (_MG_COARSEST_CELLS) and du/dw (_MG_SPREAD): a 2-D
grid is halved while every axis is even and the level has more than 16^2
cells (128^2 and 64^2 down to 16^2, 48^2 to 12^2, 32^2 to 16^2) unless
du/dw varies by at most a factor 4 over the active cells; an odd or 1-D
grid, a grid of at most 16^2 cells, and any such correction keep one level,
on which the V-cycle is that scaled cosine inverse.  Measured with one BLAS
thread on the bounded-side legs of the benchmark (the 128^2 bump at m = 2
and 1.5 to T = 1, 77 and 83 steps): with every correction on the V-cycle
they take
1.8 and 2.1 CG iterations per correction, against 11.4 and 6.6 with the
scaled cosine inverse alone, and a two-grid cycle (coarsest 64^2) 3.3 and
2.9.  But once the bump has spread out the cosine inverse is nearly exact,
and a correction on it leaves Newton less to do.  Over the spread bound
(corrections and CG iterations of the two legs, the corrections that took
one level, and the median wall time of both legs over 3 rounds):

    bound         corrections  CG iterations  one level   wall
    0 (V-cycle)   405 + 347    728 + 720        0 +   0   2.13 s
    2             330 + 276    541 + 481       71 + 116   1.31 s
    4             330 + 276    545 + 485       83 + 129   1.25 s
    16            330 + 276    547 + 488       89 + 137   1.29 s
    100           330 + 276    554 + 501       92 + 144   1.45 s
    1000          330 + 382    556 + 2520      94 + 382   2.51 s
    inf (cosine)  441 + 382    5024 + 2520    441 + 382   4.68 s

Any bound from 2 to 100 does the same work; at 1000 every correction of
the m = 1.5 leg, whose du/dw = (u+sigma)^(-1/2)/1.5 spans at most about
970, falls under it, peaked ones too.

The same rule serves the 32^2-64^2 grids of a sweep.  Measured on the six
m != 1 points of the benchmark's phase sweep ((m, q) in {0.75, 1.5, 2} x
{0.5, 1}, the 1.5 x 8 pi bump to T = 0.3 or 15x), run one after another,
with the grid's levels or with one level only (their corrections and CG
iterations, and the median wall time of the six over 5 alternated
rounds):

    grid    levels  corrections  CG iterations  wall
    32^2    1       2123         6633           0.54 s
            2       1757         2930           0.55 s
    48^2    1       1860         7873           0.90 s
            3       1420         2495           0.79 s
    64^2    1       1940         9900           1.85 s
            3       1530         2966           1.11 s

At 32^2 the six are about even: a cycle there costs about what the
iterations it saves did, and the (0.75, 1) point, which blows up, takes 160
steps to its threshold instead of 154.  The gain grows with the grid, and
per point it is least at m = 0.75: (0.75, 0.5) at 64^2 ran 6% faster in
these rounds and 13% slower in an earlier batch of 3.

The v-solve and the diffusion solve stop at the residual 2-norm
v_solve_tol * (1 + |rhs|); the CG solve of each m != 1 Newton correction
stops earlier, at an Eisenstat-Walker forcing term times the current Newton
residual (inexact Newton, see _StepWork.diffusion_update), and fails the run
after _MAX_CG_ITERS iterations.

Diffusion is unconditionally stable, so there is no h^2 cap.  The time step
is safety * min(chemotactic outflow bound, accuracy bound, dt_max).  The
outflow bound min_i u_i / out_rate_i keeps each cell's outgoing chemotactic
flux * dt within safety times its content (see _StepWork.dt_advection), and
the accuracy bound lets one step change sup u by at most the fraction
safety / (2 dim) at the pre-step rate.  At safety = 1, dt_max is a fixed
step wherever both bounds stay above it.

Every grid-sized array a step writes and then discards lives in its grid's
workspace (_Workspace: one per grid and thread, built at the grid's first
step there) and is written in place (out=), so a step allocates only the
two arrays of the next state, limited or not.  A workspace array stays
valid until the next step on that grid in that thread.  States never point
into a workspace and threads never share one, so concurrent runs stay
independent.  At 128^2 an array is 128 KiB, glibc's mmap threshold, so a
freed temporary would go back to the kernel and fault in again at its next
allocation.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import SimpleNamespace

import numpy as np

from .grid import Field, GridSpec, _FaceBuffer, _Laplacian, face_gradient_sup
from .model import InitialData, ModelParams


@dataclass(frozen=True, eq=False)
class SimState:
    u: Field
    v: Field
    t: float
    step: int


@dataclass(frozen=True)
class StepControl:
    safety: float = 0.4
    dt_min: float = 1e-12
    dt_max: float = 0.1
    v_solve_tol: float = 1e-10
    max_steps: int = 50_000_000

    def __post_init__(self):
        if not 0.0 < self.safety <= 1.0:
            raise ValueError(f"safety must be in (0, 1], got {self.safety}")
        if not self.dt_min > 0.0:
            raise ValueError(f"dt_min must be > 0, got {self.dt_min}")
        if self.dt_min > self.safety * self.dt_max:
            raise ValueError(f"dt_min {self.dt_min} exceeds safety * dt_max = "
                             f"{self.safety * self.dt_max:g}, so every step would collapse")
        if not self.v_solve_tol > 0.0:
            raise ValueError(f"v_solve_tol must be > 0, got {self.v_solve_tol}")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")


REACHED_T = "reached_T"
DT_COLLAPSED = "dt_collapsed"
NONFINITE = "nonfinite"
SUP_THRESHOLD = "sup_threshold"
MAX_STEPS = "max_steps"
WALL_BUDGET = "wall_budget"


@dataclass(frozen=True)
class StepOutcome:
    state: SimState
    dt_used: float
    v_solve_iters: int
    # Newton corrections of the diffusion solve and their inner CG
    # iterations, over every attempt
    newton_corrections: int = 0
    u_solve_iters: int = 0
    # DT_COLLAPSED or NONFINITE when the run must stop here, else None
    stop: str | None = None
    # sup |grad v| of the pre-step v, reused by run-level monitors when the
    # flux assembly already produced the gradients (nan otherwise)
    sup_grad_v: float = math.nan


def _power(x: np.ndarray, e: float, out: np.ndarray | None = None) -> np.ndarray:
    """x**e into `out` if given (x itself at e = 1; numpy's x ** 0.5 is sqrt)."""
    if e == 1.0:
        return x
    if e == 2.0:
        return np.multiply(x, x, out=out)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.sqrt(x, out=out) if e == 0.5 else np.power(x, e, out=out)


class _Workspace:
    """The arrays a step on the grid writes and discards (see the module
    docstring); _workspace keeps one per grid and thread."""

    def __init__(self, grid: GridSpec):
        self.grid = grid
        self.lap = _Laplacian(grid)
        # per axis: _upwind's face value and its two parts, the limiter's amounts
        self.flux = [[_FaceBuffer(grid, axis) for _ in range(4)] for axis in range(grid.dim)]
        (self.rate, self.out_rate, self.in_rate, self.uq, self.r, self.w, self.lw, self.res,
         self.tmp, self.rhs, self.d) = (np.empty(grid.cells) for _ in range(11))
        self.inverse = tuple(np.empty(grid.cells) for _ in range(3))
        # the CG vectors, which the limiter reuses once the solve has returned
        self.cg = tuple(np.empty(grid.cells) for _ in range(5))
        self.mask, self.limited, self.newly = (np.empty(grid.cells, bool) for _ in range(3))

    @cached_property
    def levels(self) -> list:
        """The V-cycle's levels, finest first, built at the first m != 1 step.
        A 2-D grid is halved while every axis is even and at least 6 and the
        level has more than _MG_COARSEST_CELLS cells (128^2 -> 16^2, 48^2 ->
        12^2, 32^2 -> 16^2); an odd or 1-D grid, or one of at most 16^2
        cells, keeps one level.  Each level is a grid, its Laplacian and
        arrays for a cycle's r, the smoother weights, scratch, and the scale
        and inverse eigenvalues of _scaled_inverse.  The coarse levels also
        hold their cycle's x, their d and restriction pairs; on the finest
        level these are the caller's out and d, and restriction writes only
        below it."""
        grids = [self.grid]
        if self.grid.dim == 2:
            # a GridSpec needs at least 3 cells per axis
            while (grids[-1].num_cells > _MG_COARSEST_CELLS
                   and all(n % 2 == 0 and n >= 6 for n in grids[-1].cells)):
                grids.append(GridSpec(dim=2, cells=tuple(n // 2 for n in grids[-1].cells),
                                      extent=self.grid.extent))
        levels = [SimpleNamespace(grid=g, lap=_Laplacian(g), x=np.empty(g.cells),
                                  d=np.empty(g.cells), pairs=np.empty(2 * g.num_cells))
                  for g in grids[1:]]
        levels.insert(0, SimpleNamespace(grid=self.grid, lap=self.lap))
        for lv in levels:
            for k in ("r", "weights", "res", "tmp", "scale", "inv_denom"):
                setattr(lv, k, np.empty(lv.grid.cells))
        return levels


_local = threading.local()


def _workspace(grid: GridSpec) -> _Workspace:
    """The grid's workspace in this thread: threads never share one."""
    spaces = _local.__dict__.setdefault("spaces", {})
    if grid not in spaces:
        spaces[grid] = _Workspace(grid)
    return spaces[grid]


def _cg(apply_A, rhs: np.ndarray, tol: float, max_iters: int,
        precond, vecs) -> tuple[np.ndarray, int]:
    """Preconditioned conjugate gradients for an SPD operator, from zero.

    Stops once the residual 2-norm is at most tol.  precond(r, out) writes a
    symmetric positive semidefinite approximate inverse applied to r into
    out; unknowns it maps to zero stay zero (apply_A must then return zero
    in those rows).  A non-finite residual ends the iteration at once: the
    caller's finiteness probe reports it.  `vecs` holds the five vectors
    x, r, z, p, Ap.  Returns the solution (vecs[0]) and the iteration count.
    """
    x, r, z, p, Ap = vecs
    x.fill(0.0)
    np.copyto(r, rhs)
    rr = float(np.vdot(r, r))
    iters = 0
    if not math.sqrt(rr) > tol:  # converged, or nan
        return x, iters
    precond(r, z)
    rz = float(np.vdot(r, z))
    np.copyto(p, z)
    while True:
        apply_A(p, Ap)
        alpha = rz / float(np.vdot(p, Ap))
        x += np.multiply(p, alpha, out=z)  # z is free until the next precond
        r -= np.multiply(Ap, alpha, out=z)
        rr = float(np.vdot(r, r))
        iters += 1
        if not math.sqrt(rr) > tol:
            return x, iters
        if iters >= max_iters:
            raise RuntimeError(
                f"conjugate gradients failed to converge in {iters} iterations; "
                f"residual {math.sqrt(rr):.3e}, tolerance {tol:.3e}")
        precond(r, z)
        rz_new = float(np.vdot(r, z))
        p *= rz_new / rz
        p += z
        rz = rz_new


@lru_cache(maxsize=None)
def _cosine_basis(n: int) -> np.ndarray:
    """Orthonormal DCT-II matrix: its columns are the eigenvectors of the
    cell-centred Neumann second difference on n cells, with eigenvalues
    -4 sin^2(pi k / (2n)) / h^2."""
    j = np.arange(n) + 0.5
    k = np.arange(n)
    C = np.cos(np.pi * np.outer(j, k) / n) * math.sqrt(2.0 / n)
    C[:, 0] = math.sqrt(1.0 / n)
    C.setflags(write=False)
    return C


@lru_cache(maxsize=None)
def _sin2(n: int) -> np.ndarray:
    """sin^2(pi k / (2n)), k = 0..n-1: the Neumann eigenvalue factors."""
    s2 = np.sin(np.pi * np.arange(n) / (2 * n)) ** 2
    s2.setflags(write=False)
    return s2


class _ShiftedLaplaceInverse:
    """Exact inverse of (a - dt lap_h) for a constant a, by the cosine
    basis that diagonalises the Neumann Laplacian.  `bufs` holds three grid
    arrays, for its inverse eigenvalues and two intermediate products."""

    def __init__(self, grid, a: float, dt: float, bufs):
        self.C = [_cosine_basis(n) for n in grid.cells]
        lam = [(4.0 * dt / h ** 2) * _sin2(n) for n, h in zip(grid.cells, grid.spacing)]
        self.inv_denom, *self.prods = bufs
        denom = a + lam[0]
        if len(lam) == 2:
            denom = np.add(denom[:, None], lam[1], out=self.inv_denom)
        np.divide(1.0, denom, out=self.inv_denom)

    def __call__(self, r: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        p, q = self.prods
        if len(self.C) == 1:
            C = self.C[0]
            np.matmul(C.T, r, out=p)
            p *= self.inv_denom
            return np.matmul(C, p, out=out)
        C0, C1 = self.C
        np.matmul(np.matmul(C0.T, r, out=p), C1, out=q)
        q *= self.inv_denom
        return np.matmul(C0, np.matmul(q, C1.T, out=p), out=out)


# The cap on the Newton corrections of the diffusion solve and on the
# corrections of _solve_shifted, and the cap on the CG iterations of one
# m != 1 Newton correction
_MAX_CORRECTIONS = 30
_MAX_CG_ITERS = 20000


def _solve_shifted(ws: _Workspace, a: float, dt: float, rhs: np.ndarray, x: np.ndarray,
                   tol: float, floor: float | None):
    """Solve (a - dt lap_h) x = rhs for a constant a > 0, in place from x.

    Until the residual a x - rhs - dt lap_h x has 2-norm at most tol (or a
    non-finite one, for the caller's finiteness probe to report), correct x
    by the exact inverse (_ShiftedLaplaceInverse) of the residual and raise
    it to `floor`, if given.  One unchecked correction can leave the
    residual several times tol at dt >= 1; a second meets it.  Returns x,
    lap_h x as the accepting test computed it (in ws.lw) and the number of
    corrections, or None, None, _MAX_CORRECTIONS.
    """
    lx, res = ws.lw, ws.res
    inverse = _ShiftedLaplaceInverse(ws.grid, a, dt, ws.inverse)
    for k in range(_MAX_CORRECTIONS):
        ws.lap(x, lx)
        np.multiply(x, a, out=res)  # res = a x - rhs - dt lx, without temporaries
        res -= rhs
        res -= np.multiply(lx, dt, out=ws.tmp)
        if not float(np.linalg.norm(res)) > tol:  # converged, or non-finite
            return x, lx, k
        x -= inverse(res, out=res)
        if floor is not None:
            np.maximum(x, floor, out=x)
    return None, None, _MAX_CORRECTIONS


def _scaled_inverse(level: SimpleNamespace, d: np.ndarray, dt: float, active=None):
    """S (alpha - dt beta lap_h)^(-1) S for diag(d) - dt lap_h on the level,
    with S = diag(J)^(-1/2), J = d + dt lap_h.diag, and alpha, beta the mean
    entries of S diag(d) S and S^2 over the active cells: exact when d is
    uniform, Jacobi-like where it varies.  Cells outside the `active` mask
    (None: every cell) map to zero.  Applied as f(x, out); the level's own
    arrays are its scratch, as a coarsest level does not smooth."""
    grid, tmp = level.grid, level.weights
    inv_diag = np.divide(1.0, np.add(d, dt * level.lap.diag, out=tmp), out=level.scale)
    n_active = grid.num_cells
    if active is not None:
        inv_diag *= active
        n_active = max(np.count_nonzero(active), 1)
    shifted = _ShiftedLaplaceInverse(grid, float(np.multiply(d, inv_diag, out=tmp).sum())
                                     / n_active, dt * float(inv_diag.sum()) / n_active,
                                     (level.inv_denom, level.res, level.tmp))
    scale = np.sqrt(inv_diag, out=inv_diag)
    return lambda x, out: np.multiply(scale, shifted(np.multiply(scale, x, out=tmp), out), out=out)


# The V-cycle's depth: a 2-D grid is halved while every axis is even and
# the level has more than this many cells, so its coarsest level has at most
# this many (see _Workspace.levels and the module docstring).
_MG_COARSEST_CELLS = 16 * 16
# A Newton correction whose d varies by at most this factor over the active
# cells takes one level whatever the grid: the scaled cosine inverse, exact
# for uniform d.  Chosen from measurements at 128^2 (see the module docstring).
_MG_SPREAD = 4.0
_MG_OMEGA = 0.8     # damped-Jacobi weight
_MG_SWEEPS = 2      # Jacobi sweeps before and after each coarse correction


def _restrict(x: np.ndarray, out: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Mean of each coarse cell's 2x2 children into `out`, summed in pairs (in
    `pairs`) along the last axis and then the first, so mirror images round alike."""
    n0, n1 = x.shape
    x4 = x.reshape(n0 // 2, 2, n1 // 2, 2)
    pairs = np.add(x4[:, :, :, 0], x4[:, :, :, 1], out=pairs.reshape(n0 // 2, 2, n1 // 2))
    np.add(pairs[:, 0], pairs[:, 1], out=out)
    out *= 0.25
    return out


class _NewtonPreconditioner:
    """Symmetric multigrid V-cycle for J = diag(d) - dt lap_h, the Jacobian
    of an m != 1 Newton correction; cells outside the `active` mask (None:
    every cell) map to zero, as _cg requires of pinned cells.

    It takes the grid's levels (_Workspace.levels), or only the finest when
    max d <= _MG_SPREAD min d over the active cells.  Each level halves every
    axis of the one above; its d is the mean of the children's, its operator
    the rediscretised Laplacian.  A level smooths with _MG_SWEEPS
    damped-Jacobi sweeps (weight _MG_OMEGA, diagonal d + dt lap_h.diag)
    before and after the correction from the level below; residuals are
    restricted by the mean of the children and corrections prolonged by
    copying into them.  The coarsest level applies _scaled_inverse with no
    smoothing, so one level is exactly that scaled cosine inverse, exact for
    uniform d.  Restriction is a multiple of the transposed prolongation and
    the sweeps match on both sides, so the cycle is a symmetric positive
    definite operator.  It reads the caller's d and keeps the rest in
    workspace arrays: valid until the next one on the grid.
    """

    def __init__(self, grid: GridSpec, d: np.ndarray, dt: float, active=None):
        levels = _workspace(grid).levels
        if len(levels) > 1:
            # plain reductions unless a cell is pinned: at 64^2 the masked
            # ones cost about three times as much
            if active is None:
                d_max, d_min = d.max(), d.min()
            else:
                d_max = np.max(d, where=active, initial=0.0)
                d_min = np.min(d, where=active, initial=math.inf)
            if d_max <= _MG_SPREAD * d_min:
                levels = levels[:1]
        self.levels = levels
        self.dt, self.active, self.ds, self.weights = dt, active, [d], []
        for fine, coarse in zip(levels, levels[1:]):
            diag = np.add(self.ds[-1], dt * fine.lap.diag, out=fine.weights)
            self.weights.append(np.divide(_MG_OMEGA, diag, out=diag))
            self.ds.append(_restrict(self.ds[-1], coarse.d, coarse.pairs))
        self.coarse = _scaled_inverse(levels[-1], self.ds[-1], dt,
                                      active if len(levels) == 1 else None)

    def __call__(self, r: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        out = np.empty_like(r) if out is None else out
        if self.active is None:
            return self._cycle(0, r, out)
        self._cycle(0, np.multiply(r, self.active, out=self.levels[0].r), out)
        out *= self.active
        return out

    def _residual(self, level: int, x: np.ndarray, r: np.ndarray) -> np.ndarray:
        """r - J x on the level, in its scratch array."""
        lv = self.levels[level]
        lv.lap(x, lv.res)
        lv.res *= self.dt
        lv.res += r
        lv.res -= np.multiply(self.ds[level], x, out=lv.tmp)
        return lv.res

    def _sweep(self, level: int, x: np.ndarray, r: np.ndarray) -> None:
        res = self._residual(level, x, r)
        res *= self.weights[level]
        x += res

    def _cycle(self, level: int, r: np.ndarray, x: np.ndarray) -> np.ndarray:
        if level == len(self.weights):
            return self.coarse(r, x)
        np.multiply(self.weights[level], r, out=x)  # the first sweep, from zero
        for _ in range(_MG_SWEEPS - 1):
            self._sweep(level, x, r)
        c = self.levels[level + 1]
        e = self._cycle(level + 1, _restrict(self._residual(level, x, r), c.r, c.pairs), c.x)
        x.reshape(e.shape[0], 2, e.shape[1], 2)[...] += e[:, None, :, None]
        for _ in range(_MG_SWEEPS):
            self._sweep(level, x, r)
        return x


class _Potential:
    """The Kirchhoff potential w = (u+sigma)^m, its inverse and d u/d w.

    For m = 1 the potential is u itself (the constant sigma drops out of
    every difference).  With sigma = 0 and m > 1, du/dw is infinite at
    vacuum (w = 0): those cells are pinned during the Newton solve.  Each
    method writes to `out` when given; at m = 1, w and u return their input.
    """

    def __init__(self, params: ModelParams):
        self.m, self.sigma = params.m, params.sigma
        self.linear = params.m == 1.0
        self.floor = 0.0 if self.linear else self.sigma ** self.m

    def w(self, u: np.ndarray, out=None) -> np.ndarray:
        return u if self.linear else _power(np.add(u, self.sigma, out=out), self.m, out)

    def u(self, w: np.ndarray, out=None) -> np.ndarray:
        return w if self.linear else np.subtract(_power(w, 1 / self.m, out), self.sigma, out=out)

    def du_dw(self, w: np.ndarray, out=None) -> np.ndarray:
        """d u / d w for m != 1 (the m = 1 solve does not need it)."""
        with np.errstate(divide="ignore"):
            return np.multiply(_power(w, 1.0 / self.m - 1.0, out), 1.0 / self.m, out=out)


def _upwind(bufs, coef: np.ndarray, x: np.ndarray, mask: np.ndarray, scale: float,
            out: np.ndarray, inn: np.ndarray) -> None:
    """Donor-cell transfer on one axis of the flat face layout: face value
    F = coef x_donor (into bufs[0]), the donor being the -axis cell where
    coef > 0, else the +axis cell.  Its parts P = max(F, 0), leaving the
    -axis cell, and M = P - F, leaving the +axis one, times `scale` (into
    bufs[1:3]), add to out as they leave a cell and to inn as they enter
    one.  x and the bool `mask` are flat over the cells."""
    F, P, M = bufs[:3]
    st = F.st
    with np.errstate(invalid="ignore"):
        np.copyto(M.faces, x[st:])
        np.copyto(M.faces, x[:-st], where=np.greater(coef, 0.0, out=mask[st:]))
        np.multiply(M.faces, coef, out=F.faces)
        F.faces[F.wrap] = 0.0  # an infinite donor times a zero wrap coef
        np.maximum(F.faces, 0.0, out=P.faces)
        np.subtract(P.faces, F.faces, out=M.faces)  # max(-F, 0)
        P.faces *= scale
        M.faces *= scale
    out += P.plus
    out += M.minus
    inn += M.plus
    inn += P.minus


class _StepWork:
    """Chemotactic face fluxes, their outflow/inflow rates and the dt
    bounds at the pre-step state, plus the implicit diffusion solve.

    Face fluxes are kept in the flat face layout, whose boundary and wrap
    faces are 0.0.  The chemotactic bound is each cell's content over its
    outflow rate; the diffusive rate lap_h w(u) enters only the accuracy
    bound, since diffusion itself is implicit.  The rates and the results of
    chemotaxis_update and diffusion_update are workspace arrays (self.ws).
    """

    def __init__(self, u: Field, v: Field, params: ModelParams):
        grid = u.grid
        uv = u.values

        self.ws = ws = _workspace(grid)
        self.lap = ws.lap
        self.potential = _Potential(params)
        pot = self.potential.w(uv, ws.w)  # the diffusion solve's w overwrites it
        self.finite = math.isfinite(float(pot.sum()))
        rate = self.lap(pot, ws.rate)

        out_rate, in_rate = ws.out_rate, ws.in_rate
        out_rate[...] = in_rate[...] = 0.0
        sup_dv = math.nan
        if params.chemotaxis:
            sup_dv = 0.0
            uq = _power(uv, params.q, ws.uq).reshape(-1)
            vf, mask = v.values.reshape(-1), ws.mask.reshape(-1)
            for bufs, h in zip(ws.flux, grid.spacing):
                F = bufs[0]
                dv = F.diff(vf[F.st:], vf[:-F.st])
                dv *= 1.0 / h
                sup_dv = max(sup_dv, float(np.abs(dv, out=bufs[1].faces).max()))
                # the donor-cell flux u_donor^q dv
                _upwind(bufs, dv, uq, mask, 1.0 / h, out_rate, in_rate)
        rate += in_rate
        rate -= out_rate

        self.grid, self.u, self.out_rate, self.in_rate = grid, u, out_rate, in_rate
        self.sup_grad_v = sup_dv
        self.rate_max = float(np.abs(rate, out=rate).max()) if self.finite else math.inf

    def dt_advection(self) -> float:
        """min over emitting cells of u_i / out_rate_i: the largest dt at
        which no cell's donor-cell outflow exceeds its content.

        It is never below the face-speed bound h_min / (2 dim max u_donor^(q-1)
        |dv|), which caps every outgoing face of a cell and so over-counts
        a cell that emits through fewer than 2 dim faces, or through flatter
        ones.
        """
        self.ws.rate.fill(math.inf)  # free once rate_max is taken
        return float(np.divide(self.u.values, self.out_rate, out=self.ws.rate,
                               where=np.greater(self.out_rate, 0.0, out=self.ws.mask)).min())

    def dt_accuracy(self) -> float:
        """sup u / (2 dim sup |du/dt|), the rate being the full explicit
        right-hand side lap_h w(u) - div F_chem at the pre-step state.

        Backward-Euler diffusion is stable at any dt, so this bound is what
        keeps the step accurate: to first order, one step changes sup u by
        at most the fraction safety / (2 dim), the 2 dim share of the other
        bounds.
        """
        if self.rate_max == 0.0:
            return math.inf
        return self.u.max() / (2.0 * self.grid.dim * self.rate_max)

    def dt(self, ctrl: StepControl) -> float:
        return ctrl.safety * min(self.dt_advection(), self.dt_accuracy(), ctrl.dt_max)

    def chemotaxis_update(self, dt: float) -> np.ndarray:
        """Conservative explicit chemotaxis update: outgoing mass is removed,
        then incoming mass is added.

        At a dt within the outflow bound the outgoing part is at most safety
        times the content, so the clip at zero only removes rounding residue
        (about 1e-17 when safety = 1, at the cell that sets the bound); below
        safety = 1 every cell keeps at least (1 - safety) u and the clip
        never acts.
        """
        r = np.multiply(self.out_rate, dt, out=self.ws.r)
        np.maximum(np.subtract(self.u.values, r, out=r), 0.0, out=r)
        return np.add(r, np.multiply(self.in_rate, dt, out=self.ws.tmp), out=r)

    def flux_update(self, r: np.ndarray, w: np.ndarray, lw: np.ndarray,
                    dt: float) -> np.ndarray:
        """u1 = r + dt lap_h w in flux form, lw being lap_h w as the solve
        computed it: every face moves the amount dt (w_L - w_R)/h^2 from one
        cell to its neighbour, so the mass of u1 equals that of r up to
        rounding.

        The solve's error is absolute, so a cell whose exact value is below
        it (a far tail) can come out negative.  Such cells are limited: each
        of their outgoing face amounts is scaled so that together they take
        at most half the cell's content r, whatever it receives.  A cell
        turned negative by a neighbour's smaller inflow joins the limited
        set on the next pass; limited cells stay nonnegative, so the passes
        end.  Mass stays exact because a scaled amount still leaves one cell
        and enters the other.
        """
        ws = self.ws
        u1 = np.add(r, np.multiply(lw, dt, out=ws.tmp))
        if not float(u1.min()) < 0.0:  # nonnegative, or non-finite
            return u1
        outflow, cap, theta, inflow, acc = ws.cg  # free once the solve has returned
        limited, newly = ws.limited, ws.newly
        wf, theta_f, mask = w.reshape(-1), theta.reshape(-1), ws.mask.reshape(-1)
        outflow[...] = inflow[...] = 0.0
        theta.fill(1.0)
        for bufs, h in zip(ws.flux, self.grid.spacing):
            # amounts dt (w_L - w_R)/h^2, leaving the -axis cell where positive;
            # at theta = 1 they give each cell's outflow (inflow is scratch here)
            A = bufs[3]
            A.diff(wf[:-A.st], wf[A.st:])
            A.faces *= dt / h ** 2
            _upwind(bufs, A.faces, theta_f, mask, 1.0, outflow, inflow)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.clip(np.divide(np.multiply(r, 0.5, out=cap), outflow, out=cap), 0.0, 1.0, out=cap)
        np.copyto(cap, 1.0, where=np.logical_not(np.greater(outflow, 0.0, out=newly), out=newly))
        limited.fill(False)
        while True:
            np.copyto(np.less(u1, 0.0, out=newly), False, where=limited)
            if not newly.any():
                return u1
            limited |= newly
            theta.fill(1.0)
            np.copyto(theta, cap, where=limited)
            # outgoing amounts summed from -r: inflow - acc = (r - outgoing) + inflow
            np.negative(r, out=acc)
            inflow.fill(0.0)
            for bufs in ws.flux:
                _upwind(bufs, bufs[3].faces, theta_f, mask, 1.0, acc, inflow)
            np.subtract(inflow, acc, out=u1)

    def diffusion_update(self, r: np.ndarray, dt: float, ctrl: StepControl
                         ) -> tuple[np.ndarray | None, np.ndarray | None, int, int]:
        """Potential w of the backward-Euler diffusion u1 - dt lap_h w(u1) = r
        from w(r), with lap_h w as the last residual test computed it, the
        number of corrections and of their inner CG iterations; w and lap_h w
        are None if the solve has not converged after _MAX_CORRECTIONS
        corrections.

        The solve stops once the residual 2-norm over the unpinned cells is
        at most tol = v_solve_tol * (1 + |r|), and w is kept at or above w(0)
        after each correction.  At m = 1 the operator I - dt lap_h has
        constant coefficients and _solve_shifted solves it, with no CG.
        Otherwise Newton correction k solves (diag(du/dw) - dt lap_h) dw =
        -res, which is symmetric positive definite, by CG preconditioned with
        the multigrid V-cycle _NewtonPreconditioner (inexact Newton).  Vacuum
        cells of a degenerate potential (sigma = 0, m > 1, where du/dw is
        infinite) are pinned at w = 0: they can receive mass in this step
        but emit none.  Correction k's CG stops at max(tol, eta_k |res_k|),
        with the Eisenstat-Walker forcing term (choice 2: eta_0 = 0.5,
        eta_k = 0.9 (|res_k| / |res_k-1|)^2, safeguarded by 0.9 eta_k-1^2
        once that exceeds 0.1, capped at 0.9), so early corrections are not
        solved past what their residual needs.
        """
        pot, lap, ws = self.potential, self.lap, self.ws
        tol = ctrl.v_solve_tol * (1.0 + float(np.linalg.norm(r)))
        if pot.linear:
            np.copyto(ws.w, r)
            return _solve_shifted(ws, 1.0, dt, r, ws.w, tol, pot.floor) + (0,)
        w, lw, res, d = pot.w(r, ws.w), ws.lw, ws.res, ws.d
        cg_iters = 0
        eta, prev_norm = 0.5, math.nan
        for k in range(_MAX_CORRECTIONS):
            lap(w, lw)
            np.subtract(pot.u(w, res), r, out=res)  # res = u(w) - r - dt lw
            res -= np.multiply(lw, dt, out=ws.tmp)
            pot.du_dw(w, d)
            active = np.isfinite(d, out=ws.mask)
            pinned = not active.all()
            if pinned:
                d[~active] = 0.0
                res[~active] = 0.0
            res_norm = float(np.linalg.norm(res))
            if not res_norm > tol:  # converged, or non-finite
                return w, lw, k, cg_iters
            if k:
                safeguard = 0.9 * eta * eta
                eta = 0.9 * (res_norm / prev_norm) ** 2
                if safeguard > 0.1:
                    eta = max(eta, safeguard)
                eta = min(eta, 0.9)
            prev_norm = res_norm

            def apply_J(x, out):
                lap(x, out)
                out *= -dt
                out += np.multiply(d, x, out=ws.tmp)
                if pinned:
                    out *= active
                return out

            P = _NewtonPreconditioner(self.grid, d, dt, active if pinned else None)
            dw, iters = _cg(apply_J, np.negative(res, out=res), max(tol, eta * res_norm),
                            _MAX_CG_ITERS, P, ws.cg)
            cg_iters += iters
            w += dw
            np.maximum(w, pot.floor, out=w)
        return None, None, _MAX_CORRECTIONS, cg_iters


def advance_v(v: Field, u: Field, dt: float, ctrl: StepControl) -> tuple[Field, int]:
    """Backward-Euler solve of (1 + dt) v_new - dt laplace v_new = v + dt u.

    _solve_shifted from the previous v, to residual 2-norm <= v_solve_tol *
    (1 + |rhs|).  At a steady state the previous v already solves the
    system and is returned as is (a correction would leave rounding of
    about 1e-11 in a constant state).  The exact solution of this M-matrix
    system is nonnegative for nonnegative inputs; in that case (and only
    then) each correction is projected onto [0, inf) to remove rounding
    undershoot.  Returns the new v and the number of corrections; raises
    RuntimeError if _MAX_CORRECTIONS do not converge.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    ws = _workspace(v.grid)
    rhs = np.add(v.values, np.multiply(u.values, dt, out=ws.rhs), out=ws.rhs)
    nonneg = float(v.values.min()) >= 0.0 and float(u.values.min()) >= 0.0
    tol = ctrl.v_solve_tol * (1.0 + float(np.linalg.norm(rhs)))
    x, _, corrections = _solve_shifted(ws, 1.0 + dt, dt, rhs,
                                       np.array(v.values, dtype=np.float64), tol,
                                       0.0 if nonneg else None)
    if x is None:
        raise RuntimeError(f"v-solve failed to converge in {corrections} corrections; "
                           f"tolerance {tol:.3e}")
    return Field._adopt(v.grid, x), corrections


def step(state: SimState, params: ModelParams, ctrl: StepControl,
         t_stop: float = math.inf) -> StepOutcome:
    """One split step: explicit chemotaxis, backward-Euler diffusion, then
    the v-solve driven by the pre-step u.

    The step lands exactly on t_stop when it would otherwise pass it.  Mass
    of u telescopes exactly and u stays nonnegative (see
    _StepWork.flux_update).  If the Newton solve does not converge the
    step is retried at half the dt; a dt below ctrl.dt_min stops with
    DT_COLLAPSED and a non-finite state with NONFINITE."""
    work = _StepWork(state.u, state.v, params)
    if not work.finite:
        return StepOutcome(state=state, dt_used=0.0, v_solve_iters=0, stop=NONFINITE)
    dt = work.dt(ctrl)
    corrections = u_iters = 0
    while True:
        if dt < ctrl.dt_min:
            return StepOutcome(state=state, dt_used=0.0, v_solve_iters=0,
                               newton_corrections=corrections, u_solve_iters=u_iters,
                               stop=DT_COLLAPSED)
        t_new = state.t + dt
        if t_new >= t_stop:
            dt, t_new = t_stop - state.t, t_stop
        r = work.chemotaxis_update(dt)
        w, lw, k, cg_iters = work.diffusion_update(r, dt, ctrl)
        corrections += k
        u_iters += cg_iters
        if w is not None:
            u_vals = work.flux_update(r, w, lw, dt)
            break
        dt *= 0.5

    u_new = Field._adopt(state.u.grid, u_vals)
    v_new, iters = advance_v(state.v, state.u, dt, ctrl)

    new_state = SimState(u=u_new, v=v_new, t=t_new, step=state.step + 1)
    # one-reduction finiteness probe: any nan/inf poisons the sum
    finite = math.isfinite(float(u_new.values.sum()) + float(v_new.values.sum()))
    return StepOutcome(state=new_state, dt_used=dt, v_solve_iters=iters,
                       newton_corrections=corrections, u_solve_iters=u_iters,
                       stop=None if finite else NONFINITE,
                       sup_grad_v=work.sup_grad_v)


@dataclass(eq=False)
class RunResult:
    records: list
    final_state: SimState
    termination: str
    sample_times: list[float]
    u_samples: list[np.ndarray]
    running_max_sup_u: float
    running_max_sup_grad_v: float
    comparison_violation: float
    steps: int
    # Newton corrections of the diffusion solves, their CG iterations, and
    # the corrections of the v-solves
    newton_corrections: int
    u_solve_iters: int
    v_solve_iters: int


def run(initial: InitialData, params: ModelParams, ctrl: StepControl,
        horizon: float, samples: int, *, sup_threshold_multiple: float,
        tracker=None, wall_clock_budget: float | None = None) -> RunResult:
    """Integrate from the initial data to time `horizon` or a stop reason.

    Diagnostics records are emitted at `samples` evenly spaced times
    (including t = 0 and the final state); the sampled u fields are kept
    for level-set post-processing.  Termination reasons: reached_T,
    dt_collapsed, nonfinite, sup_threshold (sup u above
    sup_threshold_multiple times its initial value), max_steps,
    wall_budget.

    Per-step monitors: running sup of u and of |grad v| (both cheap), plus
    the comparison check sup v <= max(sup v0, running sup u); the worst
    violation is reported rather than raised.
    """
    import time as _time

    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")

    state = SimState(u=initial.u0, v=initial.v0, t=0.0, step=0)
    sup_u0 = state.u.max()
    sup_cap = sup_threshold_multiple * sup_u0 if sup_u0 > 0 else math.inf
    targets = [horizon * j / (samples - 1) for j in range(1, samples - 1)] + [horizon]

    records = []
    sample_times = [0.0]
    u_samples = [np.array(state.u.values)]
    if tracker is not None:
        records.append(tracker.record(state))

    running_sup_u = sup_u0
    running_sup_gv = face_gradient_sup(state.v)
    sup_v0 = state.v.max()
    violation = 0.0
    corrections = u_iters = v_iters = 0
    start = _time.monotonic() if wall_clock_budget is not None else 0.0

    termination = None
    next_target = 0
    while True:
        if state.t >= horizon:
            termination = REACHED_T
            break
        if state.step >= ctrl.max_steps:
            termination = MAX_STEPS
            break
        if wall_clock_budget is not None and _time.monotonic() - start > wall_clock_budget:
            termination = WALL_BUDGET
            break

        outcome = step(state, params, ctrl, t_stop=targets[next_target])
        corrections += outcome.newton_corrections
        u_iters += outcome.u_solve_iters
        v_iters += outcome.v_solve_iters
        if outcome.stop is not None:
            termination = outcome.stop
            break
        state = outcome.state

        sup_u = state.u.max()
        running_sup_u = max(running_sup_u, sup_u)
        # pre-step gradients come free with the fluxes; the final state's
        # gradient is folded in after the loop
        gv = outcome.sup_grad_v
        running_sup_gv = max(running_sup_gv,
                             gv if not math.isnan(gv) else face_gradient_sup(state.v))
        violation = max(violation, state.v.max() - max(sup_v0, running_sup_u))

        if state.t >= targets[next_target]:
            next_target += 1
            sample_times.append(state.t)
            u_samples.append(np.array(state.u.values))
            if tracker is not None:
                records.append(tracker.record(state))

        if sup_u > sup_cap:
            termination = SUP_THRESHOLD
            break

    running_sup_gv = max(running_sup_gv, face_gradient_sup(state.v))
    if sample_times[-1] != state.t:
        sample_times.append(state.t)
        u_samples.append(np.array(state.u.values))
        if tracker is not None:
            records.append(tracker.record(state))

    return RunResult(records=records, final_state=state, termination=termination,
                     sample_times=sample_times, u_samples=u_samples,
                     running_max_sup_u=running_sup_u,
                     running_max_sup_grad_v=running_sup_gv,
                     comparison_violation=violation, steps=state.step,
                     newton_corrections=corrections, u_solve_iters=u_iters,
                     v_solve_iters=v_iters)

