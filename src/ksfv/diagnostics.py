"""Per-sample diagnostics and level-set truncation ladders.

Tracks every estimate-relevant scalar along a run: conserved mass, L^p
norms, sup norms of u, v and grad v, the energy integral of u^(s+1), the
running space-time integral of |grad u^((m+s)/2)|^2, and two empirical
estimate ratios whose boundedness proxies the a-priori bounds (their
constants are not computable, so only bounded-ratio monitoring is
meaningful).

Space-time integrals use piecewise-constant-in-time quadrature at the
sample times, not at every step; sup-type monitors are updated at every
record call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import (Field, face_gradient_sup, grad_square_integral, integrate, lp_norm,
                   second_difference_sup)
from .kernels import default_s, exponent_ms_qs, gamma_exponent
from .model import ModelParams
from .solver import SimState


# The deepest ladder level n: K - K / 2^(n+1) repeats the level before it at
# n = 52 for about half the K of a binade, and rounds to K from n = 53.
_MAX_LADDER_N = 51


@dataclass(frozen=True)
class DiagnosticsConfig:
    p_list: tuple[float, ...] = (1.0, 2.0, 4.0)
    ladder_n_max: int = 8
    ladder_k_value: float = 0.5   # the ladder's K, as a multiple of the run's peak sup u
    s: int | None = None          # None: smallest admissible integer
    p_fr1: float | None = None    # None: N + 2 (must exceed (N+2)/2)

    def __post_init__(self):
        if self.ladder_n_max < 0:
            raise ValueError(f"ladder_n_max must be >= 0, got {self.ladder_n_max}")
        if self.ladder_n_max > _MAX_LADDER_N:
            raise ValueError(f"ladder_n_max must be <= {_MAX_LADDER_N}, got {self.ladder_n_max}: "
                             "a deeper level can round to the one before it")
        if any(p < 1 for p in self.p_list):
            raise ValueError("every p in p_list must be >= 1")
        if len(set(self.p_list)) < len(self.p_list):  # one run.csv column per p
            raise ValueError(f"p_list must not repeat a value, got {list(self.p_list)}")
        if self.ladder_k_value <= 0:
            raise ValueError("ladder K value must be positive")


@dataclass(frozen=True)
class DiagnosticsRecord:
    t: float
    mass: float
    sup_u: float
    sup_v: float
    sup_grad_v: float
    lp_u: dict[float, float]
    energy_s: float
    grad_energy_running: float
    ratio_fr1: float
    ratio_s14: float


def analytic_exponents(params: ModelParams, config: DiagnosticsConfig, dim: int
                       ) -> tuple[int, int, float]:
    """The analytic dimension N = max(dim, 2) of a grid of dimension dim, and
    the exponents s and p_fr1, defaulting to the smallest admissible integer
    s and N + 2.

    Raises ValueError unless s > max(0, m - 2q) and p_fr1 > (N+2)/2.
    """
    N = max(dim, 2)
    s = config.s if config.s is not None else default_s(params.m, params.q, N)
    p_fr1 = config.p_fr1 if config.p_fr1 is not None else float(N + 2)
    if not s > max(0.0, params.m - 2.0 * params.q):
        raise ValueError(f"diagnostics.s={s} violates s > max(0, m - 2q) "
                         f"at m={params.m}, q={params.q}")
    if not p_fr1 > (N + 2) / 2.0:
        raise ValueError(f"diagnostics.p_fr1 must exceed (N+2)/2 = {(N + 2) / 2.0}, "
                         f"got {p_fr1}")
    return N, s, p_fr1


def _safe_ratio(num: float, den: float) -> float:
    if den == 0.0:
        return 0.0 if num == 0.0 else math.inf
    return num / den


class DiagnosticsTracker:
    """Accumulates running integrals between record calls.

    One tracker per run; `record` must be called with nondecreasing state
    times (the run loop guarantees this).
    """

    def __init__(self, params: ModelParams, config: DiagnosticsConfig, v0: Field):
        self.params = params
        self.config = config
        self.N, self.s, self.p_fr1 = analytic_exponents(params, config, v0.grid.dim)
        self.v_w1inf_0 = face_gradient_sup(v0) + lp_norm(v0, math.inf)
        self.gamma = None
        if params.m > params.q:
            self.gamma = gamma_exponent(self.s, params.m, params.q, self.N)

        self._last_t: float | None = None
        self._u2p_integral = 0.0       # integral of u^(2p) over space-time
        self._grad_energy = 0.0        # integral of |grad u^((m+s)/2)|^2
        self._sup_grad_v_running = 0.0
        self.sup_dd_v_max = 0.0        # curvature monitor, reported in metadata

    def record(self, state: SimState) -> DiagnosticsRecord:
        u, v = state.u, state.v
        m, s = self.params.m, self.s

        if self._last_t is not None and state.t > self._last_t:
            dt = state.t - self._last_t
            self._u2p_integral += self._last_u2p * dt
            self._grad_energy += self._last_grad_sq * dt

        u2p = float((u.values ** (2.0 * self.p_fr1)).sum() * u.grid.cell_volume)
        grad_sq = grad_square_integral(u.grid, u.values ** ((m + s) / 2.0))
        self._last_t = state.t
        self._last_u2p = u2p
        self._last_grad_sq = grad_sq

        sup_grad_v = face_gradient_sup(v)
        self._sup_grad_v_running = max(self._sup_grad_v_running, sup_grad_v)
        self.sup_dd_v_max = max(self.sup_dd_v_max, second_difference_sup(v))

        sup_u = lp_norm(u, math.inf)
        u_2p_norm = self._u2p_integral ** (1.0 / (2.0 * self.p_fr1)) if self._u2p_integral > 0 else 0.0
        ratio_fr1 = _safe_ratio(self._sup_grad_v_running, self.v_w1inf_0 + u_2p_norm)
        if self.gamma is None:
            ratio_s14 = math.nan
        else:
            ratio_s14 = _safe_ratio(sup_u, self._sup_grad_v_running ** self.gamma)

        return DiagnosticsRecord(
            t=state.t,
            mass=integrate(u),
            sup_u=sup_u,
            sup_v=lp_norm(v, math.inf),
            sup_grad_v=sup_grad_v,
            lp_u={p: lp_norm(u, p) for p in self.config.p_list},
            energy_s=float((u.values ** (s + 1.0)).sum() * u.grid.cell_volume),
            grad_energy_running=self._grad_energy,
            ratio_fr1=ratio_fr1,
            ratio_s14=ratio_s14,
        )


@dataclass(frozen=True)
class DeGiorgiLadder:
    K: float
    levels: tuple[float, ...]              # K_n = K - K / 2^(n+1)
    measures: tuple[float, ...]            # space-time measure of {u >= K_n}
    energies: tuple[float, ...]            # integral of ((u - K_n)^+)^(m_s)
    m_s: float

    def __post_init__(self):
        ks = self.levels
        if any(k2 <= k1 for k1, k2 in zip(ks, ks[1:])):
            raise ValueError("truncation levels must be strictly increasing")
        if ks and not (self.K / 2.0 <= ks[0] and ks[-1] <= self.K):
            raise ValueError("levels must lie in [K/2, K]")


def build_ladder(times: list[float], u_samples: list[np.ndarray], cell_volume: float,
                 K: float, n_max: int, m_s: float) -> DeGiorgiLadder:
    """Level-set measures and truncation energies on a sampled series.

    Quadrature is cell volume x left-endpoint time weights, matching the
    piecewise-constant-in-time convention used for the other space-time
    integrals; the final sample only closes the last interval.
    """
    if K <= 0:
        raise ValueError(f"K must be positive, got {K}")
    if m_s <= 1:
        raise ValueError(f"m_s must exceed 1, got {m_s}")
    if len(times) == 0 or len(u_samples) == 0:
        raise ValueError("empty series")
    if len(times) != len(u_samples):
        raise ValueError("times and samples must align")

    weights = [times[j + 1] - times[j] for j in range(len(times) - 1)]
    levels = tuple(K - K / 2.0 ** (n + 1) for n in range(n_max + 1))
    measures = []
    energies = []
    for kn in levels:
        meas = 0.0
        ener = 0.0
        for w, u in zip(weights, u_samples):
            if w <= 0:
                continue
            above = u >= kn
            meas += float(above.sum()) * cell_volume * w
            excess = np.maximum(u - kn, 0.0)
            ener += float((excess ** m_s).sum()) * cell_volume * w
        measures.append(meas)
        energies.append(ener)
    return DeGiorgiLadder(K=K, levels=levels, measures=tuple(measures),
                          energies=tuple(energies), m_s=m_s)


def ladder_for_run(times, u_samples, cell_volume, params: ModelParams,
                   config: DiagnosticsConfig, sup_u_overall: float) -> DeGiorgiLadder | None:
    """Ladder at K = ladder_k_value * sup_u_overall; None when the run never
    produced a positive sup (nothing to truncate).  `ksfv ladder --K`
    builds one at any other K."""
    N, s, _ = analytic_exponents(params, config, np.ndim(u_samples[0]))
    m_s, _ = exponent_ms_qs(s, params.m, params.q, N)
    K = config.ladder_k_value * sup_u_overall
    if K <= 0:
        return None
    return build_ladder(times, u_samples, cell_volume, K, config.ladder_n_max, m_s)
