"""Per-sample diagnostics and level-set truncation ladders.

Tracks every estimate-relevant scalar along a run: conserved mass, L^p
norms, sup norms of u, v and grad v, the energy integral of u^(s+1), the
running space-time integral of |grad u^((m+s)/2)|^2, and two empirical
estimate ratios whose boundedness proxies the a-priori bounds (their
constants are not computable, so only bounded-ratio monitoring is
meaningful); the second is kept as its natural log.

Space-time integrals use piecewise-constant-in-time quadrature at the
sample times, not at every step; sup-type monitors are updated at every
record call.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .grid import Field, face_gradient_sup, grad_square_integral, integrate, lp_norm, power_integral
from .kernels import default_s, exponent_ms_qs, gamma_exponent
from .model import ModelParams
from .solver import SimState


def ladder_levels(K: float, n_max: int) -> tuple[float, ...]:
    """The truncation levels K_n = K - K / 2^(n+1), n = 0..n_max, strictly
    increasing in [K/2, K].  The ladder's domain, stated once: raises
    ValueError unless K is finite and a normal double (for a subnormal K the
    levels round) and 0 <= n_max <= 51 (at n = 52 a level can repeat the one
    before it, and from n = 53 it rounds to K)."""
    if not sys.float_info.min <= K < math.inf:
        raise ValueError(f"ladder K must be finite and >= {sys.float_info.min!r}, "
                         f"the smallest normal double, got {K}")
    if not 0 <= n_max <= 51:
        raise ValueError(f"ladder n_max must be in [0, 51], got {n_max}")
    return tuple(K - K / 2.0 ** (n + 1) for n in range(n_max + 1))


@dataclass(frozen=True)
class DiagnosticsConfig:
    p_list: tuple[float, ...] = (1.0, 2.0, 4.0)
    ladder_n_max: int = 8
    ladder_k_value: float = 0.5   # the ladder's K, as a multiple of the run's peak sup u
    s: int | None = None          # None: smallest admissible integer
    p_fr1: float | None = None    # None: N + 2 (must exceed (N+2)/2)

    def __post_init__(self):
        ladder_levels(1.0, self.ladder_n_max)  # raises unless n_max is in the ladder's domain
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
    log_ratio_s14: float


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
    times (the run loop guarantees this).  No monitor raises or warns, and one
    is inf only beyond the double range; log_ratio_s14 is nan at m <= q.
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

    @np.errstate(over="ignore")
    def record(self, state: SimState) -> DiagnosticsRecord:
        u, v = state.u, state.v
        m, s = self.params.m, self.s

        if self._last_t is not None and state.t > self._last_t:
            dt = state.t - self._last_t
            self._u2p_integral += self._last_u2p * dt
            self._grad_energy += self._last_grad_sq * dt

        u2p = power_integral(u.values, 2.0 * self.p_fr1, u.grid.cell_volume)
        grad_sq = grad_square_integral(u.grid, u.values ** ((m + s) / 2.0))
        self._last_t = state.t
        self._last_u2p = u2p
        self._last_grad_sq = grad_sq

        sup_grad_v = face_gradient_sup(v)
        self._sup_grad_v_running = max(self._sup_grad_v_running, sup_grad_v)

        sup_u = lp_norm(u, math.inf)
        u_2p_norm = self._u2p_integral ** (1.0 / (2.0 * self.p_fr1))
        ratio_fr1 = _safe_ratio(self._sup_grad_v_running, self.v_w1inf_0 + u_2p_norm)
        if self.gamma is None:
            log_ratio_s14 = math.nan
        else:  # IEEE logs: ln 0 = -inf, so +inf while sup |grad v| is 0
            with np.errstate(divide="ignore", invalid="ignore"):
                log_ratio_s14 = float(np.log(sup_u) - self.gamma * np.log(self._sup_grad_v_running))

        return DiagnosticsRecord(
            t=state.t,
            mass=integrate(u),
            sup_u=sup_u,
            sup_v=lp_norm(v, math.inf),
            sup_grad_v=sup_grad_v,
            lp_u={p: lp_norm(u, p) for p in self.config.p_list},
            energy_s=power_integral(u.values, s + 1.0, u.grid.cell_volume),
            grad_energy_running=self._grad_energy,
            ratio_fr1=ratio_fr1,
            log_ratio_s14=log_ratio_s14,
        )


@dataclass(frozen=True)
class DeGiorgiLadder:
    K: float
    levels: tuple[float, ...]              # K_n = K - K / 2^(n+1)
    measures: tuple[float, ...]            # space-time measure of {u >= K_n}
    energies: tuple[float, ...]            # integral of ((u - K_n)^+)^(m_s)
    m_s: float


def build_ladder(times: list[float], u_samples: list[np.ndarray], cell_volume: float,
                 K: float, n_max: int, m_s: float) -> DeGiorgiLadder:
    """Level-set measures and truncation energies on a sampled series, at
    the levels `ladder_levels(K, n_max)`, which refuses a K or n_max outside
    the ladder's domain.

    Quadrature is cell volume x left-endpoint time weights, matching the
    piecewise-constant-in-time convention used for the other space-time
    integrals; the final sample only closes the last interval.
    """
    if m_s <= 1:
        raise ValueError(f"m_s must exceed 1, got {m_s}")
    if len(times) == 0 or len(u_samples) == 0:
        raise ValueError("empty series")
    if len(times) != len(u_samples):
        raise ValueError("times and samples must align")

    weights = [times[j + 1] - times[j] for j in range(len(times) - 1)]
    levels = ladder_levels(K, n_max)
    measures = []
    energies = []
    for kn in levels:
        meas = 0.0
        ener = 0.0
        for w, u in zip(weights, u_samples):
            if w <= 0:
                continue
            meas += float((u >= kn).sum()) * cell_volume * w
            ener += power_integral(np.maximum(u - kn, 0.0), m_s, cell_volume) * w
        measures.append(meas)
        energies.append(ener)
    return DeGiorgiLadder(K=K, levels=levels, measures=tuple(measures),
                          energies=tuple(energies), m_s=m_s)


def ladder_for_run(times, u_samples, cell_volume, params: ModelParams,
                   config: DiagnosticsConfig, sup_u_overall: float) -> DeGiorgiLadder | None:
    """Ladder at K = ladder_k_value * sup_u_overall and the config's n_max;
    None (a header-only ladder.csv) when K is outside the ladder's domain: no
    positive sup, or a K that overflows or is subnormal.  `ksfv ladder --K`
    builds one at any other K."""
    N, s, _ = analytic_exponents(params, config, np.ndim(u_samples[0]))
    m_s, _ = exponent_ms_qs(s, params.m, params.q, N)
    K = config.ladder_k_value * sup_u_overall
    try:
        ladder_levels(K, config.ladder_n_max)
    except ValueError:
        return None
    return build_ladder(times, u_samples, cell_volume, K, config.ladder_n_max, m_s)
