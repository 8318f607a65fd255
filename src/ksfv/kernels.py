"""Closed-form iteration kernels and exponent formulas.

Three families of pure functions:

  * a superlinear recursion y_{n+1} = c b^n y_n^(1+alpha) with the explicit
    smallness threshold on y_0 that forces y_n -> 0,
  * an absorption bound for continuous h satisfying h <= eps h^(1+delta) + b,
    trapping h below the lower root of f(s) = eps s^(1+delta) - s + b,
  * the exponent bookkeeping (m_s, q_s, gamma, mu, ...) used by the
    level-set truncation estimates.

Everything here is double precision; tests carry their own high-precision
oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_DIVERGENCE_CAP = 1e100


def recursion_threshold(c: float, b: float, alpha: float) -> float:
    """Largest y_0 for which the saturated recursion is guaranteed to die:
    c^(-1/alpha) * b^(-1/alpha^2)."""
    if c <= 0 or alpha <= 0:
        raise ValueError(f"need c > 0 and alpha > 0, got c={c}, alpha={alpha}")
    if b <= 1:
        raise ValueError(f"need b > 1, got b={b}")
    return c ** (-1.0 / alpha) * b ** (-1.0 / (alpha * alpha))


@dataclass(frozen=True)
class RecursionParams:
    c: float
    b: float
    alpha: float
    y0: float

    def __post_init__(self):
        if self.c <= 0 or self.alpha <= 0:
            raise ValueError("c and alpha must be positive")
        if self.b <= 1:
            raise ValueError("b must exceed 1")
        if self.y0 < 0:
            raise ValueError("y0 must be nonnegative")


@dataclass(frozen=True)
class RecursionTrace:
    values: tuple[float, ...]
    diverged: bool


def iterate_recursion(params: RecursionParams, n_steps: int) -> RecursionTrace:
    """Iterate the extremal sequence y_{n+1} = c b^n y_n^(1+alpha).

    y0 = 0 is accepted as the degenerate limit (all zeros).  Growth past
    1e100 is reported as divergence and the trace is truncated there.
    """
    ys = [params.y0]
    y = params.y0
    for n in range(n_steps):
        y = params.c * params.b ** n * y ** (1.0 + params.alpha)
        if not math.isfinite(y) or y > _DIVERGENCE_CAP:
            return RecursionTrace(tuple(ys), diverged=True)
        ys.append(y)
    return RecursionTrace(tuple(ys), diverged=False)


@dataclass(frozen=True)
class AbsorptionParams:
    eps: float
    delta: float
    b: float

    def __post_init__(self):
        if self.eps <= 0 or self.delta <= 0 or self.b <= 0:
            raise ValueError("eps, delta, b must all be positive")


@dataclass(frozen=True)
class AbsorptionBound:
    s0: float
    condition_holds: bool
    f_at_s0: float
    roots: tuple[float, float] | None


def _absorption_f(p: AbsorptionParams, s: float) -> float:
    return p.eps * s ** (1.0 + p.delta) - s + p.b


def eps_condition_bound(delta: float, b: float) -> float:
    """Largest eps for which the trapping argument is guaranteed to work:
    delta^delta / ((b+delta)^delta (1+delta)^(1+delta))."""
    return delta ** delta / ((b + delta) ** delta * (1.0 + delta) ** (1.0 + delta))


def _bisect(f, lo: float, hi: float, tol: float, max_iter: int = 400) -> float:
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise ValueError("bisection bracket does not change sign")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if abs(fm) <= tol or (hi - lo) <= 1e-16 * max(1.0, abs(mid)):
            return mid
        if flo * fm <= 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def absorption_bound(params: AbsorptionParams) -> AbsorptionBound:
    """Minimizer s0 of f, the eps-smallness condition, and the roots of f.

    f is convex on [0, inf) with f(0) = b > 0 and minimum at
    s0 = (eps (1+delta))^(-1/delta), where f(s0) = b - delta /
    (eps^(1/delta) (1+delta)^((1+delta)/delta)).  When the condition holds,
    f(s0) <= -delta, so f has two roots s1 < s0 < s2 found by bisection
    (upper bracket doubled from s0 until f > 0).
    """
    eps, delta, b = params.eps, params.delta, params.b
    s0 = (eps * (1.0 + delta)) ** (-1.0 / delta)
    f_at_s0 = b - delta / (eps ** (1.0 / delta) * (1.0 + delta) ** ((1.0 + delta) / delta))
    condition = eps <= eps_condition_bound(delta, b)

    roots = None
    if _absorption_f(params, s0) < 0.0:
        tol = 1e-12 * (1.0 + b)
        f = lambda s: _absorption_f(params, s)
        s1 = _bisect(f, 0.0, s0, tol)
        hi = 2.0 * s0 if s0 > 0 else 1.0
        while f(hi) <= 0.0:
            hi *= 2.0
            if hi > 1e300:
                raise ValueError("no upper root bracket found")
        s2 = _bisect(f, s0, hi, tol)
        roots = (s1, s2)
    return AbsorptionBound(s0=s0, condition_holds=condition, f_at_s0=f_at_s0, roots=roots)


@dataclass(frozen=True)
class AbsorptionVerdict:
    premises_hold: bool
    failed_premise: str | None
    conclusion_holds: bool | None
    bound: AbsorptionBound


def absorption_check(h_samples: list[tuple[float, float]],
                     params: AbsorptionParams) -> AbsorptionVerdict:
    """Check the trapping premises on a piecewise-linear sample of h and,
    when the eps-condition holds, assert the conclusion h <= s1 <= s0.

    Premises: h(0) <= s0; eps h^(1+delta) + b - h >= 0 at every sample; and
    no linear segment crosses the open band (s1, s2) where f < 0 (a crossing
    means the continuous premise fails between samples).
    """
    if not h_samples:
        raise ValueError("empty sample list")
    taus = [t for t, _ in h_samples]
    if any(t1 >= t2 for t1, t2 in zip(taus, taus[1:])):
        raise ValueError("sample times must be strictly increasing")
    if any(h < 0 for _, h in h_samples):
        raise ValueError("h must be nonnegative")

    bound = absorption_bound(params)
    if h_samples[0][1] > bound.s0:
        return AbsorptionVerdict(False, "h(0) exceeds s0", None, bound)
    for _, h in h_samples:
        if _absorption_f(params, h) < 0.0:
            return AbsorptionVerdict(False, "f(h) negative at a sample", None, bound)
    if bound.roots is not None:
        s1, s2 = bound.roots
        for (_, h_a), (_, h_b) in zip(h_samples, h_samples[1:]):
            lo, hi = min(h_a, h_b), max(h_a, h_b)
            if lo <= s1 and hi >= s2:
                return AbsorptionVerdict(False, "segment crosses the forbidden band", None, bound)

    if not bound.condition_holds or bound.roots is None:
        return AbsorptionVerdict(True, None, None, bound)
    s1 = bound.roots[0]
    tol = 1e-9 * max(1.0, s1)
    ok = all(h <= s1 + tol for _, h in h_samples)
    return AbsorptionVerdict(True, None, ok, bound)


def exponent_ms_qs(s: float, m: float, q: float, N: int) -> tuple[float, float]:
    """Truncation-energy exponents:

        m_s = 2 (s+1)/N + m + s
        q_s = m_s - (2q - m + s)   [= 2 (s+1)/N + 2 (m - q)]

    q_s is evaluated in the cancellation-free arrangement on the right,
    which is algebraically identical.
    """
    if N < 2:
        raise ValueError(f"N must be >= 2, got {N}")
    if m <= 0 or q <= 0:
        raise ValueError("m and q must be positive")
    m_s = (s + 1.0) * 2.0 / N + m + s
    q_s = 2.0 * (s + 1.0) / N + 2.0 * (m - q)
    return m_s, q_s


def gamma_exponent(s: float, m: float, q: float, N: int) -> float:
    """Growth exponent tying sup u to the sup of |grad v|:

        gamma = ([ (s+1)(N+2) + N (m-1)^+ ] (m+s) + (s+1) N (m-q) (N+2))
                / ( (s+1)(m-q) [ (N+2)(s+1) + 2 N (m-q) ] )

    Defined for m > q; gamma(s) -> 1/(m-q) as s -> inf.
    """
    if m <= q:
        raise ValueError(f"gamma requires m > q, got m={m}, q={q}")
    m_pos = max(m - 1.0, 0.0)
    num = ((s + 1.0) * (N + 2.0) + N * m_pos) * (m + s) + (s + 1.0) * N * (m - q) * (N + 2.0)
    den = (s + 1.0) * (m - q) * ((N + 2.0) * (s + 1.0) + 2.0 * N * (m - q))
    return num / den


def h4_equivalence(m: float, q: float, N: int, s: float) -> tuple[bool, bool]:
    """(lhs, rhs) of the exponent inequality equivalence.

    lhs: 2 m_s < (N+2) q_s, evaluated at the given s.
    rhs: q < 1 and m > q + (q-1)/(N+1).

    lhs is independent of s: (N+2) q_s - 2 m_s = 2 [(N+1) m - (N+2) q + 1],
    so lhs holds exactly when m > q + (q-1)/(N+1); the q < 1 clause is a
    standing hypothesis reported in rhs but not folded into lhs.
    """
    m_s, q_s = exponent_ms_qs(s, m, q, N)
    lhs = 2.0 * m_s < (N + 2.0) * q_s
    rhs = q < 1.0 and m > q + (q - 1.0) / (N + 1.0)
    return lhs, rhs


def h4_bound_exponent(m: float, q: float, N: int) -> float:
    """Sup-bound exponent (N+2) / ((N+1) m - (N+2) q + 1).

    The denominator vanishes at m = q = 1 (the critical case, handled by a
    separate bound) and the exponent deteriorates to infinity toward that
    boundary; nonpositive denominators are rejected.
    """
    den = (N + 1.0) * m - (N + 2.0) * q + 1.0
    if den <= 0.0:
        raise ValueError(f"exponent undefined: (N+1)m - (N+2)q + 1 = {den} <= 0")
    return (N + 2.0) / den


def interpolation_mu(s: float, m: float, q: float) -> float:
    """Interpolation exponent
    mu = (1 - 2/(m+s)) / (2/(m+s) - 1/(2q - m + s)), valid for s > 3m - 4q
    (equivalently (m+s)/2 < 2q - m + s)."""
    if not (m + s) / 2.0 < 2.0 * q - m + s:
        raise ValueError(f"requires s > 3m - 4q, got s={s}, m={m}, q={q}")
    num = 1.0 - 2.0 / (m + s)
    den = 2.0 / (m + s) - 1.0 / (2.0 * q - m + s)
    return num / den


def default_s(m: float, q: float, N: int) -> int:
    """Smallest integer s used by the diagnostics: clears s > max(0, m-2q),
    s >= ((2q-m)(N-2) - Nm)/2, s > 3m - 4q, and s >= 3 (so s > 1 holds)."""
    candidates = [
        3.0,
        math.ceil(3.0 * m - 4.0 * q) + 1.0,
        math.ceil(((2.0 * q - m) * (N - 2.0) - N * m) / 2.0) + 1.0,
    ]
    s = int(max(candidates))
    while not (s > max(0.0, m - 2.0 * q)):
        s += 1
    return s


def _verdict(failures) -> dict:
    """A self-check entry from an iterator that yields one detail per
    failing trial: it stops at the first, so no later trial draws from the
    shared random stream."""
    detail = next(failures, "")
    return {"pass": not detail, "detail": detail}


def self_check(tuples: int = 200, seed: int = 0) -> dict:
    """Randomized self-verification of the kernel formulas.

    Returns a JSON-ready report; used by the command line `kernels`
    subcommand.  Smaller and faster than the full test suite, same checks.
    """
    import numpy as np

    rng = np.random.default_rng(seed)

    def recursion_decay():
        # Saturated recursion from the threshold obeys y_n = y0 b^(-n/alpha).
        # The marginal orbit amplifies rounding noise by (1+alpha) per step, so
        # doubles track it only over short horizons; long-horizon convergence is
        # checked strictly below the threshold, where the orbit is stable.
        for _ in range(tuples):
            c = rng.uniform(0.1, 10.0)
            b = rng.uniform(1.0 + 1e-6, 8.0)
            alpha = rng.uniform(0.2, 3.0)
            y0 = recursion_threshold(c, b, alpha)
            trace = iterate_recursion(RecursionParams(c, b, alpha, y0), 12)
            expected = y0 * b ** (-12.0 / alpha)
            if trace.diverged or not math.isclose(trace.values[-1], expected, rel_tol=1e-6):
                yield f"closed-form decay mismatch at c={c}, b={b}, alpha={alpha}"
            below = iterate_recursion(RecursionParams(c, b, alpha, 0.5 * y0), 200)
            if below.diverged or below.values[-1] > 1e-12 * (0.5 * y0):
                yield f"sub-threshold start failed to die at c={c}, b={b}, alpha={alpha}"

    def absorption_roots():
        # Absorption roots bracket s0 and f(s0) = -delta at the eps bound.
        for _ in range(tuples):
            delta = rng.uniform(0.1, 5.0)
            b = rng.uniform(0.1, 10.0)
            eps = eps_condition_bound(delta, b)
            bound = absorption_bound(AbsorptionParams(eps, delta, b))
            if not bound.condition_holds or bound.f_at_s0 > -delta + 1e-12:
                yield f"f(s0) too large at delta={delta}, b={b}"
            if bound.roots is None or not bound.roots[0] <= bound.s0 <= bound.roots[1]:
                yield f"roots fail to bracket s0 at delta={delta}, b={b}"

    def gamma_limit():
        # gamma(s) -> 1/(m-q).
        for gap in (0.25, 0.5, 1.0, 2.0):
            g = gamma_exponent(1e6, 1.0 + gap, 1.0, 3)
            if abs(g - 1.0 / gap) > 1e-3:
                yield f"gamma limit off by {abs(g - 1.0 / gap)} at m-q={gap}"

    def h4_equivalence_s_free():
        # lhs of the H4 equivalence matches the s-free inequality.
        for _ in range(tuples):
            m = rng.uniform(0.05, 4.0)
            q = rng.uniform(0.05, 4.0)
            N = int(rng.integers(2, 7))
            s = rng.uniform(0.01, 100.0)
            lhs, _ = h4_equivalence(m, q, N, s)
            if lhs != ((N + 1.0) * m - (N + 2.0) * q + 1.0 > 0.0):
                yield f"mismatch at m={m}, q={q}, N={N}, s={s}"

    def qs_identity():
        # Two arrangements of q_s agree.
        for _ in range(tuples):
            m = rng.uniform(0.05, 4.0)
            q = rng.uniform(0.05, m)
            N = int(rng.integers(2, 7))
            s = rng.uniform(1.0, 50.0)
            m_s, q_s = exponent_ms_qs(s, m, q, N)
            direct = m_s - (2.0 * q - m + s)
            if abs(direct - q_s) > 1e-13 * max(abs(q_s), 1.0):
                yield f"q_s arrangements disagree at m={m}, q={q}, N={N}, s={s}"

    # in this order: the checks share one random stream
    report = {check.__name__: _verdict(check())
              for check in (recursion_decay, absorption_roots, gamma_limit,
                            h4_equivalence_s_free, qs_identity)}
    report["all_pass"] = all(v["pass"] for v in report.values())
    return report
