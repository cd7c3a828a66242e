"""Built-in source distributions and their tail certificates.

Two kinds of handle are exposed.  IntegerDistribution models laws on the
positive integers (pmf, survival function, exact inverse-CDF sampler).
MonotonePdf models laws with a non-increasing density on [0, 1] or [0, inf)
(pdf, cdf, inverse cdf, density value at zero).  A handle may carry a
TailParams certificate asserting P(X > x) <= c * x**-lam (power kind) or
P(X > x) <= c * exp(-lam * x) (exponential kind); certificates feed the
closed-form length bounds and can be spot-checked with validate_tail.
zipf's zeta is a port of Cephes in Python floats: the module needs numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .rng import RandomSource

__all__ = [
    "TailParams",
    "IntegerDistribution",
    "MonotonePdf",
    "geometric",
    "zipf",
    "triangular",
    "exponential",
    "pareto_flat",
    "builtin",
    "parse_spec",
    "validate_tail",
]


@dataclass(frozen=True)
class TailParams:
    """Certificate of a tail bound: kind 'power' or 'exponential'."""

    c: float
    lam: float
    kind: str

    def __post_init__(self):
        if self.kind not in ("power", "exponential"):
            raise ValueError(f"unknown tail kind {self.kind!r}")
        if not 1.0 < self.c < math.inf:
            raise ValueError(f"tail constant c must be finite and exceed 1, got {self.c:g}")
        low = 1.0 if self.kind == "power" else 0.0
        if not low < self.lam < math.inf:
            raise ValueError(f"{self.kind} tail needs a finite lambda > {low}")

    def bound(self, x):
        if self.kind == "power":
            return self.c * np.asarray(x, dtype=float) ** -self.lam
        return self.c * np.exp(-self.lam * np.asarray(x, dtype=float))


class IntegerDistribution:
    """A law on {1, 2, ...} with an exact sampler."""

    support = "int"

    def __init__(self, name: str, pmf, tail, sampler, tail_params: TailParams | None = None):
        self.name = name
        self._pmf = pmf
        self._tail = tail
        self._sampler = sampler
        self.tail_params = tail_params

    def pmf(self, x):
        out = self._pmf(np.asarray(x))
        return out if isinstance(x, np.ndarray) else float(out)

    def tail(self, x):
        """Survival function P(X > x)."""
        out = self._tail(np.asarray(x))
        return out if isinstance(x, np.ndarray) else float(out)

    def sample(self, rng: RandomSource, size: int) -> np.ndarray:
        if size < 0:
            raise ValueError("size must be >= 0")
        out = self._sampler(rng, size)
        return np.asarray(out, dtype=np.int64)

    def __repr__(self) -> str:
        return f"IntegerDistribution({self.name!r})"


class MonotonePdf:
    """A law with non-increasing density on [0, 1] ('unit') or [0, inf) ('halfline')."""

    def __init__(self, name, support, pdf, cdf, cdf_inverse, f0,
                 tail=None, tail_params: TailParams | None = None, params: dict | None = None):
        if support not in ("unit", "halfline"):
            raise ValueError(f"unknown support {support!r}")
        self.name = name
        self.support = support
        self._pdf = pdf
        self._cdf = cdf
        self._cdf_inverse = cdf_inverse
        self.f0 = float(f0)
        self._tail = tail
        self.tail_params = tail_params
        self.params = dict(params or {})

    def pdf(self, x):
        out = self._pdf(np.asarray(x, dtype=float))
        return out if isinstance(x, np.ndarray) else float(out)

    def cdf(self, x):
        out = self._cdf(np.asarray(x, dtype=float))
        return out if isinstance(x, np.ndarray) else float(out)

    def tail(self, x):
        """Survival function, computed directly when a closed form is known."""
        if self._tail is not None:
            out = self._tail(np.asarray(x, dtype=float))
        else:
            out = 1.0 - self._cdf(np.asarray(x, dtype=float))
        return out if isinstance(x, np.ndarray) else float(out)

    def cdf_inverse(self, u):
        arr = np.asarray(u, dtype=float)
        if np.any(arr < 0.0) or np.any(arr >= 1.0):
            raise ValueError("cdf_inverse is defined on [0, 1)")
        out = self._cdf_inverse(arr)
        return out if isinstance(u, np.ndarray) else float(out)

    def sample(self, rng: RandomSource, size: int) -> np.ndarray:
        if size < 0:
            raise ValueError("size must be >= 0")
        return np.asarray(self._cdf_inverse(rng.gen.random(size)), dtype=float)

    def __repr__(self) -> str:
        return f"MonotonePdf({self.name!r}, support={self.support!r})"


def geometric(p: float) -> IntegerDistribution:
    """Number of Bernoulli(p) trials up to and including the first success."""
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError("geometric needs 0 < p < 1")
    log_q = math.log1p(-p)

    def pmf(x):
        x = np.asarray(x)
        valid = (x >= 1) & (x == np.floor(x))
        with np.errstate(invalid="ignore"):
            out = np.where(valid, p * np.exp((np.asarray(x, float) - 1.0) * log_q), 0.0)
        return out

    def tail(x):
        x = np.floor(np.asarray(x, dtype=float))
        return np.where(x < 0, 1.0, np.exp(np.maximum(x, 0.0) * log_q))

    def sampler(rng, size):
        x = np.floor(np.log1p(-rng.gen.random(size)) / log_q)
        if not x.max(initial=0.0) < 2.0**63:  # x + 1 would pass 2**63 - 1
            raise ValueError(f"geometric(p={p:g}) drew a value above 2**63 - 1")
        return x.astype(np.int64) + 1

    cert = TailParams(c=1.5, lam=-log_q, kind="exponential")
    return IntegerDistribution(f"geometric(p={p:g})", pmf, tail, sampler, cert)


# Cephes zeta.c: (2k)! / B_2k, the Euler-Maclaurin expansion coefficients
_ZETA_A = (12.0, -720.0, 30240.0, -1209600.0, 47900160.0, -1.8924375803183791606e9,
           7.47242496e10, -2.950130727918164224e12, 1.1646782814350067249e14,
           -4.5979787224074726105e15, 1.8152105401943546773e17, -7.1661652561756670113e18)
_MACHEP = 2.0**-53


def _hurwitz_zeta(x: float, q: float) -> float:
    """Sum over k >= 0 of (k + q)**-x, x > 1, q > 0: Cephes zeta(x, q), which
    scipy.special.zeta calls, ported line for line to Python floats.  Their **
    is libm's pow, so the results are scipy's bit for bit; numpy's SIMD pow is
    not.  The exit tests skip s == 0, where C's 0/0 is a NaN that fails them."""
    if x <= 1.0 or q <= 0.0:
        raise ValueError("the Hurwitz zeta here needs x > 1 and q > 0")
    if q > 1e8:  # asymptotic expansion, DLMF 25.11.43
        return (1 / (x - 1) + 1 / (2 * q)) * q ** (1 - x)
    s, a, i, b = q**-x, q, 0, 0.0
    while i < 9 or a <= 9.0:
        i += 1
        a += 1.0
        b = a**-x
        s += b
        if s != 0.0 and abs(b / s) < _MACHEP:
            return s
    w = a
    s += b * w / (x - 1.0)
    s -= 0.5 * b
    a, k = 1.0, 0.0
    for coeff in _ZETA_A:
        a *= x + k
        b /= w
        t = a * b / coeff
        s = s + t
        if s != 0.0 and abs(t / s) < _MACHEP:
            return s
        k += 1.0
        a *= x + k
        b /= w
        k += 1.0
    return s


def zipf(s: float) -> IntegerDistribution:
    """Power law pmf(x) = x**-s / zeta(s) on the positive integers."""
    s = float(s)
    if not 2.0 < s < math.inf:
        raise ValueError("zipf needs a finite s > 2 so that a power certificate with lambda > 1 exists")
    zetas = np.array([_hurwitz_zeta(s, q) for q in np.arange(1.0, 4098.0).tolist()])  # zeta(s, q), q <= 4097
    z_full = zetas[0]

    def pmf(x):
        x = np.asarray(x)
        valid = (x >= 1) & (x == np.floor(x))
        xf = np.where(valid, np.asarray(x, float), 1.0)
        return np.where(valid, xf ** -s / z_full, 0.0)

    def tail(x):
        # P(X > x) = zeta(s, q) / zeta(s) with q = floor(x) + 1, looked up in zetas while q <= 4097
        q = np.maximum(np.floor(np.asarray(x, dtype=float)), 0.0).ravel() + 1.0
        far = ~(q <= zetas.size)  # NaN among them
        z = zetas[np.where(far, 1.0, q).astype(np.int64) - 1]
        z[far] = [_hurwitz_zeta(s, v) for v in q[far].tolist()]
        return z.reshape(np.shape(x)) / z_full

    # Inverse CDF: the smallest x with P(X > x) <= 1 - u.  A table covers all
    # but ~tail(table_size) of the mass; stragglers fall back to bisection.
    table = 1.0 - zetas[1:] / z_full

    def sampler(rng, size):
        u = rng.gen.random(size)
        idx = np.searchsorted(table, u, side="left")
        out = idx.astype(np.int64) + 1
        for j in np.flatnonzero(idx == table.size):
            target = (1.0 - u[j]) * z_full
            lo, hi = table.size + 1, 2 * (table.size + 1)
            while _hurwitz_zeta(s, hi + 1.0) > target:
                lo, hi = hi + 1, 2 * hi
            while lo < hi:
                mid = (lo + hi) // 2
                if _hurwitz_zeta(s, mid + 1.0) <= target:
                    hi = mid
                else:
                    lo = mid + 1
            out[j] = lo
        return out

    cert = TailParams(c=1.5, lam=s - 1.0, kind="power")
    return IntegerDistribution(f"zipf(s={s:g})", pmf, tail, sampler, cert)


def triangular() -> MonotonePdf:
    """Density 2(1 - x) on the unit interval."""

    def pdf(x):
        return np.where((x >= 0.0) & (x <= 1.0), 2.0 - 2.0 * x, 0.0)

    def cdf(x):
        xc = np.clip(x, 0.0, 1.0)
        return xc * (2.0 - xc)

    def cdf_inverse(u):
        return 1.0 - np.sqrt(1.0 - u)

    return MonotonePdf("triangular", "unit", pdf, cdf, cdf_inverse, f0=2.0)


def exponential(lam: float = 1.0) -> MonotonePdf:
    """Exponential law with rate lam on the half line."""
    lam = float(lam)
    if not 0.0 < lam < math.inf:
        raise ValueError("exponential needs a finite lam > 0")

    def pdf(x):
        with np.errstate(over="ignore"):
            return np.where(x >= 0.0, lam * np.exp(-lam * np.maximum(x, 0.0)), 0.0)

    def cdf(x):
        return np.where(x >= 0.0, -np.expm1(-lam * np.maximum(x, 0.0)), 0.0)

    def tail(x):
        return np.where(x >= 0.0, np.exp(-lam * np.maximum(x, 0.0)), 1.0)

    def cdf_inverse(u):
        return -np.log1p(-u) / lam

    # Smallest admissible power certificate with exponent 2:
    # exp(-lam x) <= c x**-2 for all x > 0 iff c >= (2 / (e lam))**2.
    c = max(2.0, 2.0 * (2.0 / (math.e * lam)) * (2.0 / (math.e * lam)))  # inf on overflow
    cert = TailParams(c=c, lam=2.0, kind="power")
    return MonotonePdf(f"exp(lambda={lam:g})", "halfline", pdf, cdf, cdf_inverse,
                       f0=lam, tail=tail, tail_params=cert, params={"lam": lam})


def pareto_flat(c: float = 2.0, lam: float = 2.0) -> MonotonePdf:
    """Flat head then power tail: the least density with tail exactly c x**-lam.

    Constant equal to c * lam * t0**-(lam+1) on [0, t0] with
    t0 = (c (lam + 1))**(1/lam), then c * lam * x**-(lam+1) beyond.  Its own
    (c, lam) power certificate is tight: equality holds for every x >= t0.
    """
    c = float(c)
    lam = float(lam)
    if not (1.0 < c < math.inf and 1.0 < lam < math.inf):
        raise ValueError("pareto_flat needs finite c > 1 and lam > 1")
    t0 = (c * (lam + 1.0)) ** (1.0 / lam)
    f0 = c * lam * t0 ** -(lam + 1.0)
    if not 0.0 < f0 < math.inf:  # t0 or f0 overflowed
        raise ValueError(f"pareto_flat(c={c:g},lambda={lam:g}) has no finite flat head")
    head_mass = f0 * t0  # equals lam / (lam + 1)

    def pdf(x):
        xs = np.maximum(x, t0)
        return np.where(x < 0.0, 0.0, np.where(x <= t0, f0, c * lam * xs ** -(lam + 1.0)))

    def cdf(x):
        xc = np.maximum(x, 0.0)
        xs = np.maximum(x, t0)
        return np.where(xc <= t0, f0 * xc, 1.0 - c * xs ** -lam)

    def tail(x):
        xc = np.maximum(x, 0.0)
        xs = np.maximum(x, t0)
        return np.where(xc <= t0, 1.0 - f0 * xc, c * xs ** -lam)

    def cdf_inverse(u):
        safe = np.minimum(u, head_mass)
        return np.where(u <= head_mass, safe / f0, (c / np.maximum(1.0 - u, 1e-300)) ** (1.0 / lam))

    cert = TailParams(c=c, lam=lam, kind="power")
    return MonotonePdf(f"pareto_flat(c={c:g},lambda={lam:g})", "halfline", pdf, cdf, cdf_inverse,
                       f0=f0, tail=tail, tail_params=cert, params={"c": c, "lam": lam, "t0": t0})


# name: (factory, {spec key: factory keyword})
_BUILTINS: dict[str, tuple[Callable, dict[str, str]]] = {
    "geometric": (geometric, {"p": "p"}),
    "zipf": (zipf, {"s": "s"}),
    "triangular": (triangular, {}),
    "exp": (exponential, {"lambda": "lam"}),
    "pareto_flat": (pareto_flat, {"c": "c", "lambda": "lam"}),
}


def _builtin_entry(name: str) -> tuple[Callable, dict[str, str]]:
    try:
        return _BUILTINS[name]
    except KeyError:
        raise ValueError(f"unknown distribution {name!r}; choices: {sorted(_BUILTINS)}") from None


def builtin(name: str, **params):
    """Construct a built-in distribution by name."""
    return _builtin_entry(name)[0](**params)


def parse_spec(spec: str):
    """Parse 'name' or 'name:key=value,key=value' into a distribution handle.

    Examples: 'geometric:p=0.7', 'zipf:s=3', 'triangular', 'exp:lambda=1',
    'pareto_flat:c=2,lambda=2'.
    """
    name, _, rest = spec.partition(":")
    name = name.strip()
    factory, allowed = _builtin_entry(name)
    params = {}
    if rest.strip():
        for item in rest.split(","):
            key, eq, value = item.partition("=")
            key = key.strip()
            if not eq or key not in allowed:
                raise ValueError(f"bad parameter {item!r} for {name}; allowed: {sorted(allowed) or 'none'}")
            try:
                params[allowed[key]] = float(value)
            except ValueError:
                raise ValueError(f"parameter {key} must be a number, got {value!r}") from None
    return factory(**params)


def validate_tail(dist, c: float, lam: float, kind: str, grid) -> bool:
    """True iff P(X > x) <= the stated bound at every grid point.

    A relative slack of 1e-12 absorbs roundoff when the bound is tight.
    """
    cert = TailParams(c=c, lam=lam, kind=kind)
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("grid must be nonempty")
    if kind == "power" and np.any(grid <= 0.0):
        raise ValueError("power bounds are checked at x > 0 only")
    surv = np.asarray(dist.tail(grid), dtype=float)
    bound = cert.bound(grid)
    return bool(np.all(surv <= bound * (1.0 + 1e-12) + 1e-300))
