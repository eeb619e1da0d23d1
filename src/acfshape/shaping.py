"""Design of the in-band gains to suppress the deterministic ACF floor.

The expected ACF at lag k is affine in the gain vector g, so pushing its
squared magnitude down over a window of lags is a small convex program.
The designable part is the transition segment of g (the flat 0/1 ends are
pinned), under a fixed half-band sum, monotonicity, and the [0, 1] box.
Minimizing the summed floor (isl) is a constrained least-squares problem;
minimizing the worst lag (psl) is a minimax program.  Every such g still
yields a unit-energy Nyquist pulse, so the zero crossings at block lags
survive the redesign untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .acfstats import mean_acf
from .pulse import NyquistPulse, from_segment, rolloff_bin_count, rrc_spectrum
from .qpsolver import solve_box_qp, solve_minimax

__all__ = [
    "ShapingSpec",
    "ShapingResult",
    "sidelobe_lags",
    "sidelobe_maps",
    "region_metrics",
    "design_pulse",
]


@dataclass(frozen=True)
class ShapingSpec:
    """A gain-design problem: which lags to suppress and how to score them."""

    n: int
    l: int
    alpha: float
    region: np.ndarray
    objective: str = "psl"

    def __post_init__(self):
        region = np.unique(np.asarray(self.region, dtype=int))
        if region.size == 0:
            raise ValueError("sidelobe region is empty")
        if region.min() < 1 or region.max() > self.l * self.n - 1:
            raise ValueError(
                f"region lags must lie in [1, {self.l * self.n - 1}], "
                f"got [{region.min()}, {region.max()}]"
            )
        if self.objective not in ("isl", "psl"):
            raise ValueError(f"objective must be 'isl' or 'psl', got {self.objective!r}")
        object.__setattr__(self, "region", region)


@dataclass(frozen=True)
class ShapingResult:
    pulse: NyquistPulse
    spec: ShapingSpec
    value: float
    iterations: int
    gap: float
    constraint_violation: float
    converged: bool


def sidelobe_lags(n: int, l: int, lo_symbol: float, hi_symbol: float) -> np.ndarray:
    """Inclusive symbol-spaced interval converted to sample lags.

    The endpoints are checked as floats, so an infinite or huge one is
    refused before it is converted to an integer.
    """
    lo, hi = float(np.round(lo_symbol * l)), float(np.round(hi_symbol * l))
    if not 1 <= lo <= hi <= l * n - 1:
        raise ValueError(
            f"symbol interval [{lo_symbol}, {hi_symbol}] maps to sample lags "
            f"[{lo:.15g}, {hi:.15g}], outside [1, {l * n - 1}]"
        )
    return np.arange(int(lo), int(hi) + 1)


def sidelobe_maps(n: int, l: int, lags: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Affine maps (A, c) with |A g + c|^2 equal to the squared mean ACF.

    Row k comes from splitting the lag-combined gains into the part that
    scales g and the constant carried by the alias bins.  The columns are
    reversed to match the edge-to-carrier gain order that the assembled
    spectrum reads from.
    """
    lags = np.asarray(lags)
    # phases reduced to one turn in integers, so that block lags give exact
    # zero rows; the table is built in place, one array of its size at a time
    turns = np.outer(lags, np.arange(n - 1, -1, -1))
    turns %= l * n
    table = turns * (2j * np.pi / (l * n))
    np.exp(table, out=table)
    lam = np.exp(-2j * np.pi * (lags % l) / l)
    c = lam * table.sum(axis=1)
    table *= (1.0 - lam)[:, None]
    return table, c


def region_metrics(pulse: NyquistPulse, lags: np.ndarray) -> dict[str, float]:
    """Summed and peak squared mean ACF (acfstats.mean_acf) over a lag window."""
    floor = np.abs(mean_acf(pulse, lags)) ** 2
    return {"isl": float(np.sum(floor)), "psl": float(np.max(floor))}


def design_pulse(
    spec: ShapingSpec,
    *,
    tol: float | None = None,
    max_iter: int | None = None,
) -> ShapingResult:
    """Solve the gain design problem and wrap the result as a pulse.

    The transition segment h (width w from the roll-off budget) is
    h = cumsum(z) with z >= 0, nondecreasing and nonnegative by
    construction, under sum(h) = w/2 and h_last + s = 1 with a slack
    s >= 0.  isl is one exact active-set solve, psl Lawson's reweighting
    around it with an exchange-Newton finish, both from the brick-wall
    gains (a vertex of the feasible set); with w <= 1 the raised-cosine
    gains come back as they are.  tol (psl only) is the relative duality
    gap and max_iter caps the Lawson and Newton steps together (psl) or the
    active-set iterations (isl).
    """
    if max_iter is not None and max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if tol is not None and (spec.objective == "isl" or not 0 < tol < 1):
        raise ValueError(f"tol must be a psl relative gap in (0, 1) (isl is exact), got {tol}")
    n, l = spec.n, spec.l
    w = rolloff_bin_count(n, spec.alpha)
    if w <= 1:
        rrc = rrc_spectrum(n, l, spec.alpha)
        value = region_metrics(rrc, spec.region)[spec.objective]
        return ShapingResult(rrc, spec, value, 0, 0.0, 0.0, True)

    a_full, c_full = sidelobe_maps(n, l, spec.region)
    template = from_segment(n, l, np.zeros(w)).g
    seg = slice((n - w) // 2, (n + w) // 2)
    # over x = (z, s) the floor is |a x - b|^2 with h = cumsum(z): column i
    # of a sums the segment columns from i on
    a_z = np.cumsum(a_full[:, seg][:, ::-1], axis=1)[:, ::-1]
    a = np.hstack([a_z, np.zeros((len(spec.region), 1))])
    b = -(c_full + a_full @ template)
    e = np.vstack([np.append(np.arange(w, 0, -1), 0.0), np.ones(w + 1)])
    f = np.array([w / 2, 1.0])
    # the brick-wall gains: a vertex of {x >= 0, E x = f}, so that the first
    # faces are small and of full rank
    x0 = np.zeros(w + 1)
    x0[w // 2:(w + 1) // 2 + 1] = 1.0 if w % 2 == 0 else 0.5

    opts = {k: v for k, v in (("tol", tol), ("max_iter", max_iter)) if v is not None}
    if spec.objective == "isl":
        res = solve_box_qp(np.vstack([a.real, a.imag]), np.concatenate([b.real, b.imag]),
                           e, f, x0, **opts)
    else:
        res = solve_minimax(a, b, e, f, x0, **opts)
    # an isl solve that converged is exact; one cut short certifies nothing
    gap = res.gap if spec.objective == "psl" else 0.0 if res.converged else np.inf

    h = np.cumsum(res.x[:w])
    violation = max(float(h[-1]) - 1.0, abs(float(np.sum(h)) - w / 2), 0.0)
    pulse = from_segment(n, l, np.clip(h, 0.0, 1.0), name=f"designed-{spec.objective}",
                         alpha=w / n)
    value = region_metrics(pulse, spec.region)[spec.objective]
    return ShapingResult(pulse, spec, value, res.iterations, gap, violation, res.converged)
