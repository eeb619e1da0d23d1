"""Design of the in-band gains to suppress the deterministic ACF floor.

The expected ACF at lag k is affine in the gain vector g, so pushing its
squared magnitude down over a window of lags is a small convex program.
The designable part is the transition segment of g (the flat 0/1 ends are
pinned), under a fixed half-band sum, monotonicity, and the [0, 1] box.
Minimizing the summed floor is a box QP; minimizing the worst lag is a
minimax program.  Every such g still yields a unit-energy Nyquist pulse,
so the zero crossings at block lags survive the redesign untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fourier import band_dft_columns, lag_rotation
from .pulse import NyquistPulse, rolloff_bin_count, rrc_spectrum
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
    primal_residual: float
    dual_residual: float
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
    f = band_dft_columns(n, l, lags)
    lam = lag_rotation(l, lags)
    a_mat = np.sqrt(n) * (f.conj() * (1.0 - lam)[None, :]).T[:, ::-1]
    c = np.sqrt(n) * lam * f.conj().sum(axis=0)
    return a_mat, c


def region_metrics(pulse: NyquistPulse, lags: np.ndarray) -> dict[str, float]:
    """Summed and peak squared-mean ACF over a lag window."""
    a_mat, c = sidelobe_maps(pulse.n, pulse.l, lags)
    floor = np.abs(a_mat @ pulse.g + c) ** 2
    return {"isl": float(np.sum(floor)), "psl": float(np.max(floor))}


def _null_space_of_sum(w: int) -> np.ndarray:
    """Orthonormal basis of {h: sum(h) = 0}, deterministic via SVD."""
    _, _, vh = np.linalg.svd(np.ones((1, w)))
    return vh[1:].T


def design_pulse(
    spec: ShapingSpec,
    *,
    tol: float | None = None,
    max_iter: int | None = None,
) -> ShapingResult:
    """Solve the gain design problem and wrap the result as a pulse.

    The transition segment h (width w from the roll-off budget) carries
    sum(h) = w/2, a nondecreasing chain, and the [0, 1] box.  The sum is
    eliminated exactly by moving to the zero-sum subspace, which leaves
    only interval constraints for the ADMM solvers.  With w <= 1 there is
    nothing to optimize and the half-bin raised-cosine gains come back.
    tol and max_iter override the solver defaults when given.
    """
    n, l = spec.n, spec.l
    rrc = rrc_spectrum(n, l, spec.alpha)
    w = rolloff_bin_count(n, spec.alpha)
    zeros = (n - w) // 2
    a_full, c_full = sidelobe_maps(n, l, spec.region)
    if w <= 1:
        floor = np.abs(a_full @ rrc.g + c_full) ** 2
        value = float(np.max(floor) if spec.objective == "psl" else np.sum(floor))
        return ShapingResult(rrc, spec, value, 0, 0.0, 0.0, 0.0, True)

    template = np.zeros(n)
    template[zeros + w:] = 1.0
    seg = slice(zeros, zeros + w)
    # affine maps restricted to the free segment: y = b + a_seg h
    b = c_full + a_full @ template
    a_seg = a_full[:, seg]
    h0 = np.full(w, 0.5)
    basis = _null_space_of_sum(w)
    a_red = a_seg @ basis
    b_red = b + a_seg @ h0
    diff = np.diff(np.eye(w), axis=0)
    m_mat = np.vstack([diff @ basis, basis])
    lo = np.concatenate([np.zeros(w - 1), np.full(w, -0.5)])
    up = np.concatenate([np.full(w - 1, np.inf), np.full(w, 0.5)])
    xi0 = basis.T @ (rrc.g[seg] - h0)

    opts: dict = {}
    if tol is not None:
        opts["eps"] = tol
    if max_iter is not None:
        opts["max_iter"] = max_iter
    if spec.objective == "isl":
        ar = np.vstack([a_red.real, a_red.imag])
        br = np.concatenate([b_red.real, b_red.imag])
        res = solve_box_qp(
            2.0 * ar.T @ ar, 2.0 * ar.T @ br, m_mat, lo, up, x0=xi0, **opts
        )
    else:
        res = solve_minimax(a_red, b_red, m_mat, lo, up, x0=xi0, **opts)

    h = h0 + basis @ res.x
    violation = max(
        float(np.max(np.maximum(-np.diff(h), 0.0), initial=0.0)),
        float(np.max(np.maximum(h - 1.0, 0.0), initial=0.0)),
        float(np.max(np.maximum(-h, 0.0), initial=0.0)),
        abs(float(np.sum(h)) - w / 2),
    )
    g = template.copy()
    g[seg] = np.clip(h, 0.0, 1.0)
    pulse = NyquistPulse(n, l, g, name=f"designed-{spec.objective}", alpha=w / n)
    floor = np.abs(a_full @ pulse.g + c_full) ** 2
    value = float(np.max(floor) if spec.objective == "psl" else np.sum(floor))
    return ShapingResult(
        pulse,
        spec,
        value,
        res.iterations,
        res.primal_residual,
        res.dual_residual,
        violation,
        res.converged,
    )
