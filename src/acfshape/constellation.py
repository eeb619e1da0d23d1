"""Constellation alphabets: geometry, validation, moments, and sampling.

A constellation is a finite complex alphabet whose points are equiprobable
(or the continuous circular Gaussian).  Every alphabet accepted here is
normalized to unit average power and must have zero mean and zero
pseudo-variance E(s^2); those properties are what make the ACF statistics
depend on the alphabet only through its fourth moment E|s|^4.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .tableio import load_text

__all__ = [
    "ConstellationSpec",
    "psk",
    "qam",
    "gaussian",
    "custom",
    "ring_points",
    "two_ring_mix",
    "from_name",
    "from_text_file",
    "kurtosis",
    "sample_symbols",
]

_ATOL = 1e-12

# largest alphabet, named or custom: an order is a user parameter, and the
# points array holds that many entries
_MAX_ORDER = 1 << 16


@dataclass(frozen=True)
class ConstellationSpec:
    """A validated alphabet of equiprobable points.

    kind is one of "psk", "qam", "gaussian", "custom".  Each point is drawn
    with probability 1/size, so a point listed twice weighs twice.  For
    "gaussian" the points array is empty and sampling draws from the
    circular complex normal with unit power.
    """

    kind: str
    points: np.ndarray = field(default_factory=lambda: np.empty(0, complex))
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "points", np.asarray(self.points, dtype=complex))
        if self.kind != "gaussian":
            _validate(self.points)

    @property
    def size(self) -> int:
        return self.points.size

    @property
    def probs(self) -> np.ndarray:
        """Point probabilities, 1/size each (empty for the Gaussian)."""
        return np.full(self.size, 1.0 / max(self.size, 1))

    @cached_property
    def power_classes(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct point powers |p|^2 and the probability of each class.

        Sorted powers within _ATOL of their neighbour form one class, whose
        level is their mean, so that sum(levels * probs) is the mean power
        (qam16: 0.2, 1.0, 1.8 with 1/4, 1/2, 1/4; PSK: one class).  Built
        on first read and kept, since the slot draws consult it on every
        call.  Both arrays are empty for the Gaussian.
        """
        powers = np.sort(np.abs(self.points) ** 2)
        starts = np.flatnonzero(np.diff(powers, prepend=-np.inf) > _ATOL)
        counts = np.diff(starts, append=powers.size)
        return np.add.reduceat(powers, starts) / counts, counts / self.size


def _validate(points: np.ndarray) -> None:
    if points.size == 0:
        raise ValueError("constellation has no points")
    _check_order(points.size)
    if not np.all(np.isfinite(points)):
        raise ValueError("constellation contains non-finite entries")
    # huge finite points overflow to an infinite power, which is refused below
    with np.errstate(over="ignore"):
        power = float(np.mean(np.abs(points) ** 2))
    if abs(power - 1.0) > _ATOL:
        raise ValueError(f"mean power is {power!r}, expected 1 within {_ATOL}")
    mean = complex(np.mean(points))
    if abs(mean) > _ATOL:
        raise ValueError(f"mean is {mean!r}, expected 0 within {_ATOL}")
    pseudo = complex(np.mean(points**2))
    if abs(pseudo) > _ATOL:
        raise ValueError(
            f"pseudo-variance E(s^2) is {pseudo!r}, expected 0 within {_ATOL}; "
            "alphabets without quadrant symmetry (e.g. BPSK) are not supported"
        )


def psk(m: int) -> ConstellationSpec:
    """Uniform m-ary phase-shift keying on the unit circle (m >= 3).

    m = 2 (BPSK) has E(s^2) = 1 and is rejected by validation; orders
    above 65,536 are refused before any array is built.
    """
    if m < 3:
        raise ValueError("PSK order must be >= 3 (BPSK has nonzero pseudo-variance)")
    _check_order(m)
    pts = np.exp(2j * np.pi * np.arange(m) / m)
    return ConstellationSpec("psk", pts, name=f"psk{m}")


def qam(m: int) -> ConstellationSpec:
    """Square Gray-ordered m-QAM scaled to unit average power.

    Only square grids (m a power of 4) are generated.  Cross shapes
    (128/512/2048) have no canonical grid here and raise, as do orders
    above 65,536.
    """
    _check_order(m)
    side = int(round(np.sqrt(m)))
    if side * side != m or m < 4 or (m & (m - 1)) != 0:
        raise ValueError(
            f"only square QAM orders are supported (4, 16, 64, ...); got {m}"
        )
    levels = np.arange(-(side - 1), side, 2, dtype=float)
    grid = levels[None, :] + 1j * levels[:, None]
    pts = grid.reshape(-1)
    pts = pts / np.sqrt(np.mean(np.abs(pts) ** 2))
    return ConstellationSpec("qam", pts, name=f"qam{m}")


def _check_order(m: int) -> None:
    if m > _MAX_ORDER:
        raise ValueError(f"constellation order {m} exceeds the largest supported, {_MAX_ORDER}")


def gaussian() -> ConstellationSpec:
    """Circular complex Gaussian 'alphabet' with unit power (kurtosis 2)."""
    return ConstellationSpec("gaussian", name="gaussian")


def custom(points, name: str = "custom") -> ConstellationSpec:
    """Validated custom alphabet of equiprobable points."""
    return ConstellationSpec("custom", points, name=name)


def ring_points(radius: float, count: int, phase0: float = 0.0) -> np.ndarray:
    """count equally spaced points on a circle of the given radius."""
    return radius * np.exp(1j * (phase0 + 2 * np.pi * np.arange(count) / count))


def two_ring_mix(kurt: float = 2.5, inner_count: int = 16, outer_count: int = 4) -> ConstellationSpec:
    """Uniform two-ring alphabet with a prescribed fourth moment.

    With ring powers a (inner) and b (outer) and inner probability
    p = inner_count/(inner_count+outer_count), solve
        p*a + (1-p)*b = 1,   p*a^2 + (1-p)*b^2 = kurt.
    Useful as a super-Gaussian test alphabet (default kurt 2.5 > 2).
    """
    p = inner_count / (inner_count + outer_count)
    q = 1.0 - p
    # a = 1 - sqrt(q*(kurt-1)/p), b = (1 - p*a)/q  (smaller root keeps a > 0)
    disc = q * (kurt - 1.0) / p
    a = 1.0 - np.sqrt(disc)
    if a <= 0:
        raise ValueError(f"no two-ring solution for kurtosis {kurt} at p={p}")
    b = (1.0 - p * a) / q
    pts = np.concatenate(
        [
            ring_points(np.sqrt(a), inner_count, phase0=np.pi / inner_count),
            ring_points(np.sqrt(b), outer_count, phase0=np.pi / outer_count),
        ]
    )
    return custom(pts, name=f"rings{inner_count}+{outer_count}")


_NAME_RE = re.compile(r"^(psk|qam)(\d+)$")


def from_name(name: str) -> ConstellationSpec:
    """Parse CLI-style names: 'psk16', 'qam64', 'gaussian'.

    psk and qam check the parsed order against their bound before they
    build anything.
    """
    low = name.strip().lower()
    if low == "gaussian":
        return gaussian()
    m = _NAME_RE.match(low)
    if m is None:
        raise ValueError(
            f"unknown constellation {name!r}; expected pskM, qamM, or gaussian"
        )
    order = int(m.group(2))
    return psk(order) if m.group(1) == "psk" else qam(order)


def from_text_file(path, name: str = "") -> ConstellationSpec:
    """Load a custom alphabet from a two-column (re, im) text file.

    Points are equiprobable.  The usual validation applies, so the
    file must describe a unit-power, zero-mean, zero-pseudo-variance alphabet.
    Reading stops one row past the largest supported order, so an
    oversized file is refused without being read to its end.
    """
    data = load_text(path, ndmin=2, max_rows=_MAX_ORDER + 1)
    if len(data) > _MAX_ORDER:
        raise ValueError(
            f"{path} holds more than {_MAX_ORDER} points, "
            f"which exceeds the largest supported order"
        )
    if data.shape[1] != 2:
        raise ValueError(f"expected two columns (re, im) in {path}, got {data.shape[1]}")
    pts = np.ascontiguousarray(data).view(complex)[:, 0]  # 1j * inf would warn
    return custom(pts, name=name or str(path))


def kurtosis(spec: ConstellationSpec) -> float:
    """Normalized fourth moment E|s|^4 (unit power makes this the kurtosis)."""
    if spec.kind == "gaussian":
        return 2.0
    return float(np.mean(np.abs(spec.points) ** 4))


def sample_symbols(
    spec: ConstellationSpec,
    count: int | tuple[int, ...],
    rng: np.random.Generator,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Draw i.i.d. symbols from the alphabet; count may be a shape tuple.

    A finite alphabet takes one draw of uniform point indices,
    rng.integers(0, size, count), which numpy makes by Lemire's
    multiply-and-reject method (ACM TOMACS 29(1), 2019); Gaussian symbols
    one draw of interleaved (re, im) normals, times sqrt(1/2).  One call
    over (c, ...) gives the bits of c calls over (...) in turn.  out, a
    C-contiguous complex array of shape count, takes the symbols if given.
    """
    if out is None:
        out = np.empty(count, dtype=complex)
    if spec.kind == "gaussian":
        rng.standard_normal(out=out.view(float))
        out *= np.sqrt(0.5)
        return out
    return np.take(spec.points, rng.integers(0, spec.size, count), out=out, mode="clip")
