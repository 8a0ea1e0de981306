"""Two-sided estimates of the per-vertex entropy constant.

Let lambda_w be the Perron root of the open (columnwise) chain at
width parameter w, and xi_w that of the wrapped (rowwise) chain at
width w.  The two estimates are

    ratio(p, q) = (lambda_{p+2q} / lambda_{2q}) ** (1/p)
    ring(k)     = xi_{2k} ** (1/(2k))

The ratio cancels the open-edge effects of the strips, the even-width
ring folds them away entirely; each pins the growth per unit of width
from one side.  For the quadratic, crossed and aztec grids the ring
lies above and the ratio below.  The truncated-square tiling has the
two the other way around: its wrapped period lays down four fewer
sites than width-times-four, which turns the ring into an
underestimate, while the strip ratio overshoots.

A bound grows by one factor per unit of width, and one unit of width
adds to a strip's period the sites ``chain._period_sites`` gains from
width w to w+1: one on the quadratic and crossed grids, two on the
aztec grid and four on the truncated-square tiling.  The family's
per-vertex exponent is one over that gain, so raising a bound to it
converts it to the per-vertex constant.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import lru_cache

from .chain import Boundary, Direction, Family, _period_sites, transfer_chain
from .spectral import EigenResult, dominant_eigenvalue

__all__ = [
    "PER_VERTEX_EXPONENT",
    "SpectralSample",
    "BoundReport",
    "strip_root",
    "ring_root",
    "entropy_interval",
    "bound_table",
]

# Results kept by each of strip_root and ring_root.  Every result holds
# its Perron vector, so an unbounded cache grows with each (family,
# width, tol) a process asks for.
ROOT_CACHE_SIZE = 64

# One over the sites a strip period gains per unit of width, taken from
# width 2, the narrowest strip every family has.
PER_VERTEX_EXPONENT = {
    family: Fraction(1, _period_sites(family, Direction.COLUMNWISE, 3)
                     - _period_sites(family, Direction.COLUMNWISE, 2))
    for family in Family
}


@dataclass(frozen=True)
class SpectralSample:
    """One Perron root that went into a bound."""

    role: str  # "strip" or "ring"
    width: int
    value: float
    iterations: int
    residual: float


@lru_cache(maxsize=ROOT_CACHE_SIZE)
def strip_root(family: Family, width: int, tol: float = 1e-12) -> EigenResult:
    """lambda_w: dominant eigenvalue of the open chain at width w, on
    the links ``transfer_chain`` gives, as counts and eig take them.

    The ROOT_CACHE_SIZE latest results are cached per (family, width,
    tol); sweeping p, q and k re-uses roots instead of re-iterating.
    Treat the cached result's vector as read-only.
    """
    return dominant_eigenvalue(transfer_chain(family, Direction.COLUMNWISE, width), tol=tol)


@lru_cache(maxsize=ROOT_CACHE_SIZE)
def ring_root(family: Family, width: int, tol: float = 1e-12) -> EigenResult:
    """xi_w: dominant eigenvalue of the wrapped chain at width w, on the
    links ``transfer_chain`` gives.

    Cached the same way as strip_root.
    """
    return dominant_eigenvalue(transfer_chain(family, Direction.ROWWISE, width, Boundary.CYCLIC), tol=tol)


@dataclass(frozen=True)
class BoundReport:
    family: Family
    p: int
    q: int
    k: int
    lower: float
    upper: float
    samples: tuple[SpectralSample, ...]

    @property
    def per_vertex_exponent(self) -> Fraction:
        return PER_VERTEX_EXPONENT[self.family]

    @property
    def normalized_lower(self) -> float:
        return self.lower ** float(self.per_vertex_exponent)

    @property
    def normalized_upper(self) -> float:
        return self.upper ** float(self.per_vertex_exponent)

    @property
    def normalized_width(self) -> float:
        return self.normalized_upper - self.normalized_lower

    def as_dict(self) -> dict:
        return {
            "family": self.family.value,
            "p": self.p,
            "q": self.q,
            "k": self.k,
            "lower": self.lower,
            "upper": self.upper,
            "per_vertex_exponent": str(self.per_vertex_exponent),
            "normalized_lower": self.normalized_lower,
            "normalized_upper": self.normalized_upper,
            "samples": [asdict(s) for s in self.samples],
        }


def entropy_interval(
    family: Family, p: int, q: int, k: int, tol: float = 1e-12
) -> BoundReport:
    """Compute the two-sided interval for one family.

    The strip ratio uses widths p+2q and 2q, the ring uses width 2k;
    a ValueError propagates when a width falls below what the family's
    chains support.
    """
    if p < 1 or q < 1 or k < 1:
        raise ValueError("p, q and k must all be at least 1")
    wide = strip_root(family, p + 2 * q, tol)
    narrow = strip_root(family, 2 * q, tol)
    ring = ring_root(family, 2 * k, tol)
    ratio = (wide.value / narrow.value) ** (1.0 / p)
    folded = ring.value ** (1.0 / (2 * k))
    if family is Family.TRUNCATED_SQUARE:
        lower, upper = folded, ratio
    else:
        lower, upper = ratio, folded
    samples = (
        SpectralSample("strip", p + 2 * q, wide.value, wide.iterations, wide.residual),
        SpectralSample("strip", 2 * q, narrow.value, narrow.iterations, narrow.residual),
        SpectralSample("ring", 2 * k, ring.value, ring.iterations, ring.residual),
    )
    return BoundReport(family, p, q, k, lower, upper, samples)


def bound_table(
    family: Family, p: int, ks: "list[int] | range", tol: float = 1e-12
) -> list[BoundReport]:
    """One interval per k, with q tied to k so both sides tighten."""
    return [entropy_interval(family, p, k, k, tol) for k in ks]
