"""The ambient space (R^d, lq) and the default SVD rank cutoff.

Kept free of numpy, so that the combinatorial verbs of the command line,
which only read a norm, start without loading it.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError

__all__ = ["NormSpec", "QValue", "RANK_EPS"]

RANK_EPS = 1e-9

QValue = int | float | Fraction


@dataclass(frozen=True)
class NormSpec:
    """Ambient space: dimension d >= 2 and norm exponent q in (1, inf)."""

    d: int
    q: QValue

    def __post_init__(self) -> None:
        if self.d < 2:
            raise InputError(f"dimension must be at least 2, got {self.d}")
        qf = float(self.q)
        if not math.isfinite(qf) or qf <= 1.0:
            raise InputError(f"norm exponent must lie in (1, inf), got {self.q}")

    @property
    def euclidean(self) -> bool:
        return float(self.q) == 2.0

    @property
    def q_is_integer(self) -> bool:
        if isinstance(self.q, int):
            return True
        if isinstance(self.q, Fraction):
            return self.q.denominator == 1
        return float(self.q).is_integer()

    @property
    def q_int(self) -> int:
        if not self.q_is_integer:
            raise InputError(f"norm exponent {self.q} is not an integer")
        return int(self.q)

    @property
    def trivial_dim_generic(self) -> int:
        """Dimension of the rigid-motion space at placements in general position."""
        if self.euclidean:
            return self.d * (self.d + 1) // 2
        return self.d

    def trivial_dim_at(self, n: int) -> int:
        """Dimension of the rigid motions evaluated at n points in general
        position: none at no point, else all of them, less in the Euclidean
        case the rotations that fix the (n-1)-flat through the points when
        n <= d."""
        if n == 0:
            return 0
        fixed = max(self.d - n + 1, 0) if self.euclidean else 0
        return self.trivial_dim_generic - fixed * (fixed - 1) // 2

    def rigid_rank(self, n: int) -> int:
        """Rank of a rigid framework on n points in general position, d*n
        less the evaluated rigid motions.  No placement of n points ranks
        higher, so a sampled rank that reaches it certifies rigidity."""
        return self.d * n - self.trivial_dim_at(n)

    @classmethod
    def parse(cls, text: str) -> "NormSpec":
        d = None
        q: QValue | None = None
        for part in text.split(","):
            key, _, value = part.partition("=")
            key = key.strip()
            value = value.strip()
            if key == "d":
                d = int(value)
            elif key == "q":
                if "/" in value:
                    q = Fraction(value)
                else:
                    q = int(value) if value.lstrip("+-").isdigit() else float(value)
            else:
                raise InputError(f"unknown norm field {key!r}")
        if d is None or q is None:
            raise InputError(f"norm spec {text!r} must give both d and q")
        return cls(d, q)

    def __str__(self) -> str:
        return f"d={self.d},q={self.q}"
