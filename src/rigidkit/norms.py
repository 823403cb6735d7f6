"""The ambient space (R^d, lq) and the default SVD rank cutoff.

Kept free of numpy, so that the combinatorial verbs of the command line,
which only read a norm, start without loading it.
"""

from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral

from .errors import InputError

__all__ = ["NormSpec", "QValue", "RANK_EPS", "parse_number"]

RANK_EPS = 1e-9

QValue = int | float | Fraction


def parse_number(v) -> QValue:
    """A JSON or command-line number: an int, a float, or a "p/q" string
    read as a Fraction.  Anything else raises InputError."""
    if isinstance(v, bool):
        raise InputError(f"expected a number, got {v!r}")
    if isinstance(v, (int, float)):
        return v
    if isinstance(v, str):
        try:
            if "/" in v:
                return Fraction(v)
            if v.lstrip("+-").isdigit():
                return int(v)
            return float(v)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"unreadable number {v!r}") from exc
    raise InputError(f"expected a number, got {type(v).__name__}")


@dataclass(frozen=True)
class NormSpec:
    """Ambient space: dimension d >= 2 and norm exponent q in (1, 1024]:
    sampled coordinate differences below 2 keep |x|^(q-1) < 2^1023 finite,
    and q - 1 < 2^31 - 2 keeps x^(q-1) mod the prime 2^31 - 1 unaliased."""

    d: int
    q: QValue

    def __post_init__(self) -> None:
        if isinstance(self.d, bool) or not isinstance(self.d, Integral):
            raise InputError(f"dimension d must be an integer, got {self.d!r}")
        if self.d < 2:
            raise InputError(f"dimension must be at least 2, got {self.d}")
        if not 1 < self.q <= 1024:  # nan fails both
            raise InputError(f"norm exponent must lie in (1, 1024], got {self.q}")

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
        fields: dict[str, str] = {}
        for part in text.split(","):
            key, _, value = part.partition("=")
            key = key.strip()
            if key not in ("d", "q"):
                raise InputError(f"unknown norm field {key!r}")
            if key in fields:
                raise InputError(f"norm field {key!r} given twice in {text!r}")
            fields[key] = value.strip()
        if len(fields) != 2:
            raise InputError(f"norm spec {text!r} must give both d and q")
        try:
            d = int(fields["d"])
        except ValueError:
            d = fields["d"]  # not an integer, which the dimension check names
        return cls(d, parse_number(fields["q"]))

    def __str__(self) -> str:
        return f"d={self.d},q={self.q}"
