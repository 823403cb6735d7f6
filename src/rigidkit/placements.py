"""Placements: a point in R^d for each vertex label.

Kept free of numpy at import, so that a verb reading a file that carries a
placement it never uses starts without loading it; only the conversions to
and from arrays import numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .errors import PlacementError
from .graphs import SimpleGraph

if TYPE_CHECKING:
    import numpy as np

__all__ = ["Placement"]


@dataclass(frozen=True)
class Placement:
    """Assignment of a point in R^d to each vertex label."""

    dim: int
    coords: dict[int, tuple[float, ...]]

    def __init__(self, dim: int, coords: Mapping[int, Sequence[float]]):
        fixed = {}
        for v, pt in coords.items():
            try:
                pt = tuple(float(x) for x in pt)
                finite = all(map(math.isfinite, pt))
            except OverflowError:  # an integer or fraction beyond the float range
                finite = False
            if not finite:
                raise PlacementError(f"vertex {v} has a coordinate that is not a finite float")
            if len(pt) != dim:
                raise PlacementError(
                    f"vertex {v} has a {len(pt)}-coordinate point in dimension {dim}"
                )
            fixed[int(v)] = pt
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "coords", fixed)

    def __contains__(self, v: int) -> bool:
        return v in self.coords

    def __getitem__(self, v: int) -> tuple[float, ...]:
        return self.coords[v]

    def array_for(self, g: SimpleGraph) -> np.ndarray:
        import numpy as np

        missing = [v for v in g.vertices if v not in self.coords]
        if missing:
            raise PlacementError(f"placement misses vertices {missing}")
        return np.array([self.coords[v] for v in g.vertices], dtype=float)

    def restrict(self, labels: Iterable[int]) -> Placement:
        keep = set(labels)
        return Placement(self.dim, {v: p for v, p in self.coords.items() if v in keep})

    @classmethod
    def from_array(cls, g: SimpleGraph, arr: np.ndarray) -> Placement:
        import numpy as np

        arr = np.asarray(arr, dtype=float)
        if arr.shape[0] != g.n_vertices:
            raise PlacementError("array row count does not match the vertex count")
        return cls(arr.shape[1], {v: tuple(arr[i]) for i, v in enumerate(g.vertices)})
