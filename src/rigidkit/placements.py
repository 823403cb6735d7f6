"""Placements: a point in R^d for each vertex label.

Kept free of numpy at import, so that a verb reading a file that carries a
placement it never uses starts without loading it; only the conversions to
and from arrays import numpy.

A placement holds its points twice: as tuples by label (coords), and as one
read-only float64 array with a row per label in coords order.  from_array
keeps a copy of the array it is given and checks it once as a whole; a
placement built from a mapping (JSON, the catalog) checks each point and
builds its array on the first array_for.  array_for returns the array
itself for a graph whose vertex order is the kept one, and gathers rows by
index for any other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .errors import PlacementError
from .graphs import SimpleGraph

if TYPE_CHECKING:
    import numpy as np

__all__ = ["Placement"]


def _non_finite(v: int) -> PlacementError:
    return PlacementError(f"vertex {v} has a coordinate that is not a finite float")


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
                raise _non_finite(v)
            if len(pt) != dim:
                raise PlacementError(
                    f"vertex {v} has a {len(pt)}-coordinate point in dimension {dim}"
                )
            fixed[int(v)] = pt
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "coords", fixed)

    @classmethod
    def _checked(cls, dim: int, coords: dict[int, tuple[float, ...]]) -> Placement:
        """A placement of points that are already finite dim-tuples of floats."""
        p = object.__new__(cls)
        object.__setattr__(p, "dim", dim)
        object.__setattr__(p, "coords", coords)
        return p

    def __contains__(self, v: int) -> bool:
        return v in self.coords

    def __getitem__(self, v: int) -> tuple[float, ...]:
        return self.coords[v]

    @cached_property
    def _order(self) -> tuple[int, ...]:
        """The labels in coords order: the rows of _array."""
        return tuple(self.coords)

    @cached_property
    def _array(self) -> np.ndarray:
        """The points, read-only, one row per label in _order."""
        import numpy as np

        arr = np.array(list(self.coords.values()), dtype=float)
        arr = arr.reshape(len(self.coords), self.dim)
        arr.flags.writeable = False
        return arr

    @cached_property
    def _rows(self) -> dict[int, int]:
        """Each label's row in _array."""
        return {v: i for i, v in enumerate(self._order)}

    def array_for(self, g: SimpleGraph) -> np.ndarray:
        """The points of g's vertices, one row each in g.vertices order: the
        kept read-only array when that is its order, a gathered copy
        otherwise."""
        if g.vertices == self._order:
            return self._array
        rows = self._rows
        try:
            at = [rows[v] for v in g.vertices]
        except KeyError:
            missing = [v for v in g.vertices if v not in rows]
            raise PlacementError(f"placement misses vertices {missing}") from None
        return self._array.take(at, axis=0)

    def restrict(self, labels: Iterable[int]) -> Placement:
        keep = set(labels)
        return self._checked(self.dim, {v: p for v, p in self.coords.items() if v in keep})

    @classmethod
    def from_array(cls, g: SimpleGraph, arr: np.ndarray) -> Placement:
        """The placement with row i of arr at g.vertices[i].  It keeps a
        read-only float64 copy of arr as its array."""
        import numpy as np

        arr = np.array(arr, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != g.n_vertices:
            raise PlacementError("array row count does not match the vertex count")
        finite = np.isfinite(arr).all(axis=1)
        if not finite.all():
            raise _non_finite(g.vertices[int(finite.argmin())])
        arr.flags.writeable = False
        p = cls._checked(arr.shape[1], dict(zip(g.vertices, map(tuple, arr.tolist()))))
        object.__setattr__(p, "_order", g.vertices)
        object.__setattr__(p, "_array", arr)
        return p
