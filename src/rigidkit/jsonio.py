"""Strict JSON codecs for the file formats the command line speaks.

Parsers reject unknown fields so a typo fails loudly instead of being
silently ignored.  Numbers in emitted documents follow one rule: integers
stay JSON integers, rationals become "num/den" strings, everything else
becomes a decimal string with 17 significant digits so that reparsing
reproduces the double exactly.
"""

from __future__ import annotations

import dataclasses
import sys
from fractions import Fraction
from numbers import Integral, Real
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from .errors import InputError
from .graphs import SimpleGraph, Tower
from .norms import NormSpec, parse_number
from .placements import Placement

# numpy, the numeric modules and the moves load only when a document needs
# them, so each verb of the command line loads only what it uses.
if TYPE_CHECKING:
    from .bodybar import MultiBodyGraph
    from .catalog import GeneratedFamily, SimplicialMeta
    from .moves import ConstructionChain

__all__ = [
    "chain_from_json",
    "chain_to_json",
    "family_to_json",
    "format_number",
    "framework_from_json",
    "framework_to_json",
    "graph_from_json",
    "graph_to_json",
    "jsonable",
    "loose_input_from_json",
    "meta_from_json",
    "meta_to_json",
    "move_from_json",
    "move_to_json",
    "multibody_from_json",
    "multibody_to_json",
    "norm_from_json",
    "norm_to_json",
    "parse_number",
    "placement_from_json",
    "placement_to_json",
    "tower_from_json",
    "tower_to_json",
]


def format_number(x) -> int | str:
    if isinstance(x, bool):
        raise InputError("booleans are not numbers here")
    # Built-in types come first: they match without the slower ABC check,
    # which only numpy scalars reach.
    if isinstance(x, (int, Integral)):
        return int(x)
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return int(x)
        return f"{x.numerator}/{x.denominator}"
    return "%.17g" % float(x)


def _is_ndarray(x) -> bool:
    # An array can exist only once numpy is loaded, so asking never loads it.
    np = sys.modules.get("numpy")
    return np is not None and isinstance(x, np.ndarray)


def jsonable(x) -> Any:
    """Recursively rewrite a value into the emitted-JSON number convention."""
    if x is None or isinstance(x, (bool, str)):
        return x
    if isinstance(x, (int, float, Fraction, Real)):
        return format_number(x)
    if isinstance(x, Mapping):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)) or _is_ndarray(x):
        return [jsonable(v) for v in x]
    raise InputError(f"cannot serialize {type(x).__name__}")


def _require(obj, what: str, required: Sequence[str], optional: Sequence[str] = ()):
    if not isinstance(obj, dict):
        raise InputError(f"{what} must be a JSON object, got {type(obj).__name__}")
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        raise InputError(f"{what} has unknown fields: {', '.join(unknown)}")
    missing = [k for k in required if k not in obj]
    if missing:
        raise InputError(f"{what} is missing fields: {', '.join(missing)}")


def _int(v, what: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise InputError(f"{what} must be an integer, got {v!r}")
    return v


def _int_list(v, what: str) -> list[int]:
    if not isinstance(v, list):
        raise InputError(f"{what} must be a list")
    return [_int(x, what) for x in v]


def _pair_list(v, what: str) -> list[tuple[int, int]]:
    if not isinstance(v, list):
        raise InputError(f"{what} must be a list of pairs")
    out = []
    for e in v:
        if not isinstance(e, list) or len(e) != 2:
            raise InputError(f"{what} entries must be two-element lists, got {e!r}")
        out.append((_int(e[0], what), _int(e[1], what)))
    return out


# ---- graphs ---------------------------------------------------------------


def graph_to_json(g) -> dict:
    return {
        "vertices": [int(v) for v in g.vertices],
        "edges": [[int(a), int(b)] for a, b in g.edges],
    }


def graph_from_json(obj) -> SimpleGraph:
    _require(obj, "graph", ("vertices", "edges"))
    return SimpleGraph(
        _int_list(obj["vertices"], "vertices"), _pair_list(obj["edges"], "edges")
    )


# ---- placements and norms -------------------------------------------------


def placement_to_json(p: Placement) -> dict:
    return {
        str(v): [format_number(float(c)) for c in coords]
        for v, coords in p.coords.items()
    }


def placement_from_json(obj) -> Placement:
    if not isinstance(obj, dict) or not obj:
        raise InputError("placement must be a non-empty JSON object")
    coords: dict[int, tuple] = {}
    dim = None
    for key, val in obj.items():
        try:
            v = int(key)
        except ValueError as exc:
            raise InputError(f"placement key {key!r} is not a vertex label") from exc
        if v in coords:
            first = next(k for k in obj if int(k) == v)
            raise InputError(f"placement keys {first!r} and {key!r} both name vertex {v}")
        if not isinstance(val, list) or not val:
            raise InputError(f"placement of vertex {v} must be a coordinate list")
        pt = tuple(parse_number(c) for c in val)
        if dim is None:
            dim = len(pt)
        elif len(pt) != dim:
            raise InputError(
                f"placement of vertex {v} has {len(pt)} coordinates, expected {dim}"
            )
        coords[v] = pt
    return Placement(dim, coords)


def norm_to_json(norm: NormSpec) -> dict:
    return {"d": norm.d, "q": format_number(norm.q)}


def norm_from_json(obj) -> NormSpec:
    _require(obj, "norm", ("d", "q"))
    return NormSpec(_int(obj["d"], "norm d"), parse_number(obj["q"]))


# ---- frameworks and catalog families --------------------------------------


def framework_to_json(g, p: Placement, norm: NormSpec) -> dict:
    out = graph_to_json(g)
    out["placement"] = placement_to_json(p)
    out["norm"] = norm_to_json(norm)
    return out


def framework_from_json(obj) -> tuple[SimpleGraph, Placement, NormSpec]:
    _require(obj, "framework", ("vertices", "edges", "placement", "norm"))
    return loose_input_from_json(obj)


def loose_input_from_json(
    obj,
) -> tuple[SimpleGraph, Placement | None, NormSpec | None]:
    """Graph with whatever optional framework data the document carries.

    Accepts plain graph files, full framework files, and catalog output
    (which may carry a placement and hole metadata but no norm).
    """
    _require(
        obj, "input", ("vertices", "edges"), ("placement", "norm", "meta")
    )
    g = SimpleGraph(
        _int_list(obj["vertices"], "vertices"), _pair_list(obj["edges"], "edges")
    )
    p = placement_from_json(obj["placement"]) if "placement" in obj else None
    norm = norm_from_json(obj["norm"]) if "norm" in obj else None
    if p is not None:
        missing = [v for v in g.vertices if v not in p]
        if missing:
            raise InputError(f"placement misses vertices {missing}")
    return g, p, norm


def meta_to_json(meta: SimplicialMeta) -> dict:
    return {
        "connectivity": meta.connectivity,
        "holeCycles": list(meta.hole_cycles),
        "refinement": meta.refinement,
    }


def meta_from_json(obj) -> SimplicialMeta:
    from .catalog import SimplicialMeta

    _require(obj, "meta", ("connectivity", "holeCycles", "refinement"))
    return SimplicialMeta(
        _int(obj["connectivity"], "connectivity"),
        _int_list(obj["holeCycles"], "holeCycles"),
        _int(obj["refinement"], "refinement"),
    )


def family_to_json(fam: GeneratedFamily, include_placement: bool = True) -> dict:
    out = graph_to_json(fam.graph)
    if include_placement and fam.placement is not None:
        out["placement"] = placement_to_json(fam.placement)
    if fam.meta is not None:
        out["meta"] = meta_to_json(fam.meta)
    return out


# ---- towers ---------------------------------------------------------------


def tower_to_json(t: Tower) -> dict:
    out: dict = {"stages": [graph_to_json(s) for s in t.stages]}
    if t.target is not None:
        out["target"] = graph_to_json(t.target)
    return out


def tower_from_json(obj) -> Tower:
    _require(obj, "tower", ("stages",), ("target",))
    if not isinstance(obj["stages"], list) or not obj["stages"]:
        raise InputError("tower stages must be a non-empty list")
    stages = [graph_from_json(s) for s in obj["stages"]]
    target = graph_from_json(obj["target"]) if "target" in obj else None
    return Tower(stages, target)


# ---- multi-body structures ------------------------------------------------


def multibody_to_json(m: MultiBodyGraph) -> dict:
    return {
        "graph": graph_to_json(m.underlying),
        "bodies": [[int(v) for v in b] for b in m.bodies],
        "interbody_edges": [[int(a), int(b)] for a, b in m.inter_body_edges],
    }


def multibody_from_json(obj) -> MultiBodyGraph:
    from .bodybar import MultiBodyGraph

    _require(obj, "multibody", ("graph", "bodies", "interbody_edges"))
    g = graph_from_json(obj["graph"])
    if not isinstance(obj["bodies"], list):
        raise InputError("bodies must be a list of vertex lists")
    bodies = tuple(
        tuple(_int_list(b, "body")) for b in obj["bodies"]
    )
    bars = tuple(_pair_list(obj["interbody_edges"], "interbody_edges"))
    return MultiBodyGraph(g, bodies, bars)


# ---- construction chains --------------------------------------------------


def _field_to_json(v):
    if isinstance(v, tuple):
        return [_field_to_json(x) for x in v]
    return int(v)


def _field_from_json(v, what: str):
    if isinstance(v, list):
        return tuple(_field_from_json(x, what) for x in v)
    return _int(v, what)


def move_to_json(m) -> dict:
    out = {"kind": m.kind}
    for f in dataclasses.fields(m):
        out[f.name] = _field_to_json(getattr(m, f.name))
    return out


def move_from_json(obj):
    from .moves import MOVE_CLASSES

    if not isinstance(obj, dict) or "kind" not in obj:
        raise InputError("move record needs a 'kind' field")
    kind = obj["kind"]
    cls = MOVE_CLASSES.get(kind)
    if cls is None:
        raise InputError(
            f"unknown move kind {kind!r}; known: {', '.join(sorted(MOVE_CLASSES))}"
        )
    fields = tuple(f.name for f in dataclasses.fields(cls))
    _require(obj, f"{kind} record", ("kind",), fields)
    kwargs = {}
    for name in fields:
        if name in obj:
            kwargs[name] = _field_from_json(obj[name], f"{kind}.{name}")
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise InputError(f"incomplete {kind} record: {exc}") from exc


def chain_to_json(chain: ConstructionChain) -> dict:
    return {
        "start": graph_to_json(chain.start),
        "moves": [move_to_json(m) for m in chain.moves],
    }


def chain_from_json(obj) -> ConstructionChain:
    from .moves import ConstructionChain

    _require(obj, "chain", ("start", "moves"))
    if not isinstance(obj["moves"], list):
        raise InputError("chain moves must be a list")
    return ConstructionChain(
        graph_from_json(obj["start"]),
        tuple(move_from_json(m) for m in obj["moves"]),
    )
