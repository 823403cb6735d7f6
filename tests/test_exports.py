"""Every name a module lists in __all__ resolves to an attribute, and every
unprefixed name a module defines is listed there."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import rigidkit

MODULES = sorted(
    m.name for m in pkgutil.iter_modules(rigidkit.__path__) if m.name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_public_names_resolve(name):
    module = importlib.import_module(f"rigidkit.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def _defined_names(module):
    """Unprefixed names the module binds itself, imports left out."""
    imports = (ast.Import, ast.ImportFrom)
    tree = ast.parse(inspect.getsource(module))
    imported = {a.asname or a.name for s in ast.walk(tree) if isinstance(s, imports) for a in s.names}
    return {n for n in vars(module) if not n.startswith("_") and n not in imported}


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_every_defined_name(name):
    module = importlib.import_module(f"rigidkit.{name}")
    assert sorted(_defined_names(module) - set(getattr(module, "__all__", ()))) == []


def test_sparsity_lists_exactly_its_public_names():
    from rigidkit import sparsity

    defined = {
        n
        for n, v in vars(sparsity).items()
        if not n.startswith("_") and getattr(v, "__module__", None) == sparsity.__name__
    }
    assert sorted(sparsity.__all__) == sorted(defined) == [
        "LAMAN",
        "PebbleGame",
        "QNORM_2D",
        "SparsityCount",
        "SparsityReport",
        "augment_to_tight",
        "brute_force_sparse",
        "is_sparse",
        "planar_count",
        "tight_spanning_subgraph",
    ]


def test_moves_lists_exactly_its_public_names():
    # Every unprefixed name the module binds itself, constants included;
    # the walk and search helpers stay private.
    from rigidkit import moves

    assert sorted(moves.__all__) == sorted(_defined_names(moves)) == [
        "CHAIN_MODES",
        "ChainReport",
        "ConstructionChain",
        "EUCLIDEAN_MODE",
        "EdgeMove",
        "Edit",
        "MOVE_CLASSES",
        "Move",
        "QNORM_MODE",
        "VertexExtension",
        "VertexSplit3D",
        "VertexTo4Cycle",
        "VertexToK4",
        "apply_move",
        "concatenate_chains",
        "count_for_mode",
        "find_chain",
        "inverse_candidates",
        "verify_chain",
    ]
