"""Command-line front end.

Verbs map one-to-one onto library modules.  A verb registers only the flags
that some mode of it reads: --seed on analyze, tower and bodybar, --tol on
analyze and render, and a flag the chosen mode never reads is a usage error.
Every analysis report embeds the tool version plus the norm, seed and
tolerance, each the value the chosen mode takes or null.  A verdict depends
on its input and these alone (at an integer q, --seed draws one placement),
so identical invocations produce byte-identical output.  Exit codes: 0
analysis completed (whatever the verdict), 1 input or usage problem, 2
internal cross-check failure.
"""

import argparse
import json
import sys

from . import __version__
from .errors import AlgorithmError, InconsistencyError, InputError, RigidkitError
from .norms import RANK_EPS, NormSpec

# Each verb imports the modules it calls, so the pebble-game verbs
# (sparsity, chain, tower --mode laman and sequential) start without numpy.

__all__ = ["UsageError", "main", "run"]


class UsageError(InputError):
    """Bad flags or verb syntax; maps to exit 1 like other input problems."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _seed_flag(text: str) -> int:
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be non-negative, got {seed}")
    return seed


def _build_parser() -> _Parser:
    parser = _Parser(prog="rigidkit", description="Rigidity analysis toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="verb", required=True)

    # Flags that a mode may not read default to None, so a handler can
    # refuse one that was given (_refuse_unread) before filling in defaults.
    def common(p, norm=True, seed=False, tol=False):
        if norm:
            p.add_argument("--norm", type=NormSpec.parse, default=None, metavar="d=D,q=Q")
        if seed:
            p.add_argument("--seed", type=_seed_flag, default=None)
        if tol:
            p.add_argument("--tol", type=float, default=None)
        p.add_argument("-o", "--output", default=None, metavar="PATH")

    p = sub.add_parser("analyze", help="flex report for a framework")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--generic", action="store_true")
    common(p, seed=True, tol=True)

    p = sub.add_parser("sparsity", help="(k,l)-sparsity check")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--count", required=True, metavar="K,L")
    common(p, norm=False)

    p = sub.add_parser("chain", help="construction chain between tight graphs")
    p.add_argument("--mode", required=True, choices=["euclidean", "qnorm"])
    p.add_argument("--from", dest="source", required=True, metavar="PATH")
    p.add_argument("--to", dest="target", required=True, metavar="PATH")
    common(p, norm=False)

    p = sub.add_parser("tower", help="certify a staged graph presentation")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument(
        "--mode", default="relative", choices=["relative", "sequential", "laman"]
    )
    common(p, seed=True)

    p = sub.add_parser("bodybar", help="multi-body rigidity decision")
    p.add_argument("input", nargs="?", default="-")
    common(p, seed=True)

    p = sub.add_parser("catalog", help="emit a named graph family")
    p.add_argument("family")
    p.add_argument("--params", nargs="*", default=[], metavar="K=V")
    p.add_argument("--placement", default="canonical", choices=["canonical", "none"])
    p.add_argument("-o", "--output", default=None, metavar="PATH")

    p = sub.add_parser("render", help="SVG drawing of a plane framework")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--flex", type=int, default=None, metavar="K")
    p.add_argument("--no-labels", action="store_true")
    common(p, tol=True)
    return parser


def _refuse_unread(when: str, **flags) -> None:
    """A usage error naming each flag given (not None) that the chosen mode
    never reads."""
    given = [f"--{name}" for name, value in flags.items() if value is not None]
    if given:
        raise UsageError(f"{' and '.join(given)} not read {when}")


def _or_default(value, default):
    return default if value is None else value


def _load(path: str):
    text = sys.stdin.read() if path == "-" else _read_file(path)
    return json.loads(text)


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _emit_json(obj: dict, path: str | None) -> None:
    from . import jsonio

    text = json.dumps(jsonio.jsonable(obj), indent=2, sort_keys=True) + "\n"
    _emit_text(text, path)


def _emit_text(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _report(norm: NormSpec | None, payload: dict, seed=None, tolerance=None) -> dict:
    """The report of one computation: the settings its mode takes (None for
    one it does not take), then its payload."""
    from . import jsonio

    out = {
        "version": __version__,
        "norm": jsonio.norm_to_json(norm) if norm is not None else None,
        "seed": seed,
        "tolerance": tolerance,
    }
    out.update(payload)
    return out


def _resolve_norm(args, from_file: NormSpec | None) -> NormSpec:
    norm = args.norm or from_file
    if norm is None:
        field = "add a 'norm' field or " if args.verb in ("analyze", "render") else ""
        raise InputError(f"no norm given: {field}pass --norm")
    return norm


def _cmd_analyze(args) -> None:
    from . import jsonio
    from .frameworks import flex_report, is_rigid_generic

    if args.generic:
        _refuse_unread("with --generic", tol=args.tol)
        settings = {"seed": _or_default(args.seed, 0)}
    else:
        _refuse_unread("without --generic", seed=args.seed)
        settings = {"tolerance": _or_default(args.tol, RANK_EPS)}
    g, p, file_norm = jsonio.loose_input_from_json(_load(args.input))
    norm = _resolve_norm(args, file_norm)
    if args.generic:
        verdict = is_rigid_generic(g, norm, **settings)
        rep = verdict.report
        extras = {"generic": True}
        if verdict.combinatorial is not None:
            extras["combinatorialCrossCheck"] = verdict.combinatorial
    else:
        if p is None:
            raise InputError("input has no placement; pass --generic to sample one")
        rep = flex_report(g, p, norm, settings["tolerance"])
        extras = {"generic": False}
    payload = {
        "rank": rep.rank,
        "nullity": rep.nullity,
        "trivialDim": rep.trivial_dim,
        "flexDim": rep.flex_dim,
        "rigid": rep.rigid,
        "classification": rep.classification,
        **extras,
    }
    _emit_json(_report(norm, payload, **settings), args.output)


def _cmd_sparsity(args) -> None:
    from . import jsonio
    from .sparsity import SparsityCount, is_sparse

    g, _, _ = jsonio.loose_input_from_json(_load(args.input))
    count = SparsityCount.parse(args.count)
    rep = is_sparse(g, count)
    payload = {
        "count": {"k": count.k, "l": count.l},
        "sparse": rep.sparse,
        "tight": rep.tight,
        "witness": (
            jsonio.graph_to_json(rep.witness) if rep.witness is not None else None
        ),
    }
    _emit_json(_report(None, payload), args.output)


def _cmd_chain(args) -> None:
    from . import jsonio
    from .moves import count_for_mode, find_chain, verify_chain

    g_from, _, _ = jsonio.loose_input_from_json(_load(args.source))
    g_to, _, _ = jsonio.loose_input_from_json(_load(args.target))
    count = count_for_mode(args.mode)
    chain = find_chain(g_from, g_to, args.mode)
    verdict = verify_chain(chain, args.mode)
    if not verdict.ok:
        raise AlgorithmError(
            f"found chain fails verification at stage {verdict.failure_stage}: "
            f"{verdict.reason}"
        )
    payload = {
        "mode": args.mode,
        "count": {"k": count.k, "l": count.l},
        "stageCount": len(chain.moves) + 1,
        "verified": True,
        **jsonio.chain_to_json(chain),
    }
    _emit_json(_report(None, payload), args.output)


def _cmd_tower(args) -> None:
    from . import jsonio
    from .towers import laman_tower_decide, sequential_rigidity_2d, tower_rigidity

    if args.mode == "laman":
        _refuse_unread("in laman mode", seed=args.seed)
        seed = None
    else:
        seed = _or_default(args.seed, 0)
    t = jsonio.tower_from_json(_load(args.input))
    norm = _resolve_norm(args, None)
    if args.mode == "relative":
        v = tower_rigidity(t, norm, seed=seed)
        payload = {
            "mode": args.mode,
            "status": v.status,
            "relativelyRigidPrefix": v.relatively_rigid_prefix,
            "stageCount": v.stage_count,
            "vertexComplete": v.vertex_complete,
            "sequentialWitness": None,
        }
    elif args.mode == "sequential":
        if norm.d != 2:
            raise InputError("sequential certificates are planar; use --norm d=2")
        witness = sequential_rigidity_2d(t, norm.q, seed=seed)
        payload = {
            "mode": args.mode,
            "status": "SequentiallyRigid" if witness else "NotCertified",
            "witness": (
                [jsonio.graph_to_json(h) for h in witness] if witness else None
            ),
        }
    else:
        if norm.d != 2:
            raise InputError("the tight-subgraph decision is planar; use --norm d=2")
        v = laman_tower_decide(t, norm.q)
        payload = {
            "mode": args.mode,
            "status": v.status,
            "witness": (
                [jsonio.graph_to_json(h) for h in v.witness]
                if v.witness is not None
                else None
            ),
        }
    _emit_json(_report(norm, payload, seed=seed), args.output)


def _cmd_bodybar(args) -> None:
    from . import jsonio
    from .bodybar import tay_decide, validate_multibody

    doc = _load(args.input)
    raw = jsonio.multibody_from_json(doc)
    norm = _resolve_norm(args, None)
    # The listed bodies, so that a problem names a body by its position there
    m = validate_multibody(raw.underlying, doc["bodies"], norm)
    seed = _or_default(args.seed, 0)
    v = tay_decide(m, norm, seed=seed)
    payload = {
        "rigid": v.rigid,
        "count": {"k": v.count.k, "l": v.count.l},
        "crossChecked": v.cross_checked,
        "bodies": len(m.bodies),
        "bars": len(m.inter_body_edges),
        "witness": (
            jsonio.graph_to_json(v.witness) if v.witness is not None else None
        ),
    }
    _emit_json(_report(norm, payload, seed=seed), args.output)


def _parse_param(item: str):
    key, sep, value = item.partition("=")
    if not sep or not key:
        raise UsageError(f"catalog params must look like name=value, got {item!r}")
    try:
        parsed = json.loads(value)
    except json.JSONDecodeError:
        parsed = value
    if isinstance(parsed, list):
        parsed = tuple(parsed)
    return key, parsed


def _cmd_catalog(args) -> None:
    from . import jsonio
    from .catalog import available_families, generate

    if args.family == "list":
        if args.params:
            raise UsageError("catalog list takes no params")
        _emit_json({"families": list(available_families())}, args.output)
        return
    params = dict(_parse_param(item) for item in args.params)
    fam = generate(args.family, **params)
    out = jsonio.family_to_json(fam, include_placement=args.placement == "canonical")
    _emit_json(out, args.output)


def _cmd_render(args) -> None:
    from . import jsonio
    from .frameworks import flex_report
    from .svg import check_plane, render_svg

    if args.flex is None:
        _refuse_unread("without --flex", norm=args.norm, tol=args.tol)
    g, p, file_norm = jsonio.loose_input_from_json(_load(args.input))
    if p is None:
        raise InputError("render needs a placement")
    check_plane(p)
    flex = None
    if args.flex is not None:
        norm = _resolve_norm(args, file_norm)
        rep = flex_report(g, p, norm, _or_default(args.tol, RANK_EPS))
        if args.flex < 0 or args.flex >= len(rep.nontrivial_flex_basis):
            raise InputError(
                f"flex index {args.flex} out of range: "
                f"framework has {rep.flex_dim} nontrivial flexes"
            )
        flex = rep.flex_field(args.flex)
    _emit_text(render_svg(g, p, flex, labels=not args.no_labels), args.output)


_HANDLERS = {
    "analyze": _cmd_analyze,
    "sparsity": _cmd_sparsity,
    "chain": _cmd_chain,
    "tower": _cmd_tower,
    "bodybar": _cmd_bodybar,
    "catalog": _cmd_catalog,
    "render": _cmd_render,
}


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _HANDLERS[args.verb](args)
        return 0
    except json.JSONDecodeError as exc:
        print(f"rigidkit: malformed JSON: {exc}", file=sys.stderr)
        return 1
    except (InconsistencyError, AlgorithmError) as exc:
        print(f"rigidkit: internal inconsistency: {exc}", file=sys.stderr)
        return 2
    except RigidkitError as exc:
        print(f"rigidkit: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))
