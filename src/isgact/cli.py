"""Command line front end: validate, restrict, globalize, mediate, check, catalog.

Exit codes: 0 all checks passed, 1 a validation failed, 2 parse or IO error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from itertools import compress
from pathlib import Path

from .actions import (
    CoverageError,
    restrict,
    validate_e_axioms,
    validate_p_axioms,
)
from .catalog import ENTRY_NAMES, catalog, catalog_entry, random_partial_action
from .core import InverseSemigroupoid, StructuralError
from .globalization import (
    Globalization,
    WellDefinednessError,
    build_globalization,
    check_fiber_injectivity,
    mediating,
)
from .morphisms import ActionMap, GlobalizationTriple
from .textio import (
    ParseError,
    ValidationFailure,
    _load_action,
    format_action,
    format_structure,
    load_action,
    load_structure,
)


class UsageError(ValueError):
    """A command-line argument is malformed or names nothing that exists."""


def _structure_dot(isg: InverseSemigroupoid) -> str:
    lines = ["digraph structure {", "  rankdir=LR;"]
    for o in isg.objects:
        lines.append(f'  "{o}";')
    for a, d, c in zip(isg.arrows, isg._dom, isg._cod):
        lines.append(f'  "{isg.objects[d]}" -> "{isg.objects[c]}" [label="{a}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _quotient_dot(glob: Globalization) -> str:
    """Seeds grouped by class, with an edge per one-step related pair."""
    node = {seed: f"n{i}" for i, seed in enumerate(glob.quotient.seeds)}
    lines = ["graph quotient {", "  node [shape=box];"]
    for c, members in enumerate(glob.quotient.classes):
        lines.append(f"  subgraph cluster_{c} {{")
        lines.append(f'    label="class {c}";')
        for seed in members:
            lines.append(f'    {node[seed]} [label="({seed.arrow},{seed.point})"];')
        lines.append("  }")
    for i, j in glob.quotient.edges:
        lines.append(f"  n{i} -- n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _globalization_table(glob: Globalization) -> str:
    isg = glob.action.semigroupoid
    q = glob.quotient
    lines = [f"seeds: {len(q.seeds)}", f"classes: {q.n_classes}"]
    for c, members in enumerate(q.classes):
        body = " ".join(f"({s},{x})" for s, x in members)
        lines.append(f"  class {c}: {body}")
    out = glob.global_action
    for s, mask in zip(isg.arrows, out.masks):
        family = " ".join(str(c) for c, inside in zip(out.carrier, mask) if inside)
        lines.append(f"family[{s}] = {family}")
    for s, row in zip(isg.arrows, out.rows):
        body = ", ".join(f"{c} -> {out.carrier[d]}" for c, d in zip(out.carrier, row) if d >= 0)
        lines.append(f"map[{s}]: {body}")
    emb = glob.canonical_embedding.mapping
    lines.append("embedding: " + ", ".join(f"{x} -> {emb[x]}" for x in glob.action.carrier))
    return "\n".join(lines) + "\n"


_encode = json.encoder.encode_basestring_ascii  # the string encoder json.dumps uses


def _json_items(items: list[str], depth: int) -> list[str]:
    """The pieces of encoded items as an array at nesting depth ``depth``, laid out as json.dumps(indent=2) lays it out."""
    if not items:
        return ["[]"]
    inner = "\n" + "  " * (depth + 1)
    parts = ["," + inner] * (2 * len(items) + 1)
    parts[0], parts[1::2], parts[-1] = "[" + inner, items, "\n" + "  " * depth + "]"
    return parts


def _json_pairs(firsts: list[str], seconds: list[str], depth: int) -> str:
    """An array of two-element arrays of encoded items, [firsts[k], seconds[k]], each laid out as _json_items lays out an array."""
    if not firsts:
        return "[]"
    inner, pad = "\n" + "  " * (depth + 1), "\n" + "  " * (depth + 2)
    parts = [None, "," + pad, None, inner + "]," + inner + "[" + pad] * len(firsts)
    parts[0::4], parts[2::4], parts[-1] = firsts, seconds, inner + "]\n" + "  " * depth + "]"
    return "[" + inner + "[" + pad + "".join(parts)


def _json_object(fields: dict[str, str], depth: int) -> str:
    """Encoded values under sorted keys, laid out as json.dumps(indent=2, sort_keys=True) does."""
    inner = "\n" + "  " * (depth + 1)
    body = ("," + inner).join(f"{_encode(k)}: {fields[k]}" for k in sorted(fields))
    return "{" + inner + body + "\n" + "  " * depth + "}"


def _globalization_json(glob: Globalization) -> str:
    """The fixed schema written directly: the bytes of json.dumps(payload, indent=2, sort_keys=True).

    json.dumps with an indent runs the pure-Python encoder, which costs more
    than building the globalization; the layout here is the same one, read
    off the seed index and class labels and joined once from its pieces.
    """
    isg = glob.action.semigroupoid
    q = glob.quotient
    out = glob.global_action
    name = [str(c) for c in out.carrier]
    point = [_encode(str(x)) for x in glob.action.carrier]
    # a seed is an array at depth 2 of "seeds", and at depth 4 inside a class's "members"
    seeds = []
    members: list[list[str]] = [[] for _ in name]
    for s, (ids, pts) in zip(isg.arrows, q._blocks):
        if pts:
            head = "[\n      " + _encode(s) + ",\n      "
            seeds.append(head + ("\n    ],\n    " + head).join(map(point.__getitem__, pts)) + "\n    ]")
            head = "[\n          " + _encode(s) + ",\n          "
            for c, k in zip(q._label[ids.start:ids.stop], pts):
                members[c].append(head + point[k])
    class_head = '{\n      "id": %d,\n      "members": [\n        '
    classes = [class_head % c + "\n        ],\n        ".join(m) + "\n        ]\n      ]\n    }" for c, m in enumerate(members)]

    families, maps = [], []
    for s, row, mask in zip(isg.arrows, out.rows, out.masks):
        arrow = _encode(s)
        families.append(_json_object({"arrow": arrow, "classes": "".join(_json_items(list(compress(name, mask)), 3))}, 2))
        defined = [d >= 0 for d in row]
        pairs = _json_pairs(list(compress(name, defined)), list(map(name.__getitem__, compress(row, defined))), 3)
        maps.append(_json_object({"arrow": arrow, "pairs": pairs}, 2))
    embedding = _json_pairs(point, list(map(name.__getitem__, glob.canonical_embedding._image)), 1)
    parts = ['{\n  "classes": ', *_json_items(classes, 1), ',\n  "embedding": ', embedding, ',\n  "families": ']
    parts += [*_json_items(families, 1), ',\n  "maps": ', *_json_items(maps, 1), ',\n  "seeds": ', *_json_items(seeds, 1), "\n}\n"]
    return "".join(parts)


def _parse_point_map(text: str) -> dict[str, str]:
    mapping: dict[str, str] = {}
    for tok in text.replace(",", " ").split():
        x, _, y = tok.partition("->")
        if not x or not y or "->" in y:
            raise UsageError(f"--embedding entry {tok} must read x->y")
        if x in mapping:
            raise UsageError(f"--embedding maps {x} more than once")
        mapping[x] = y
    return mapping


def _cmd_validate(args) -> int:
    all_ok = True
    structures = []
    for name in args.files:
        path = Path(name)
        if path.suffix == ".isgd":
            isg = load_structure(path)  # raises ValidationFailure on axiom errors
            print(f"{name}: ok (inverse semigroupoid, {len(isg.arrows)} arrows, "
                  f"{sum(isg._idem)} idempotents)")
            structures.append(isg)
        elif path.suffix == ".pact":
            action, isg = load_action(path)
            p_rep = validate_p_axioms(action)
            e_rep = validate_e_axioms(action)
            print(p_rep.render(f"{name} [definitional axioms]"))
            print(e_rep.render(f"{name} [bijection axioms]"))
            all_ok = all_ok and p_rep.ok and e_rep.ok
            structures.append(isg)
        else:
            raise UsageError(f"unknown file extension: {name}")
    if args.dot:
        for isg in structures:
            sys.stdout.write(_structure_dot(isg))
    return 0 if all_ok else 1


def _cmd_restrict(args) -> int:
    action, _, ref = _load_action(Path(args.action))
    subset = [x for x in args.subset.replace(",", " ").split()]
    points = {str(x) for x in action.carrier}
    unknown = [x for x in dict.fromkeys(subset) if x not in points]
    if unknown:
        raise UsageError("--subset names points outside the carrier: " + ", ".join(unknown))
    restricted = restrict(action, subset, trim=args.trim)
    sys.stdout.write(format_action(restricted, ref))
    return 0


def _cmd_globalize(args) -> int:
    action, _ = load_action(args.action)
    glob = build_globalization(action)
    if args.format == "table":
        sys.stdout.write(_globalization_table(glob))
    elif args.format == "json":
        sys.stdout.write(_globalization_json(glob))
    else:
        sys.stdout.write(_quotient_dot(glob))
    return 0


def _cmd_mediate(args) -> int:
    action, _ = load_action(args.action)
    target_action, _ = load_action(args.target)  # the two files usually share their structure, loaded once
    if args.embedding is not None:
        raw = _parse_point_map(args.embedding)
        points = {str(x) for x in action.carrier}
        unknown = [x for x in raw if x not in points]
        if unknown:
            raise UsageError("--embedding maps points outside the carrier: " + ", ".join(unknown))
        unmapped = [x for x in action.carrier if str(x) not in raw]
        if unmapped:
            raise UsageError("--embedding gives no image for: " + ", ".join(str(x) for x in unmapped))
        images = {str(y) for y in target_action.carrier}
        outside = [y for y in dict.fromkeys(raw.values()) if y not in images]
        if outside:
            raise UsageError("--embedding maps to points outside the target carrier: " + ", ".join(outside))
        mapping = {x: raw[str(x)] for x in action.carrier}
    else:
        outside = [str(x) for x in action.carrier if x not in target_action]
        if outside:
            raise UsageError("the default embedding x->x maps to points outside the target carrier: " + ", ".join(outside))
        mapping = {x: x for x in action.carrier}
    j = ActionMap(action, target_action, mapping)
    glob = build_globalization(action)  # a bad input is refused by its own report, before the target
    target = GlobalizationTriple(j) if args.strict else j
    sigma = mediating(glob, target)
    body = ", ".join(f"{c} -> {sigma.mapping[c]}" for c in glob.global_action.carrier)
    print(f"sigma: {body}")
    fiber = check_fiber_injectivity(sigma, glob)
    print(fiber.render("fiber injectivity"))
    return 0 if fiber.ok else 1


def _cmd_check(args) -> int:
    action, _ = load_action(args.action)
    p_rep = validate_p_axioms(action)
    e_rep = validate_e_axioms(action)
    print(p_rep.render("definitional axioms"))
    print(e_rep.render("bijection axioms"))
    print("equivalence audit: " + ("agree" if p_rep.ok == e_rep.ok else "the two axiom systems DISAGREE"))
    return 0 if p_rep.ok and e_rep.ok else 1


def _cmd_catalog(args) -> int:
    if args.entry is None:
        for entry in catalog():
            tags = ", ".join(
                f"{ca.name}({'global' if ca.global_tag else 'partial'})" for ca in entry.actions
            )
            print(f"{entry.name}: {len(entry.structure.arrows)} arrows; actions: {tags}")
        return 0
    if args.entry not in ENTRY_NAMES:
        raise UsageError(f"unknown catalog entry {args.entry}")
    entry = catalog_entry(args.entry)  # builds this entry alone
    if args.emit_structure:
        sys.stdout.write(format_structure(entry.structure))
        return 0
    if args.action is None:
        raise UsageError("--action is required unless --emit-structure is given")
    global_indices = [i for i, ca in enumerate(entry.actions) if ca.global_tag]
    if args.action not in global_indices:
        valid = ", ".join(map(str, global_indices))
        raise UsageError(f"--action {args.action} is not a global action of {entry.name}; valid indices: {valid}")
    restricted = random_partial_action(entry, args.action, args.seed)
    sys.stdout.write(format_action(restricted, f"{entry.name}.isgd"))
    return 0


@functools.cache  # one parse tree per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="isgact", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate structure (.isgd) and action (.pact) files")
    p.add_argument("files", nargs="+")
    p.add_argument("--dot", action="store_true", help="also print the structure graphs as DOT")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("restrict", help="restrict an action to a carrier subset")
    p.add_argument("action")
    p.add_argument("--subset", required=True, help="comma or space separated elements")
    p.add_argument("--trim", action="store_true", help="drop uncovered elements instead of failing")
    p.set_defaults(func=_cmd_restrict)

    p = sub.add_parser("globalize", help="build the universal globalization of an action")
    p.add_argument("action")
    p.add_argument("--format", choices=("table", "dot", "json"), default="table")
    p.set_defaults(func=_cmd_globalize)

    p = sub.add_parser("mediate", help="factor a map into a global action through the globalization")
    p.add_argument("action")
    p.add_argument("--target", required=True, help="a .pact file with a global action")
    p.add_argument("--embedding", help="carrier map into the target, e.g. 1->1,2->2 (default: x->x)")
    p.add_argument("--strict", action="store_true", help="require the target map to be an embedding")
    p.set_defaults(func=_cmd_mediate)

    p = sub.add_parser("check", help="validate an action under both axiom systems and audit that they agree")
    p.add_argument("action")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("catalog", help="list built-in structures or emit seeded restrictions")
    p.add_argument("--entry")
    p.add_argument("--emit-structure", action="store_true")
    p.add_argument("--action", type=int, help="index of a global action of the entry")
    p.add_argument("--seed", type=int, default=0, help="seed for the random carrier subset")
    p.set_defaults(func=_cmd_catalog)
    return parser


def run_cli(argv: list[str]) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValidationFailure as exc:
        print(str(exc))
        return 1
    except (CoverageError, StructuralError, WellDefinednessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))
