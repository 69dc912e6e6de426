"""Command line front end: validate, restrict, globalize, mediate, check, catalog.

Exit codes: 0 all checks passed, 1 a validation failed, 2 parse or IO error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .actions import (
    CoverageError,
    check_derived_propositions,
    restrict,
    validate_e_axioms,
    validate_p_axioms,
)
from .catalog import catalog, random_partial_action
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
    _load_structure_once,
    format_action,
    format_structure,
    load_action,
)


class UsageError(ValueError):
    """A command-line argument is malformed or names nothing that exists."""


def _structure_dot(isg: InverseSemigroupoid) -> str:
    lines = ["digraph structure {", "  rankdir=LR;"]
    for o in isg.objects:
        lines.append(f'  "{o}";')
    for a in isg.arrows:
        lines.append(f'  "{isg.dom(a)}" -> "{isg.cod(a)}" [label="{a}"];')
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
    for s in isg.arrows:
        family = " ".join(str(c) for c in sorted(glob.global_action.dom_of[s]))
        lines.append(f"family[{s}] = {family}")
    for s in isg.arrows:
        moves = glob.global_action.theta[s]
        body = ", ".join(f"{c} -> {moves[c]}" for c in sorted(moves))
        lines.append(f"map[{s}]: {body}")
    emb = glob.canonical_embedding.mapping
    lines.append("embedding: " + ", ".join(f"{x} -> {emb[x]}" for x in glob.action.carrier))
    return "\n".join(lines) + "\n"


def _globalization_json(glob: Globalization) -> str:
    isg = glob.action.semigroupoid
    q = glob.quotient
    payload = {
        "seeds": [[s, str(x)] for s, x in q.seeds],
        "classes": [
            {"id": c, "members": [[s, str(x)] for s, x in members]}
            for c, members in enumerate(q.classes)
        ],
        "families": [
            {"arrow": s, "classes": sorted(glob.global_action.dom_of[s])} for s in isg.arrows
        ],
        "maps": [
            {"arrow": s, "pairs": [[c, glob.global_action.theta[s][c]] for c in sorted(glob.global_action.theta[s])]}
            for s in isg.arrows
        ],
        "embedding": [[str(x), glob.canonical_embedding.mapping[x]] for x in glob.action.carrier],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _parse_point_map(text: str) -> dict[str, str]:
    mapping: dict[str, str] = {}
    for tok in text.replace(",", " ").split():
        if "->" not in tok:
            raise UsageError(f"--embedding entry {tok} must read x->y")
        x, _, y = tok.partition("->")
        mapping[x] = y
    return mapping


def _cmd_validate(args) -> int:
    all_ok = True
    structures = []
    loaded: dict = {}  # each structure file is loaded once per command
    for name in args.files:
        path = Path(name)
        if path.suffix == ".isgd":
            isg = _load_structure_once(path, loaded)  # raises ValidationFailure on axiom errors
            print(f"{name}: ok (inverse semigroupoid, {len(isg.arrows)} arrows, "
                  f"{len(isg.idempotent_set())} idempotents)")
            structures.append(isg)
        elif path.suffix == ".pact":
            action, isg, _ = _load_action(path, loaded)
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
    action, _, ref = _load_action(Path(args.action), {})
    subset = [x for x in args.subset.replace(",", " ").split()]
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
    loaded: dict = {}  # the two files usually share their structure file
    action, _, _ = _load_action(Path(args.action), loaded)
    target_action, _, _ = _load_action(Path(args.target), loaded)
    if args.embedding:
        raw = _parse_point_map(args.embedding)
        points = {str(x) for x in action.carrier}
        unknown = [x for x in raw if x not in points]
        if unknown:
            raise UsageError("--embedding maps points outside the carrier: " + ", ".join(unknown))
        unmapped = [x for x in action.carrier if str(x) not in raw]
        if unmapped:
            raise UsageError("--embedding gives no image for: " + ", ".join(str(x) for x in unmapped))
        mapping = {x: raw[str(x)] for x in action.carrier}
    else:
        mapping = {x: x for x in action.carrier}
    j = ActionMap(action, target_action, mapping)
    target = GlobalizationTriple(j) if args.strict else j
    glob = build_globalization(action)
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
    ok = p_rep.ok and e_rep.ok
    if p_rep.ok != e_rep.ok:
        print("equivalence audit: the two axiom systems DISAGREE")
        ok = False
    else:
        print("equivalence audit: agree")
    if args.props:
        derived = check_derived_propositions(action)
        print(derived.render("derived propositions"))
        ok = ok and derived.ok
    return 0 if ok else 1


def _cmd_catalog(args) -> int:
    entries = {entry.name: entry for entry in catalog()}
    if args.entry is None:
        for entry in entries.values():
            tags = ", ".join(
                f"{ca.name}({'global' if ca.global_tag else 'partial'})" for ca in entry.actions
            )
            print(f"{entry.name}: {len(entry.structure.arrows)} arrows; actions: {tags}")
        return 0
    if args.entry not in entries:
        raise UsageError(f"unknown catalog entry {args.entry}")
    entry = entries[args.entry]
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

    p = sub.add_parser("check", help="validate an action and audit derived facts")
    p.add_argument("action")
    p.add_argument("--props", action="store_true", help="also check the derived propositions")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("catalog", help="list built-in structures or emit seeded restrictions")
    p.add_argument("--entry")
    p.add_argument("--emit-structure", action="store_true")
    p.add_argument("--action", type=int, help="index of a global action of the entry")
    p.add_argument("--seed", type=int, default=0, help="seed for the random carrier subset")
    p.set_defaults(func=_cmd_catalog)
    return parser


def run_cli(argv: list[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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


if __name__ == "__main__":
    main()
