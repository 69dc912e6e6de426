"""Line-oriented text formats for structures (.isgd) and actions (.pact).

Names are whitespace-separated tokens, so `*` is an ordinary character and
arrow names like a*a read verbatim.  A `#` starts a comment anywhere.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from pathlib import Path

from .actions import PartialAction
from .core import (
    InverseSemigroupoid,
    SemigroupoidTable,
    ValidationReport,
    Violation,
    infer_inverses,
)


class ParseError(ValueError):
    def __init__(self, line: int, col: int, message: str):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, col {col}: {message}")


class ValidationFailure(Exception):
    """A file parsed fine but its content fails the axioms."""

    def __init__(self, subject: str, report: ValidationReport):
        self.subject = subject
        self.report = report
        super().__init__(report.render(subject))


@dataclass(frozen=True)
class StructureDoc:
    """Parsed structure file: the raw table plus any declared inverse map."""

    table: SemigroupoidTable
    inverse: dict[str, str] | None


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        if body.strip():
            yield lineno, body


def _token_col(body: str, token_index: int) -> int:
    col = 0
    for i, tok in enumerate(body.split()):
        col = body.index(tok, col)
        if i == token_index:
            return col + 1
        col += len(tok)
    return 1


_SECTION = re.compile(r"^\[([^\]]*)\]\s*$")


def parse_structure(text: str) -> StructureDoc:
    """Parse an .isgd file.

    The multiplication section must define exactly the composable pairs:
    a line on a non-composable pair and a missing composable pair are both
    positioned parse errors.  Everything semantic beyond that shape is left
    to the validators.
    """
    sections: dict[str, list[tuple[int, str]]] = {}
    current: str | None = None
    for lineno, body in _content_lines(text):
        m = _SECTION.match(body.strip())
        if m:
            current = m.group(1).strip()
            if current not in ("objects", "arrows", "mul", "inverse"):
                raise ParseError(lineno, 1, f"unknown section [{current}]")
            if current in sections:
                raise ParseError(lineno, 1, f"duplicate section [{current}]")
            sections[current] = []
            continue
        if current is None:
            raise ParseError(lineno, 1, "content before any section header")
        sections[current].append((lineno, body))

    for required in ("objects", "arrows", "mul"):
        if required not in sections:
            raise ParseError(1, 1, f"missing section [{required}]")

    objects: list[str] = []
    for lineno, body in sections["objects"]:
        objects.extend(body.split())
    if len(set(objects)) != len(objects):
        raise ParseError(1, 1, "duplicate object name in [objects]")

    arrows: list[str] = []
    dom: dict[str, str] = {}
    cod: dict[str, str] = {}
    for lineno, body in sections["arrows"]:
        toks = body.split()
        if len(toks) != 5 or toks[1] != ":" or toks[3] != "->":
            raise ParseError(lineno, 1, "arrow line must read: name : dom -> cod")
        name, d, c = toks[0], toks[2], toks[4]
        if name in dom:
            raise ParseError(lineno, 1, f"duplicate arrow {name}")
        for ti, o in ((2, d), (4, c)):
            if o not in objects:
                raise ParseError(lineno, _token_col(body, ti), f"unknown object {o}")
        arrows.append(name)
        dom[name] = d
        cod[name] = c

    arrow_set = set(arrows)
    mul: dict[tuple[str, str], str] = {}
    mul_header_line = 1
    for lineno, body in _content_lines(text):
        if body.strip() == "[mul]":
            mul_header_line = lineno
            break
    for lineno, body in sections["mul"]:
        toks = body.split()
        if len(toks) != 4 or toks[2] != "=":
            raise ParseError(lineno, 1, "mul line must read: s t = u")
        s, t, u = toks[0], toks[1], toks[3]
        for ti, name in ((0, s), (1, t), (3, u)):
            if name not in arrow_set:
                raise ParseError(lineno, _token_col(body, ti), f"unknown arrow {name}")
        if dom[s] != cod[t]:
            raise ParseError(lineno, 1, f"pair ({s}, {t}) is not composable")
        if (s, t) in mul:
            raise ParseError(lineno, 1, f"duplicate product for ({s}, {t})")
        mul[(s, t)] = u
    missing = [(s, t) for s in arrows for t in arrows if dom[s] == cod[t] and (s, t) not in mul]
    if missing:
        shown = ", ".join(f"({s}, {t})" for s, t in missing[:6])
        more = "" if len(missing) <= 6 else f" and {len(missing) - 6} more"
        raise ParseError(mul_header_line, 1, f"composable pairs without a product: {shown}{more}")

    inverse: dict[str, str] | None = None
    if "inverse" in sections:
        inverse = {}
        for lineno, body in sections["inverse"]:
            toks = body.split()
            if len(toks) != 3 or toks[1] != "=":
                raise ParseError(lineno, 1, "inverse line must read: s = t")
            s, t = toks[0], toks[2]
            for ti, name in ((0, s), (2, t)):
                if name not in arrow_set:
                    raise ParseError(lineno, _token_col(body, ti), f"unknown arrow {name}")
            if s in inverse:
                raise ParseError(lineno, 1, f"duplicate inverse for {s}")
            inverse[s] = t

    return StructureDoc(SemigroupoidTable(objects, arrows, dom, cod, mul), inverse)


def format_structure(structure: SemigroupoidTable | InverseSemigroupoid) -> str:
    """Canonical text for a structure; inverse section only when one is known."""
    if isinstance(structure, InverseSemigroupoid):
        table = structure.table
        inverse = structure.inverse_map()
    else:
        table = structure
        inverse = None
    lines = ["[objects]"]
    lines.extend(table.objects)
    lines.append("")
    lines.append("[arrows]")
    lines.extend(f"{a} : {table.dom(a)} -> {table.cod(a)}" for a in table.arrows)
    lines.append("")
    lines.append("[mul]")
    lines.extend(f"{s} {t} = {table.mul(s, t)}" for s, t in table.defined_pairs())
    if inverse is not None:
        lines.append("")
        lines.append("[inverse]")
        lines.extend(f"{a} = {inverse[a]}" for a in table.arrows)
    return "\n".join(lines) + "\n"


_INLINE = re.compile(r"^\[([^\]]*)\]\s*=(.*)$")


def structure_ref(text: str) -> str:
    """The `structure = <path>` header of an action file."""
    for lineno, body in _content_lines(text):
        toks = body.split(None, 2)
        if len(toks) >= 2 and toks[0] == "structure" and toks[1] == "=":
            if len(toks) < 3 or not toks[2].strip():
                raise ParseError(lineno, 1, "empty structure reference")
            if "\x00" in toks[2]:
                raise ParseError(lineno, 1, "structure reference contains a NUL byte")
            return toks[2].strip()
        break
    raise ParseError(1, 1, "action file must start with: structure = <path>")


def parse_action(text: str, isg: InverseSemigroupoid) -> PartialAction:
    """Parse a .pact file against an already-loaded structure.

    Shape only: names must be declared and sections complete; whether the
    per-arrow maps really are bijections between the right domains is the
    validators' business.
    """
    structure_ref(text)  # insist the header is present and well formed
    carrier: list[str] | None = None
    dom_of: dict[str, list[str]] = {}
    maps: dict[str, dict[str, str]] = {}
    arrow_set = set(isg.arrows)

    for lineno, body in _content_lines(text):
        stripped = body.strip()
        toks = stripped.split(None, 2)
        if len(toks) >= 2 and toks[0] == "structure" and toks[1] == "=":
            continue
        m = _INLINE.match(stripped)
        if not m:
            raise ParseError(lineno, 1, "expected [carrier], [domain s] or [map s] line")
        head = m.group(1).split()
        payload = m.group(2).split()
        if head == ["carrier"]:
            if carrier is not None:
                raise ParseError(lineno, 1, "duplicate [carrier] section")
            if len(set(payload)) != len(payload):
                raise ParseError(lineno, 1, "duplicate carrier element")
            carrier = payload
            continue
        if len(head) != 2 or head[0] not in ("domain", "map"):
            raise ParseError(lineno, 1, f"unknown section [{m.group(1)}]")
        kind, arrow = head
        if arrow not in arrow_set:
            raise ParseError(lineno, 1, f"unknown arrow {arrow}")
        if carrier is None:
            raise ParseError(lineno, 1, "[carrier] must come before domain and map sections")
        store = dom_of if kind == "domain" else maps
        if arrow in store:
            raise ParseError(lineno, 1, f"duplicate [{kind} {arrow}] section")
        if kind == "domain":
            for x in payload:
                if x not in carrier:
                    raise ParseError(lineno, 1, f"domain element {x} is not in the carrier")
            dom_of[arrow] = payload
        else:
            entries: dict[str, str] = {}
            for tok in payload:
                if "->" not in tok:
                    raise ParseError(lineno, 1, f"map entry {tok} must read x->y")
                x, _, y = tok.partition("->")
                if x not in carrier or y not in carrier:
                    raise ParseError(lineno, 1, f"map entry {tok} leaves the carrier")
                if x in entries:
                    raise ParseError(lineno, 1, f"duplicate map entry for {x}")
                entries[x] = y
            maps[arrow] = entries

    if carrier is None:
        raise ParseError(1, 1, "missing [carrier] section")
    for a in isg.arrows:
        if a not in dom_of:
            raise ParseError(1, 1, f"missing [domain {a}] section")
        if a not in maps:
            raise ParseError(1, 1, f"missing [map {a}] section")
    return PartialAction(isg, carrier, dom_of, maps)


def format_action(action: PartialAction, ref: str) -> str:
    """Canonical text for an action over the structure referenced by ``ref``."""
    lines = [f"structure = {ref}", ""]
    lines.append("[carrier] = " + " ".join(str(x) for x in action.carrier))
    for s in action.semigroupoid.arrows:
        dom = action.sorted_elements(action.dom_of[s])
        lines.append(f"[domain {s}] = " + " ".join(str(x) for x in dom))
        pairs = action.sorted_elements(action.theta[s])
        lines.append(f"[map {s}] = " + " ".join(f"{x}->{action.theta[s][x]}" for x in pairs))
    return "\n".join(lines) + "\n"


def _read_text(path: Path) -> str:
    """The file's contents; a byte that is not UTF-8 is a positioned parse error naming the file."""
    data = path.read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        col = exc.start - data.rfind(b"\n", 0, exc.start)
        raise ParseError(line, col, f"{path} is not UTF-8 text (byte 0x{data[exc.start]:02x})") from None


def load_structure(path: str | Path) -> InverseSemigroupoid:
    """Read, parse, validate, and inverse-check a structure file."""
    path = Path(path)
    doc = parse_structure(_read_text(path))
    result = infer_inverses(doc.table)
    if isinstance(result, ValidationReport):
        raise ValidationFailure(str(path), result)
    if doc.inverse is not None and doc.inverse != result.inverse_map():
        inferred = result.inverse_map()
        off = sorted(s for s in set(doc.inverse) | set(inferred) if doc.inverse.get(s) != inferred.get(s))
        raise ValidationFailure(
            str(path),
            ValidationReport(
                tuple(
                    Violation(
                        "declared-inverse",
                        f"declared inverse of {s} is {doc.inverse.get(s)} but the unique pseudo-inverse is {inferred.get(s)}",
                        (s,),
                    )
                    for s in off
                )
            ),
        )
    return result


def _load_structure_once(path: Path, loaded: dict[str, InverseSemigroupoid]) -> InverseSemigroupoid:
    """load_structure(path), unless ``loaded`` holds the file already; keys are resolved paths."""
    key = os.path.realpath(path)
    if key not in loaded:
        loaded[key] = load_structure(path)
    return loaded[key]


def _load_action(path: Path, loaded: dict[str, InverseSemigroupoid]) -> tuple[PartialAction, InverseSemigroupoid, str]:
    """The action file's action, its structure (through ``loaded``) and its structure reference."""
    text = _read_text(path)
    ref = structure_ref(text)
    isg = _load_structure_once(path.parent / ref, loaded)
    return parse_action(text, isg), isg, ref


def load_action(path: str | Path) -> tuple[PartialAction, InverseSemigroupoid]:
    """Read an action file, loading its structure relative to the file's directory."""
    action, isg, _ = _load_action(Path(path), {})
    return action, isg
