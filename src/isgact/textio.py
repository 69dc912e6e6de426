"""Line-oriented text formats for structures (.isgd) and actions (.pact).

Names are whitespace-separated tokens, so `*` is an ordinary character and
arrow names like a*a read verbatim.  A `#` starts a comment anywhere.

Each file is split into lines once, and each line is cut at its `#` once
(``_bodies``); every later pass reads those bodies.  An action file's
header is read off its first content line, and the same line iterator then
parses the rest, so loading an action splits its text once.

A loaded structure is shared by its file's bytes while something holds it:
a load whose file holds the same bytes as that of a live structure an
earlier load returned gets that same object, without parsing or checking it
again.  The share keys each structure by a digest of those bytes, not by
the text, and holds it weakly, so one that nothing else holds is gone, and
the next load of its file parses and checks it anew.  A file that fails is
never shared: every load of it raises, naming its own path.
"""

from __future__ import annotations

import re
import weakref
from dataclasses import dataclass
from pathlib import Path

try:
    from _blake2 import blake2b  # hashlib's own BLAKE2; importing hashlib maps OpenSSL too, about 4 MB of memory
except ImportError:  # a CPython built without its bundled BLAKE2
    from hashlib import blake2b

from .actions import PartialAction
from .core import (
    UNDEF,
    InverseSemigroupoid,
    SemigroupoidTable,
    StructuralError,
    ValidationReport,
    Violation,
    infer_inverses,
)


class ParseError(ValueError):
    def __init__(self, line: int, col: int, message: str, path: Path | None = None):
        self.line, self.col, self.message, self.path = line, col, message, path  # a loader names the file it read
        super().__init__(("" if path is None else f"{path}: ") + f"line {line}, col {col}: {message}")


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


def _bodies(text: str) -> list[str]:
    """The text's lines, each cut before its first `#`; a text without a `#` keeps its lines as split."""
    lines = text.splitlines()
    if "#" in text:
        for i, line in enumerate(lines):
            if "#" in line:
                lines[i] = line.partition("#")[0]
    return lines


def _section_lines(bodies: list[str], span: range):
    """(line number, body) for each line of a span of line indices that has content."""
    for i in span:
        body = bodies[i]
        if body.strip():
            yield i + 1, body


def _content_lines(text: str):
    bodies = _bodies(text)
    return _section_lines(bodies, range(len(bodies)))


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
    """Parse an .isgd file straight into the integer table.

    A first pass finds the section headers, so each section is a span of
    line indices; the sections are then read in a fixed order (objects,
    arrows, mul, inverse), names turning into indices as they are read.
    The multiplication section must define exactly the composable pairs:
    a line on a non-composable pair and a missing composable pair are both
    positioned parse errors.  Everything semantic beyond that shape is left
    to the validators.
    """
    lines = _bodies(text)
    spans: dict[str, range] = {}  # each section's content lines, as line indices
    current: str | None = None
    for i, body in enumerate(lines):
        if "[" not in body:  # not a header: only its place before every header matters here
            if current is None and body.strip():
                raise ParseError(i + 1, 1, "content before any section header")
            continue
        body = body.strip()
        m = _SECTION.match(body) if body[0] == "[" else None
        if m:
            name = m.group(1).strip()
            if name not in ("objects", "arrows", "mul", "inverse"):
                raise ParseError(i + 1, 1, f"unknown section [{name}]")
            if name in spans:
                raise ParseError(i + 1, 1, f"duplicate section [{name}]")
            if current is not None:
                spans[current] = range(spans[current].start, i)
            spans[name] = range(i + 1, len(lines))
            current = name
        elif current is None:
            raise ParseError(i + 1, 1, "content before any section header")

    for required in ("objects", "arrows", "mul"):
        if required not in spans:
            raise ParseError(1, 1, f"missing section [{required}]")

    oidx: dict[str, int] = {}
    for lineno, body in _section_lines(lines, spans["objects"]):
        for ti, o in enumerate(body.split()):
            if o in oidx:
                raise ParseError(lineno, _token_col(body, ti), f"duplicate object {o}")
            oidx[o] = len(oidx)

    aidx: dict[str, int] = {}
    dom: list[int] = []
    cod: list[int] = []
    for lineno, body in _section_lines(lines, spans["arrows"]):
        toks = body.split()
        if len(toks) != 5 or toks[1] != ":" or toks[3] != "->":
            raise ParseError(lineno, 1, "arrow line must read: name : dom -> cod")
        name, d, c = toks[0], toks[2], toks[4]
        if name in aidx:
            raise ParseError(lineno, 1, f"duplicate arrow {name}")
        for ti, o in ((2, d), (4, c)):
            if o not in oidx:
                raise ParseError(lineno, _token_col(body, ti), f"unknown object {o}")
        aidx[name] = len(aidx)
        dom.append(oidx[d])
        cod.append(oidx[c])

    arrows = tuple(aidx)
    mul = [[UNDEF] * len(arrows) for _ in arrows]
    index = aidx.get
    written = 0
    for lineno, body in _section_lines(lines, spans["mul"]):
        toks = body.split()
        if len(toks) != 4 or toks[2] != "=":
            raise ParseError(lineno, 1, "mul line must read: s t = u")
        s, t, u = index(toks[0]), index(toks[1]), index(toks[3])
        if s is None or t is None or u is None:
            ti = next(ti for ti in (0, 1, 3) if toks[ti] not in aidx)
            raise ParseError(lineno, _token_col(body, ti), f"unknown arrow {toks[ti]}")
        if dom[s] != cod[t]:
            raise ParseError(lineno, 1, f"pair ({toks[0]}, {toks[1]}) is not composable")
        row = mul[s]
        if row[t] != UNDEF:
            raise ParseError(lineno, 1, f"duplicate product for ({toks[0]}, {toks[1]})")
        row[t] = u
        written += 1
    table = SemigroupoidTable._from_ints(tuple(oidx), arrows, dom, cod, mul)
    # every product sits on a distinct composable pair, so a shortfall in the count is a missing product
    if written != sum(len(table._into[d]) for d in dom):
        missing = [(arrows[s], arrows[t]) for s, t in table._composable() if mul[s][t] == UNDEF]
        shown = ", ".join(f"({s}, {t})" for s, t in missing[:6])
        more = "" if len(missing) <= 6 else f" and {len(missing) - 6} more"
        # a span starts one line after its header, so its start index is the header's line number
        raise ParseError(spans["mul"].start, 1, f"composable pairs without a product: {shown}{more}")

    inverse: dict[str, str] | None = None
    if "inverse" in spans:
        inverse = {}
        for lineno, body in _section_lines(lines, spans["inverse"]):
            toks = body.split()
            if len(toks) != 3 or toks[1] != "=":
                raise ParseError(lineno, 1, "inverse line must read: s = t")
            s, t = toks[0], toks[2]
            for ti, name in ((0, s), (2, t)):
                if name not in aidx:
                    raise ParseError(lineno, _token_col(body, ti), f"unknown arrow {name}")
            if s in inverse:
                raise ParseError(lineno, 1, f"duplicate inverse for {s}")
            inverse[s] = t

    return StructureDoc(table, inverse)


def _refuse_unreadable(kind: str, names, *banned: str) -> None:
    """Raise StructuralError naming the first of ``names`` that its parser would not read back.

    A name is read as one token: it must be non-empty, hold no whitespace
    (line breaks included), no `#`, which starts a comment, and none of
    ``banned``.
    """
    for x in names:
        if x.split() != [x] or any(b in x for b in ("#", *banned)):
            raise StructuralError(f"{kind} {x!r} cannot be written: it would not read back as one name")


def format_structure(structure: SemigroupoidTable) -> str:
    """Canonical text for a table; the inverse section only when it is an ``InverseSemigroupoid``.

    A name that would not read back, or that starts a line reading as a
    section header (an object `[u]`, say), raises StructuralError.
    """
    objects, arrows = structure.objects, structure.arrows
    _refuse_unreadable("object", objects)
    _refuse_unreadable("arrow", arrows)
    sections = {
        "objects": list(objects),
        "arrows": [f"{a} : {objects[d]} -> {objects[c]}" for a, d, c in zip(arrows, structure._dom, structure._cod)],
        "mul": [f"{s} {arrows[t]} = {arrows[u]}" for s, row in zip(arrows, structure._mul) for t, u in enumerate(row) if u != UNDEF],
    }
    if isinstance(structure, InverseSemigroupoid):
        sections["inverse"] = [f"{a} = {arrows[i]}" for a, i in zip(arrows, structure._inv)]
    for lines in sections.values():
        for line in lines:
            if line[0] == "[" and _SECTION.match(line):
                raise StructuralError(f"name {line.split()[0]!r} cannot be written: its line {line} reads as a section header")
    return "\n\n".join("\n".join([f"[{name}]", *lines]) for name, lines in sections.items()) + "\n"


_INLINE = re.compile(r"^\[(.*?)\]\s*=(.*)$")  # the header runs to the `]` before the `=`, so an arrow name may hold a `]`


def _header(lines) -> str:
    """The path in the `structure = <path>` header, read off the first of an action file's content lines."""
    for lineno, body in lines:
        toks = body.split(None, 2)
        if len(toks) >= 2 and toks[0] == "structure" and toks[1] == "=":
            if len(toks) < 3 or not toks[2].strip():
                raise ParseError(lineno, 1, "empty structure reference")
            if "\x00" in toks[2]:
                raise ParseError(lineno, 1, "structure reference contains a NUL byte")
            return toks[2].strip()
        break
    raise ParseError(1, 1, "action file must start with: structure = <path>")


def structure_ref(text: str) -> str:
    """The `structure = <path>` header of an action file."""
    return _header(_content_lines(text))


def parse_action(text: str, isg: InverseSemigroupoid) -> PartialAction:
    """Parse a .pact file against an already-loaded structure.

    Shape only: names must be declared and sections complete; whether the
    per-arrow maps really are bijections between the right domains is the
    validators' business.  Names become arrow and carrier positions here,
    written straight into the action's rows and masks.
    """
    lines = _content_lines(text)
    _header(lines)  # insist the first content line is a well-formed header
    return _parse_sections(lines, isg)


def _parse_sections(lines, isg: InverseSemigroupoid) -> PartialAction:
    """The action read off an action file's content lines after its header."""
    carrier: list[str] | None = None
    points: dict[str, int] = {}  # each carrier element's position
    aidx = isg._aidx
    masks: list = [None] * len(aidx)  # per arrow position, set by its section
    rows: list = [None] * len(aidx)

    for lineno, body in lines:
        stripped = body.strip()
        m = _INLINE.match(stripped)
        if not m:
            toks = stripped.split(None, 2)  # a `structure = ...` line starts with no `[`, so it lands here
            if len(toks) >= 2 and toks[0] == "structure" and toks[1] == "=":
                raise ParseError(lineno, 1, "duplicate structure header")
            raise ParseError(lineno, 1, "expected [carrier], [domain s] or [map s] line")
        head = m.group(1).split()
        payload = m.group(2).split()
        if head == ["carrier"]:
            if carrier is not None:
                raise ParseError(lineno, 1, "duplicate [carrier] section")
            points = {x: i for i, x in enumerate(payload)}
            if len(points) != len(payload):
                repeated = next(x for i, x in enumerate(payload) if points[x] != i)
                raise ParseError(lineno, 1, f"duplicate carrier element {repeated}")
            if "->" in m.group(2):
                x = next(x for x in payload if "->" in x)
                raise ParseError(lineno, body.index(x, body.index("=")) + 1, f"carrier element {x} contains '->', so no map entry can name it")
            carrier = payload
            continue
        if len(head) != 2 or head[0] not in ("domain", "map"):
            raise ParseError(lineno, 1, f"unknown section [{m.group(1)}]")
        kind, arrow = head
        a = aidx.get(arrow)
        if a is None:
            raise ParseError(lineno, 1, f"unknown arrow {arrow}")
        if carrier is None:
            raise ParseError(lineno, 1, "[carrier] must come before domain and map sections")
        store = masks if kind == "domain" else rows
        if store[a] is not None:
            raise ParseError(lineno, 1, f"duplicate [{kind} {arrow}] section")
        if kind == "domain":
            mask = masks[a] = [False] * len(carrier)
            for x in payload:
                k = points.get(x)
                if k is None:
                    raise ParseError(lineno, 1, f"domain element {x} is not in the carrier")
                if mask[k]:
                    raise ParseError(lineno, 1, f"duplicate domain element {x}")
                mask[k] = True
        else:
            row = rows[a] = [-1] * len(carrier)
            for tok in payload:
                if "->" not in tok:
                    raise ParseError(lineno, 1, f"map entry {tok} must read x->y")
                x, _, y = tok.partition("->")
                k, j = points.get(x), points.get(y)
                if k is None or j is None:
                    raise ParseError(lineno, 1, f"map entry {tok} leaves the carrier")
                if row[k] >= 0:
                    raise ParseError(lineno, 1, f"duplicate map entry for {x}")
                row[k] = j

    if carrier is None:
        raise ParseError(1, 1, "missing [carrier] section")
    for s, mask, row in zip(isg.arrows, masks, rows):
        if mask is None:
            raise ParseError(1, 1, f"missing [domain {s}] section")
        if row is None:
            raise ParseError(1, 1, f"missing [map {s}] section")
    return PartialAction._from_rows(isg, tuple(carrier), rows, masks)


def format_action(action: PartialAction, ref: str) -> str:
    """Canonical text for an action over the structure referenced by ``ref``.

    A carrier element or arrow name that would not read back raises
    StructuralError: a carrier element may not contain `->`, and an arrow
    name may not contain `]=`, which would end its section header early.
    So do two carrier elements written as one name, and a ``ref`` that the
    header would not read back unchanged: an empty one, or one with outer
    whitespace, a line break, a `#` or a NUL.  Inner spaces are kept.
    """
    header = f"structure = {ref}"
    try:
        back = structure_ref(header)
    except ParseError:
        back = None
    if back != ref:
        raise StructuralError(f"structure reference {ref!r} cannot be written: it would not read back unchanged")
    written = list(map(str, action.carrier))
    _refuse_unreadable("carrier element", written, "->")
    _refuse_unreadable("arrow", action.semigroupoid.arrows, "]=")
    first: dict[str, object] = {}
    for x, text in zip(action.carrier, written):
        y = first.setdefault(text, x)
        if y is not x:
            raise StructuralError(f"carrier elements {y!r} and {x!r} cannot both be written: each reads back as {text}")
    name = action.carrier
    lines = [header, "", "[carrier] = " + " ".join(written)]
    for s, mask, row in zip(action.semigroupoid.arrows, action.masks, action.rows):
        lines.append(f"[domain {s}] = " + " ".join(str(x) for x, inside in zip(name, mask) if inside))
        lines.append(f"[map {s}] = " + " ".join(f"{x}->{name[j]}" for x, j in zip(name, row) if j >= 0))
    return "\n".join(lines) + "\n"


def _read_text(path: Path) -> str:
    """The file's contents without a leading byte-order mark; a byte that is not UTF-8 is a parse error naming the file."""
    return _decode(path.read_bytes(), path)


def _decode(data: bytes, path: Path) -> str:
    """The text of a file's bytes without a leading byte-order mark; a byte that is not UTF-8 is a parse error naming the file.

    The error's line and column count the file's bytes, the mark included.
    """
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        col = exc.start - data.rfind(b"\n", 0, exc.start)
        raise ParseError(line, col, f"not UTF-8 text (byte 0x{data[exc.start]:02x})", path) from None


def _checked_structure(text: str, path: Path) -> InverseSemigroupoid:
    """Parse, validate and inverse-check a structure file's text; every failure names the file."""
    try:
        doc = parse_structure(text)
    except ParseError as exc:
        raise ParseError(exc.line, exc.col, exc.message, path) from None
    result = infer_inverses(doc.table)
    if isinstance(result, ValidationReport):
        raise ValidationFailure(str(path), result)
    inferred = None if doc.inverse is None else result.inverse_map()
    if doc.inverse != inferred:
        off = sorted(s for s in set(doc.inverse) | set(inferred) if doc.inverse.get(s) != inferred.get(s))
        raise ValidationFailure(
            str(path),
            ValidationReport(
                tuple(
                    Violation(
                        "declared-inverse",
                        (f"declared inverse of {s} is {doc.inverse[s]}" if s in doc.inverse else f"no inverse is declared for {s}")
                        + f" but the unique pseudo-inverse is {inferred[s]}",
                        (s,),
                    )
                    for s in off
                )
            ),
        )
    return result


# the live structures that loads returned, keyed by the 32-byte BLAKE2b digest of the bytes they were read
# from; two files whose bytes differ but share a digest would share a structure, a collision no one has found
_shared: weakref.WeakValueDictionary[bytes, InverseSemigroupoid] = weakref.WeakValueDictionary()


def load_structure(path: str | Path) -> InverseSemigroupoid:
    """Read, parse, validate, and inverse-check a structure file.

    A file whose bytes are those of a structure an earlier load returned,
    while something still holds that structure, gives that same structure
    without decoding or checking it again: a structure is a pure function of
    its file's bytes.  Only a structure that passed is shared, so a failing
    file raises on every load, naming its own path.
    """
    path = Path(path)
    data = path.read_bytes()
    key = blake2b(data, digest_size=32).digest()
    shared = _shared.get(key)
    if shared is None:
        shared = _shared[key] = _checked_structure(_decode(data, path), path)
    return shared


def _load_action(path: Path) -> tuple[PartialAction, InverseSemigroupoid, str]:
    """The action file's action, its structure and its structure reference.

    A parse error names the file it is in, this one or the structure file.
    """
    try:
        lines = _content_lines(_read_text(path))
        ref = _header(lines)  # a malformed header fails before any structure file is opened
        isg = load_structure(path.parent / ref)
        return _parse_sections(lines, isg), isg, ref
    except ParseError as exc:
        raise ParseError(exc.line, exc.col, exc.message, exc.path or path) from None


def load_action(path: str | Path) -> tuple[PartialAction, InverseSemigroupoid]:
    """Read an action file, loading its structure relative to the file's directory.

    The structure comes through ``load_structure``, so actions loaded while
    one of them is alive share the structure whenever their structure files
    hold the same bytes, whatever their paths.
    """
    action, isg, _ = _load_action(Path(path))
    return action, isg
