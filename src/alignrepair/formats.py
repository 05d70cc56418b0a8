"""Line-oriented input/output formats.

Ontology files carry one statement per line::

    CLASS <id>
    SUBCLASS <child> <parent>
    DISJOINT <a> <b>

`#` starts a comment, blank lines are ignored, and ids are any
whitespace-free tokens.  Alignments are tab-separated::

    source<TAB>target<TAB>relation<TAB>confidence

with relation one of `=`, `<`, `>` and an optional confidence defaulting
to 1.0.  Writing is canonical (sorted, fixed confidence formatting), so
write(parse(write(x))) == write(x).
"""

from __future__ import annotations

from pathlib import Path

from .model import (
    Alignment,
    ClassId,
    Mapping,
    ModelError,
    Ontology,
    Relation,
    build_ontology,
)


class FormatError(ValueError):
    """Syntactically invalid input file."""


def parse_ontology_file(text: str, side: int) -> Ontology:
    """Parse ontology statements; semantic checks run in build_ontology."""
    classes: list[str] = []
    edges: list[tuple[str, str]] = []
    disjoint: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        if not tokens:
            continue
        keyword = tokens[0]
        arity = len(tokens)
        if keyword == "SUBCLASS" and arity == 3:
            edges.append((tokens[1], tokens[2]))
        elif keyword == "CLASS" and arity == 2:
            classes.append(tokens[1])
        elif keyword == "DISJOINT" and arity == 3:
            disjoint.append((tokens[1], tokens[2]))
        elif keyword == "CLASS":
            raise FormatError(f"line {lineno}: CLASS takes one id")
        elif keyword == "SUBCLASS":
            raise FormatError(f"line {lineno}: SUBCLASS takes child and parent")
        elif keyword == "DISJOINT":
            raise FormatError(f"line {lineno}: DISJOINT takes two ids")
        else:
            raise FormatError(f"line {lineno}: unknown statement {keyword!r}")
    return build_ontology(side, classes, edges, disjoint)


def write_ontology_file(onto: Ontology) -> str:
    names = onto.names
    lines = [f"CLASS {name}" for name in names]
    lines += [f"SUBCLASS {names[c]} {names[p]}"
              for c, ps in enumerate(onto.parents) for p in ps]
    lines += [f"DISJOINT {names[a]} {names[b]}" for a, b in onto.disjoint]
    return "\n".join(lines) + "\n"


_RELATIONS = {r.value: r for r in Relation}


def parse_alignment_tsv(text: str) -> Alignment:
    """Parse a tab-separated alignment; duplicates by identity are errors."""
    mappings: list[Mapping] = []
    seen: set[tuple] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip() or raw.lstrip().startswith("#"):
            continue
        fields = raw.split("\t")
        if len(fields) not in (3, 4):
            raise FormatError(
                f"line {lineno}: expected 3 or 4 tab-separated fields, "
                f"got {len(fields)}"
            )
        source, target, rel_token = fields[0], fields[1], fields[2]
        if not source or not target:
            raise FormatError(f"line {lineno}: empty class id")
        if rel_token not in _RELATIONS:
            raise FormatError(
                f"line {lineno}: relation must be one of =, <, > "
                f"(got {rel_token!r})"
            )
        confidence = 1.0
        if len(fields) == 4:
            try:
                confidence = float(fields[3])
            except ValueError:
                raise FormatError(
                    f"line {lineno}: bad confidence {fields[3]!r}"
                ) from None
            if not 0.0 <= confidence <= 1.0:
                raise FormatError(
                    f"line {lineno}: confidence {confidence} outside [0, 1]"
                )
        mapping = Mapping(
            source=ClassId(source, 1),
            target=ClassId(target, 2),
            relation=_RELATIONS[rel_token],
            confidence=confidence,
        )
        if mapping.key in seen:
            raise FormatError(
                f"line {lineno}: duplicate mapping {mapping.describe()!r}"
            )
        seen.add(mapping.key)
        mappings.append(mapping)
    return Alignment(mappings)


def _read(path: str | Path, parse, *args):
    """Read `path` as UTF-8, dropping a leading BOM, and parse its text
    with `parse(text, *args)`.  An error in the file is raised again,
    with the same type, its message prefixed by the path as given."""
    try:
        return parse(Path(path).read_text(encoding="utf-8-sig"), *args)
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    except (FormatError, ModelError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def load_inputs(onto1: str | Path, onto2: str | Path,
                align: str | Path) -> tuple[Ontology, Ontology, Alignment]:
    """Read and parse the side-1 and side-2 ontology files and the
    alignment file.  A file may start with a UTF-8 BOM.  An error in a
    file starts with its path."""
    return (_read(onto1, parse_ontology_file, 1),
            _read(onto2, parse_ontology_file, 2),
            _read(align, parse_alignment_tsv))


def load_alignment(path: str | Path) -> Alignment:
    """Read and parse one alignment file, as `load_inputs` does."""
    return _read(path, parse_alignment_tsv)


def format_confidence(value: float) -> str:
    """Up to six decimal digits, at least one, no other trailing zeros."""
    text = f"{value:.6f}".rstrip("0")
    if text.endswith("."):
        text += "0"
    return text


def write_alignment_tsv(alignment: Alignment) -> str:
    lines = [
        f"{m.source.id}\t{m.target.id}\t{m.relation.value}\t"
        f"{format_confidence(m.confidence)}"
        for m in alignment
    ]
    return "\n".join(lines) + ("\n" if lines else "")
