"""Relation-sequence patterns of explanation paths and their frequencies."""

from __future__ import annotations

from dataclasses import dataclass

from .environment import Path
from .errors import DataError, atomic_write
from .kg import KnowledgeGraph
from .schema import RELATION_SCHEMA, SELF_LOOP, relation_types

RELATION_GLOSS = {
    "enrolled": "enrolled",
    "enrolled_inv": "also_taken_by",
    "teaches": "teaches",
    "teaches_inv": "taught_by",
    "has_concept": "covers",
    "has_concept_inv": "covered_in",
    "belongs_to": "in_category",
    "belongs_to_inv": "has_course",
    "provides": "provides",
    "provides_inv": "provided_by",
}


@dataclass(frozen=True)
class PathPattern:
    """Self-loop-stripped relation sequence; entity types follow the schema."""

    relations: tuple[str, ...]

    @property
    def length(self) -> int:
        return len(self.relations)

    def entity_types(self, start_type: str = "learner") -> tuple[str, ...]:
        types = [start_type]
        for rel in self.relations:
            types.append(relation_types(rel)[1])
        return tuple(types)

    def render(self) -> str:
        """Typed phrasing, e.g. 'learner —enrolled→ course —enrolled⁻¹→ learner ...'."""
        types = self.entity_types()
        parts = [types[0]]
        for rel, tail_type in zip(self.relations, types[1:]):
            name = rel.replace("_inv", "⁻¹")
            parts.append(f"—{name}→ {tail_type}")
        return " ".join(parts)


def pattern_of(path: Path) -> PathPattern:
    return PathPattern(path.stripped_relations())


def frequency_report(paths: list[Path]) -> list[tuple[PathPattern, int, float]]:
    """(pattern, count, fraction) sorted by fraction descending.

    Paths that do not terminate on a course are excluded before counting;
    fractions are over the remaining paths and sum to 1.
    """
    if not paths:
        raise DataError("no paths to analyze")
    counts: dict[tuple[str, ...], int] = {}
    total = 0
    for path in paths:
        if path.final_entity.entity_type != "course":
            continue
        rels = path.stripped_relations()
        counts[rels] = counts.get(rels, 0) + 1
        total += 1
    if total == 0:
        raise DataError("every path was invalid (none ends on a course)")
    rows = [
        (PathPattern(rels), count, count / total) for rels, count in counts.items()
    ]
    rows.sort(key=lambda row: (-row[2], row[0].relations))
    return rows


def enumerate_patterns(
    length: int, relations_present: set[str] | None = None, start_type: str = "learner"
) -> set[tuple[str, ...]]:
    """All schema-walkable course-terminal relation sequences of this length.

    `relations_present` limits the walk to forward relations that actually
    occur in a graph (inverses implied); by default the full schema is used.
    """
    allowed = {
        rel
        for rel in RELATION_SCHEMA
        if relations_present is None
        or rel in relations_present
        or rel.removesuffix("_inv") in relations_present
    }
    results: set[tuple[str, ...]] = set()

    def walk(current_type: str, prefix: tuple[str, ...]) -> None:
        if len(prefix) == length:
            if current_type == "course":
                results.add(prefix)
            return
        for rel in sorted(allowed):
            head, tail = relation_types(rel)
            if head == current_type:
                walk(tail, (*prefix, rel))

    walk(start_type, ())
    return results


def render_path(path: Path, kg: KnowledgeGraph) -> str:
    """Human-readable best-path text with raw IDs and relation glosses."""
    parts = [kg.raw_id(path.start)]
    for rel, ent in path.hops:
        if rel == SELF_LOOP:
            continue
        parts.append(f"—{RELATION_GLOSS[rel]}→ {kg.raw_id(ent)}")
    return " ".join(parts)


def render_path_dot(path: Path, kg: KnowledgeGraph) -> str:
    """The same path as a DOT digraph, one node per visited entity."""
    lines = ["digraph explanation {", "  rankdir=LR;"]
    for i, (rel, ent) in enumerate([(None, path.start), *path.stripped().hops]):
        raw = kg.raw_id(ent).replace("\\", "\\\\").replace('"', '\\"')  # quoted in DOT
        lines.append(f'  n{i} [label="{raw}\\n({ent.entity_type})"];')
        if i:
            lines.append(f'  n{i - 1} -> n{i} [label="{RELATION_GLOSS[rel]}"];')
    lines.append("}")
    return "\n".join(lines)


def save_frequency_csv(rows: list[tuple[PathPattern, int, float]], path: str) -> None:
    with atomic_write(path) as fh:
        fh.write("pattern,count,fraction\n")
        for pattern, count, fraction in rows:
            fh.write(f"{'|'.join(pattern.relations)},{count},{fraction:.6f}\n")


def format_frequency_block(rows: list[tuple[PathPattern, int, float]]) -> str:
    lines = []
    for pattern, count, fraction in rows:
        lines.append(f"{fraction * 100:5.1f}%  ({count:>6})  {pattern.render()}")
    return "\n".join(lines)
