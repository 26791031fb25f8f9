"""Entity/relation schema of the course knowledge graph.

The graph is typed: six entity types, five forward relations (each incident
to exactly one course endpoint), plus materialized inverse relations and a
special stay-in-place ``self_loop``. Inverse edges are stored explicitly so
path patterns can name the direction an edge was traversed in.
"""

from typing import NamedTuple

ENTITY_TYPES = ("category", "concept", "course", "learner", "school", "teacher")

# forward relation -> (head entity type, tail entity type)
FORWARD_RELATIONS: dict[str, tuple[str, str]] = {
    "belongs_to": ("course", "category"),
    "enrolled": ("learner", "course"),
    "has_concept": ("course", "concept"),
    "provides": ("school", "course"),
    "teaches": ("teacher", "course"),
}

INV_SUFFIX = "_inv"
SELF_LOOP = "self_loop"

# every traversable relation name -> (head type, tail type)
RELATION_SCHEMA: dict[str, tuple[str, str]] = dict(FORWARD_RELATIONS)
for _name, (_h, _t) in FORWARD_RELATIONS.items():
    RELATION_SCHEMA[_name + INV_SUFFIX] = (_t, _h)

# relation id -> name, for the graph's edges and the walk's actions: the
# self_loop is 0, then the names in sorted order, so each forward relation
# has an odd id and its inverse the next one
ACTION_RELATIONS = (SELF_LOOP, *sorted(RELATION_SCHEMA))


class EntityRef(NamedTuple):
    """One entity, identified by its type and dense index within that type."""

    entity_type: str
    index: int


def is_forward(relation: str) -> bool:
    return relation in FORWARD_RELATIONS


def is_inverse(relation: str) -> bool:
    return relation.endswith(INV_SUFFIX) and relation[: -len(INV_SUFFIX)] in FORWARD_RELATIONS


def forward_name(relation: str) -> str:
    """Forward counterpart of a relation name (identity for forward names)."""
    if is_forward(relation):
        return relation
    if is_inverse(relation):
        return relation[: -len(INV_SUFFIX)]
    raise KeyError(f"relation has no forward form: {relation!r}")


def inverse_of(relation: str) -> str:
    """Inverse relation name; an involution (inverse_of(inverse_of(r)) == r)."""
    if is_forward(relation):
        return relation + INV_SUFFIX
    if is_inverse(relation):
        return relation[: -len(INV_SUFFIX)]
    raise KeyError(f"relation has no inverse: {relation!r}")


def relation_types(relation: str) -> tuple[str, str]:
    """(head type, tail type) for a forward or inverse relation."""
    try:
        return RELATION_SCHEMA[relation]
    except KeyError:
        raise KeyError(f"unknown relation: {relation!r}") from None
