import math

import pytest

from pathrec.environment import Path
from pathrec.errors import DataError
from pathrec.kg import KnowledgeGraph
from pathrec.patterns import (
    PathPattern,
    enumerate_patterns,
    format_frequency_block,
    frequency_report,
    pattern_of,
    render_path,
    render_path_dot,
    save_frequency_csv,
)
from pathrec.schema import SELF_LOOP, EntityRef

from conftest import make_tiny_kg

L = lambda i: EntityRef("learner", i)
C = lambda i: EntityRef("course", i)
T = lambda i: EntityRef("teacher", i)
K = lambda i: EntityRef("concept", i)

SHARED = Path(L(0), (("enrolled", C(0)), ("enrolled_inv", L(1)), ("enrolled", C(1))))
TEACHER = Path(L(0), (("enrolled", C(0)), ("teaches_inv", T(0)), ("teaches", C(1))))
PADDED = Path(L(0), (("enrolled", C(0)), (SELF_LOOP, C(0)), (SELF_LOOP, C(0))))
DEAD_END = Path(L(0), (("enrolled", C(0)), ("teaches_inv", T(0))))


class TestPatternOf:
    def test_shared_enrollment_pattern(self):
        pattern = pattern_of(SHARED)
        assert pattern.relations == ("enrolled", "enrolled_inv", "enrolled")
        assert pattern.length == 3
        assert pattern.entity_types() == ("learner", "course", "learner", "course")

    def test_self_loops_stripped(self):
        pattern = pattern_of(PADDED)
        assert pattern.relations == ("enrolled",)
        assert pattern.length == 1

    def test_teacher_pattern(self):
        assert pattern_of(TEACHER).relations == ("enrolled", "teaches_inv", "teaches")


class TestFrequencyReport:
    def test_counting(self):
        rows = frequency_report([SHARED, SHARED, SHARED, TEACHER])
        assert rows[0][0].relations == ("enrolled", "enrolled_inv", "enrolled")
        assert rows[0][1:] == (3, 0.75)
        assert rows[1][1:] == (1, 0.25)

    def test_non_course_terminal_excluded_from_denominator(self):
        rows = frequency_report([SHARED, DEAD_END])
        assert len(rows) == 1
        assert rows[0][1:] == (1, 1.0)

    def test_fractions_sum_to_one(self):
        rows = frequency_report([SHARED, TEACHER, PADDED, SHARED])
        assert math.isclose(sum(r[2] for r in rows), 1.0, abs_tol=1e-9)
        assert all(0.0 <= r[2] <= 1.0 for r in rows)

    def test_empty_input_errors(self):
        with pytest.raises(DataError):
            frequency_report([])

    def test_all_invalid_errors(self):
        with pytest.raises(DataError):
            frequency_report([DEAD_END])


class TestEnumeratePatterns:
    def test_school_free_schema_has_four_3hop_patterns(self):
        got = enumerate_patterns(3, {"enrolled", "teaches", "belongs_to", "has_concept"})
        assert got == {
            ("enrolled", "enrolled_inv", "enrolled"),
            ("enrolled", "teaches_inv", "teaches"),
            ("enrolled", "belongs_to", "belongs_to_inv"),
            ("enrolled", "has_concept", "has_concept_inv"),
        }

    def test_full_schema_adds_school_pattern(self):
        got = enumerate_patterns(3)
        assert len(got) == 5
        assert ("enrolled", "provides_inv", "provides") in got

    def test_no_even_length_course_terminal_patterns(self):
        assert enumerate_patterns(2) == set()
        assert enumerate_patterns(4) == set()

    def test_one_hop(self):
        assert enumerate_patterns(1) == {("enrolled",)}


class TestRendering:
    def test_pattern_render_marks_inverse(self):
        text = PathPattern(("enrolled", "enrolled_inv", "enrolled")).render()
        assert text == "learner —enrolled→ course —enrolled⁻¹→ learner —enrolled→ course"

    def test_path_render_uses_glosses_and_ids(self):
        kg = make_tiny_kg()
        text = render_path(TEACHER, kg)
        assert text == "u0 —enrolled→ c0 —taught_by→ t0 —teaches→ c1"

    def test_path_render_skips_self_loops(self):
        kg = make_tiny_kg()
        assert render_path(PADDED, kg) == "u0 —enrolled→ c0"

    def test_dot_output_shape(self):
        kg = make_tiny_kg()
        dot = render_path_dot(SHARED, kg)
        assert dot.startswith("digraph")
        assert dot.rstrip().endswith("}")
        assert 'label="also_taken_by"' in dot
        assert dot.count("->") == 3

    def test_dot_labels_escape_quotes_and_backslashes(self):
        # unescaped, u"1 ends its label early and c\1 reads as a DOT escape
        kg = KnowledgeGraph({"learner": ['u"1'], "course": ["c\\1"]}, {"enrolled": {(0, 0)}})
        dot = render_path_dot(Path(L(0), (("enrolled", C(0)),)), kg)
        assert '  n0 [label="u\\"1\\n(learner)"];' in dot.splitlines()
        assert '  n1 [label="c\\\\1\\n(course)"];' in dot.splitlines()

    def test_csv_and_block(self, tmp_path):
        rows = frequency_report([SHARED, SHARED, TEACHER])
        csv_path = tmp_path / "patterns.csv"
        save_frequency_csv(rows, str(csv_path))
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "pattern,count,fraction"
        assert lines[1].startswith("enrolled|enrolled_inv|enrolled,2,")
        block = format_frequency_block(rows)
        assert "66.7%" in block
