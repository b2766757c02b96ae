"""Tests for predicate normalization and value-free shape keys."""

from __future__ import annotations

from repro.core.attributes import GeoPoint, Timestamp
from repro.core.query import (
    TRUE,
    And,
    AttributeEquals,
    AttributeIn,
    AttributeRange,
    IsRaw,
    NearLocation,
    Not,
    Or,
    TimeWindowOverlaps,
)
from repro.query import normalize, shape_key


EQ_A = AttributeEquals("city", "london")
EQ_B = AttributeEquals("domain", "traffic")
EQ_C = AttributeEquals("stage", "raw")


class TestNormalize:
    def test_leaves_pass_through(self):
        assert normalize(EQ_A) is EQ_A

    def test_nested_ands_flatten(self):
        nested = And((EQ_A, And((EQ_B, And((EQ_C,))))))
        assert normalize(nested) == And((EQ_A, EQ_B, EQ_C))

    def test_nested_ors_flatten(self):
        nested = Or((EQ_A, Or((EQ_B, EQ_C))))
        assert normalize(nested) == Or((EQ_A, EQ_B, EQ_C))

    def test_duplicates_dropped(self):
        assert normalize(And((EQ_A, EQ_B, EQ_A))) == And((EQ_A, EQ_B))

    def test_equal_but_differently_typed_constants_are_kept(self):
        """``1 == True == 1.0`` in Python, but not to the store: no part may merge."""
        one, true, real = (AttributeEquals("n", value) for value in (1, True, 1.0))
        assert normalize(And((one, true))) == And((one, true))
        assert normalize(Or((one, true, real))) == Or((one, true, real))
        assert normalize(And((Not(one), Not(true)))) == And((Not(one), Not(true)))
        assert normalize(And((one, true, one))) == And((one, true))

    def test_single_part_collapses(self):
        assert normalize(And((EQ_A, EQ_A))) == EQ_A

    def test_double_negation_cancels(self):
        assert normalize(Not(Not(EQ_A))) == EQ_A

    def test_de_morgan_not_and(self):
        lowered = normalize(Not(And((EQ_A, EQ_B))))
        assert lowered == Or((Not(EQ_A), Not(EQ_B)))

    def test_de_morgan_not_or(self):
        lowered = normalize(Not(Or((EQ_A, EQ_B))))
        assert lowered == And((Not(EQ_A), Not(EQ_B)))

    def test_true_conjuncts_disappear(self):
        assert normalize(And((TRUE, EQ_A, TRUE))) == EQ_A

    def test_true_branch_trivialises_disjunction(self):
        assert normalize(Or((EQ_A, TRUE))) is TRUE

    def test_all_true_conjunction_is_true(self):
        assert normalize(And((TRUE, TRUE))) is TRUE

    def test_equivalence_on_records(self, sample_record):
        """Normalization never changes what a predicate matches."""
        pname = sample_record.pname()
        cases = [
            Not(Not(AttributeEquals("city", "london"))),
            Not(And((AttributeEquals("city", "london"), IsRaw(False)))),
            Not(Or((AttributeEquals("city", "oslo"), AttributeEquals("domain", "medical")))),
            And((TRUE, Or((AttributeEquals("city", "london"), TRUE)))),
        ]
        for predicate in cases:
            lowered = normalize(predicate)
            assert lowered.matches(pname, sample_record) == predicate.matches(
                pname, sample_record
            )


class TestShapeKey:
    def test_constants_are_stripped(self):
        assert shape_key(AttributeEquals("city", "london")) == shape_key(
            AttributeEquals("city", "boston")
        )

    def test_attribute_names_distinguish(self):
        assert shape_key(AttributeEquals("city", "x")) != shape_key(
            AttributeEquals("domain", "x")
        )

    def test_commutative_children_sorted(self):
        assert shape_key(And((EQ_A, EQ_B))) == shape_key(And((EQ_B, EQ_A)))

    def test_sliding_windows_share_a_shape(self):
        first = TimeWindowOverlaps(Timestamp(0.0), Timestamp(60.0))
        later = TimeWindowOverlaps(Timestamp(3600.0), Timestamp(3660.0))
        assert shape_key(first) == shape_key(later)

    def test_moving_radius_shares_a_shape(self):
        here = NearLocation("location", GeoPoint(51.5, -0.1), 5.0)
        there = NearLocation("location", GeoPoint(42.4, -71.1), 50.0)
        assert shape_key(here) == shape_key(there)

    def test_range_bound_structure_matters(self):
        open_low = AttributeRange("seq", low=1)
        closed = AttributeRange("seq", low=1, high=2)
        assert shape_key(open_low) != shape_key(closed)

    def test_in_arity_matters(self):
        two = AttributeIn("city", ("a", "b"))
        three = AttributeIn("city", ("a", "b", "c"))
        assert shape_key(two) != shape_key(three)
