"""Tests for the exact bound certificates and their combinatorial inputs."""

from fractions import Fraction

import pytest

from cycover.chain import (
    ABOVE,
    EQUAL,
    STRICTLY_BELOW,
    BoundCertificate,
    UnsupportedCaseError,
    bound_verdict,
    main_case_bound,
    ordering_table,
    ramified_case_bound,
    schedule_chain_product,
    telescoping_product,
)
from cycover.family import CoverFamily, FamilyConstraintError, enumerate_families, validate_family


# ---------------------------------------------------------------------------
# Family arithmetic
# ---------------------------------------------------------------------------


class TestFamily:
    def test_workhorse_family(self):
        fam = validate_family(5, 4, 2, 2)
        assert fam.degree == 8
        assert fam.branch_degree == 4
        assert fam.ambient_variable_count == 7
        assert fam.chart_variable_count == 6

    def test_defining_relation_enforced(self):
        with pytest.raises(FamilyConstraintError) as err:
            validate_family(5, 4, 1, 2)
        assert "dimension + 1" in str(err.value)

    def test_dimension_floor(self):
        with pytest.raises(FamilyConstraintError) as err:
            validate_family(4, 3, 2, 2)
        assert "dimension >= 5" in str(err.value)

    def test_cover_degree_floor(self):
        with pytest.raises(FamilyConstraintError) as err:
            validate_family(5, 5, 1, 1)
        assert "cover degree" in str(err.value)

    def test_positive_base_degree(self):
        with pytest.raises(FamilyConstraintError):
            validate_family(5, 0, 6, 2)

    def test_enumeration_satisfies_relation(self):
        fams = enumerate_families(12)
        assert len(fams) > 0
        for fam in fams:
            assert (
                fam.base_degree
                + (fam.cover_degree - 1) * fam.branch_weight
                == fam.dimension + 1
            )
        # The enumeration contains the degenerate low base-degree families
        # that the bound machinery must refuse to certify.
        keys = {(f.dimension, f.base_degree, f.branch_weight, f.cover_degree) for f in fams}
        assert (5, 2, 4, 2) in keys
        assert (5, 1, 5, 2) in keys


# ---------------------------------------------------------------------------
# Ordering tables
# ---------------------------------------------------------------------------


class TestOrderingTable:
    def test_seven_dimensional_example(self):
        # dimension 7, base degree 5, branch weight 3, two sheets
        fam = CoverFamily(7, 5, 3, 2)
        table = ordering_table(fam)
        assert table.surface_levels == (1, 2, 3, 4)
        assert table.root_levels == (3, 4)
        assert table.counters[3] == 2
        assert table.counters[4] == 4
        assert table.counters[-1] == fam.dimension - 3
        assert table.schedule == (3, 3, 4, 4)

    def test_counters_vanish_below_three(self):
        fam = CoverFamily(7, 5, 3, 2)
        table = ordering_table(fam)
        assert table.counters[0] == 0
        assert table.counters[1] == 0
        assert table.counters[2] == 0

    def test_schedule_length_matches_slots(self):
        for fam in enumerate_families(20):
            if fam.branch_weight < 3 or fam.base_degree > fam.branch_degree:
                continue
            if fam.base_degree < 3:
                continue
            table = ordering_table(fam)
            assert len(table.schedule) == fam.dimension - 3

    def test_rejects_small_branch_weight(self):
        fam = CoverFamily(5, 4, 2, 2)
        with pytest.raises(UnsupportedCaseError) as err:
            ordering_table(fam)
        assert "branch weight >= 3" in str(err.value)

    def test_rejects_base_degree_above_branch_degree(self):
        # dimension 9, base degree 7, branch weight 3, two sheets:
        # base degree 7 > branch degree 6
        fam = CoverFamily(9, 7, 3, 2)
        with pytest.raises(UnsupportedCaseError) as err:
            ordering_table(fam)
        assert "base degree <= branch degree" in str(err.value)

    def test_rejects_base_degree_two(self):
        fam = CoverFamily(5, 2, 4, 2)
        with pytest.raises(UnsupportedCaseError) as err:
            ordering_table(fam)
        assert "not covered" in str(err.value)

    def test_rejects_base_degree_one(self):
        fam = CoverFamily(5, 1, 5, 2)
        with pytest.raises(UnsupportedCaseError):
            ordering_table(fam)


# ---------------------------------------------------------------------------
# Telescoping blocks
# ---------------------------------------------------------------------------


class TestTelescoping:
    def test_three_to_five(self):
        block = telescoping_product(3, 5)
        assert block.literal == Fraction(5, 2)
        assert block.closed == Fraction(5, 2)
        assert not block.is_empty

    def test_four_to_five_squared(self):
        value = telescoping_product(4, 5).value * telescoping_product(4, 5).value
        assert value == Fraction(25, 9)

    def test_empty_block_is_one(self):
        block = telescoping_product(4, 3)
        assert block.is_empty
        assert block.value == 1
        assert block.closed == 1

    def test_adjacent_empty_block(self):
        assert telescoping_product(3, 2).value == 1

    def test_closed_form_general(self):
        for a in range(2, 12):
            for b in range(a, 20):
                assert telescoping_product(a, b).value == Fraction(b, a - 1)

    def test_rejects_start_below_two(self):
        with pytest.raises(ValueError):
            telescoping_product(1, 5)


# ---------------------------------------------------------------------------
# Main case certificates
# ---------------------------------------------------------------------------


class TestMainCase:
    def test_reference_certificate(self):
        # dimension 7, base degree 5, branch weight 3, two sheets
        fam = CoverFamily(7, 5, 3, 2)
        cert = main_case_bound(fam)
        assert cert.case_tag == "MainCase"
        assert cert.schedule_product == Fraction(25, 9)
        assert cert.product_value == Fraction(25, 9)
        assert cert.closed_form == Fraction(25, 9)
        assert cert.bound_value == Fraction(9, 25)
        assert cert.threshold == Fraction(2, 5)
        assert cert.verdict == STRICTLY_BELOW
        assert cert.margin == Fraction(1, 25)

    def test_blocks_of_reference_certificate(self):
        cert = main_case_bound(CoverFamily(7, 5, 3, 2))
        assert [(b.lower, b.upper) for b in cert.blocks] == [(4, 5), (4, 5)]
        assert [b.value for b in cert.blocks] == [Fraction(5, 3), Fraction(5, 3)]

    def test_schedule_product_equals_blocks_everywhere(self):
        for fam in enumerate_families(25):
            if (
                fam.branch_weight < 3
                or fam.base_degree > fam.branch_degree
                or fam.base_degree < 3
            ):
                continue
            cert = main_case_bound(fam)
            m, l, D = fam.base_degree, fam.branch_weight, fam.branch_degree
            assert cert.product_value == Fraction(m, 3) * Fraction(D - 1, l)
            assert cert.schedule_product == cert.product_value
            assert len(ordering_table(fam).schedule) == fam.dimension - 3

    def test_strictly_below_for_all_supported_families(self):
        # Branch weight >= 3 forces branch degree >= 6 > 4, so every
        # supported family certifies strictly below the threshold.
        for fam in enumerate_families(25):
            if (
                fam.branch_weight < 3
                or fam.base_degree > fam.branch_degree
                or fam.base_degree < 3
            ):
                continue
            cert = main_case_bound(fam)
            assert cert.verdict == STRICTLY_BELOW
            assert cert.margin > 0

    def test_hypothetical_branch_degree_four_sits_on_the_line(self):
        # No supported family has branch degree 4, but the verdict logic
        # must flag that configuration as Equal: the bound specializes to
        # 3*4 / (degree * 3) = 4 / degree, exactly the threshold.
        for degree in (8, 10, 12, 21):
            hypothetical_bound = Fraction(3 * 4, degree * (4 - 1))
            threshold = Fraction(4, degree)
            assert bound_verdict(hypothetical_bound, threshold) == EQUAL
        # Branch degree 5 and up drops strictly below; 3 would land above.
        assert bound_verdict(Fraction(3 * 5, 8 * 4), Fraction(4, 8)) == STRICTLY_BELOW
        assert bound_verdict(Fraction(3 * 3, 8 * 2), Fraction(4, 8)) == ABOVE

    def test_rejects_untreated_low_base_degree(self):
        with pytest.raises(UnsupportedCaseError):
            main_case_bound(CoverFamily(5, 2, 4, 2))
        with pytest.raises(UnsupportedCaseError):
            main_case_bound(CoverFamily(5, 1, 5, 2))

    def test_rejects_small_branch_weight(self):
        with pytest.raises(UnsupportedCaseError):
            main_case_bound(CoverFamily(5, 4, 2, 2))


# ---------------------------------------------------------------------------
# Ramified case certificates
# ---------------------------------------------------------------------------


class TestRamifiedCase:
    def test_two_sheet_example(self):
        # base degree 5, two sheets: blocks 5/2 and empty
        fam = CoverFamily(7, 5, 3, 2)
        cert = ramified_case_bound(fam)
        assert cert.case_tag == "RamifiedCase"
        assert [b.value for b in cert.blocks] == [Fraction(5, 2), Fraction(1)]
        assert cert.product_value == Fraction(5, 2)
        assert cert.bound_value == Fraction(2, 5)
        assert cert.verdict == EQUAL
        assert cert.margin == 0

    def test_three_sheet_example(self):
        # base degree 4, three sheets: 4/2 * 3/2 = 3 = 12/4
        fam = CoverFamily(9, 4, 3, 3)
        cert = ramified_case_bound(fam)
        assert [b.value for b in cert.blocks] == [Fraction(2), Fraction(3, 2)]
        assert cert.product_value == Fraction(3)
        assert cert.closed_form == Fraction(fam.degree, 4)
        assert cert.bound_value == Fraction(1, 3) == Fraction(4, fam.degree)
        assert cert.verdict == EQUAL

    def test_always_equal_for_supported_families(self):
        for fam in enumerate_families(25):
            if fam.base_degree < 2:
                continue
            cert = ramified_case_bound(fam)
            assert cert.product_value == Fraction(fam.degree, 4)
            assert cert.bound_value == Fraction(4, fam.degree)
            assert cert.verdict == EQUAL
            assert cert.margin == 0

    def test_base_degree_two_still_works(self):
        # The first block is empty but its convention value 1 equals 2/2.
        fam = CoverFamily(5, 2, 4, 2)
        cert = ramified_case_bound(fam)
        assert cert.product_value == Fraction(1)
        assert cert.verdict == EQUAL

    def test_rejects_base_degree_one(self):
        fam = CoverFamily(5, 1, 5, 2)
        with pytest.raises(UnsupportedCaseError) as err:
            ramified_case_bound(fam)
        assert "base degree >= 2" in str(err.value)


# ---------------------------------------------------------------------------
# The global identity over the enumerated range
# ---------------------------------------------------------------------------


class TestEnumeratedIdentity:
    def test_chain_identity_across_range(self):
        """Slot-by-slot chain equals the closed form for every family with
        dimension 5..40 in the supported range, and the unsupported
        low-base-degree families are rejected explicitly."""
        checked = 0
        rejected = 0
        for fam in enumerate_families(40):
            if fam.branch_weight < 3 or fam.base_degree > fam.branch_degree:
                continue
            if fam.base_degree >= 3:
                table = ordering_table(fam)
                literal = schedule_chain_product(table)
                m, l, D = fam.base_degree, fam.branch_weight, fam.branch_degree
                assert literal == Fraction(m, 3) * Fraction(D - 1, l)
                assert len(table.schedule) == fam.dimension - 3
                checked += 1
            else:
                with pytest.raises(UnsupportedCaseError):
                    ordering_table(fam)
                rejected += 1
        assert checked > 100
        assert rejected > 0

    def test_certificate_internal_consistency_is_enforced(self):
        fam = CoverFamily(7, 5, 3, 2)
        good = main_case_bound(fam)
        with pytest.raises(ValueError):
            BoundCertificate(
                family=good.family,
                case_tag=good.case_tag,
                blocks=good.blocks,
                schedule_product=good.schedule_product,
                product_value=good.product_value,
                closed_form=good.closed_form,
                bound_value=good.bound_value + 1,
                threshold=good.threshold,
                verdict=good.verdict,
                margin=good.margin,
            )
