"""The discrete parameter family of cyclic covers.

A family is a quadruple of positive integers: the dimension of the covering
variety, the degree of the base hypersurface, the weight of the cover
coordinate, and the number of sheets.  The defining relation ties them
together: base_degree + (cover_degree - 1) * branch_weight = dimension + 1.
"""

from __future__ import annotations

from dataclasses import dataclass


class FamilyConstraintError(ValueError):
    """A family constraint is violated; the message names which one."""


@dataclass(frozen=True)
class CoverFamily:
    """Parameters of one cyclic-cover family.

    dimension       -- dimension of the covering variety (>= 5)
    base_degree     -- degree of the base hypersurface in projective space
    branch_weight   -- weight of the cover coordinate (the last ambient one)
    cover_degree    -- number of sheets of the cyclic cover (>= 2)
    """

    dimension: int
    base_degree: int
    branch_weight: int
    cover_degree: int

    def __post_init__(self):
        M = self.dimension
        m = self.base_degree
        l = self.branch_weight
        K = self.cover_degree
        if M < 5:
            raise FamilyConstraintError(f"dimension {M} violates dimension >= 5")
        if K < 2:
            raise FamilyConstraintError(f"cover degree {K} violates cover degree >= 2")
        if l < 1:
            raise FamilyConstraintError(f"branch weight {l} must be positive")
        if m < 1:
            raise FamilyConstraintError(f"base degree {m} must be positive")
        if m + (K - 1) * l != M + 1:
            raise FamilyConstraintError(
                f"base degree {m} + (cover degree {K} - 1) * branch weight {l} "
                f"= {m + (K - 1) * l} differs from dimension + 1 = {M + 1}"
            )

    @property
    def degree(self) -> int:
        """Projective degree of the covering variety: base_degree * cover_degree."""
        return self.base_degree * self.cover_degree

    @property
    def branch_degree(self) -> int:
        """Degree of the branch form g: cover_degree * branch_weight."""
        return self.cover_degree * self.branch_weight

    @property
    def ambient_variable_count(self) -> int:
        """Number of weight-1 ambient coordinates (dimension + 2)."""
        return self.dimension + 2

    @property
    def chart_variable_count(self) -> int:
        """Number of affine chart coordinates (dimension + 1)."""
        return self.dimension + 1

    def describe(self) -> str:
        return (
            f"dimension {self.dimension}, base degree {self.base_degree}, "
            f"branch weight {self.branch_weight}, cover degree {self.cover_degree}, "
            f"variety degree {self.degree}"
        )


def validate_family(
    dimension: int, base_degree: int, branch_weight: int, cover_degree: int
) -> CoverFamily:
    """Construct the family or reject it, naming the violated constraint."""
    return CoverFamily(dimension, base_degree, branch_weight, cover_degree)


def enumerate_families(max_dimension: int, min_dimension: int = 5) -> list:
    """All valid families with dimension in the inclusive range."""
    out = []
    for M in range(min_dimension, max_dimension + 1):
        for K in range(2, M + 2):
            for l in range(1, M + 2):
                m = M + 1 - (K - 1) * l
                if m >= 1:
                    out.append(CoverFamily(M, m, l, K))
    return out
