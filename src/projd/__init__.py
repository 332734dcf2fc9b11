"""Exact combinatorics of Proj for rings graded by f.g. abelian groups."""

from projd.fgab import (
    FgAbGroup,
    GroupElement,
    Subgroup,
    smith_normal_form,
    subgroup_index,
    subgroup_member,
)

__all__ = [
    "FgAbGroup",
    "GroupElement",
    "Subgroup",
    "smith_normal_form",
    "subgroup_index",
    "subgroup_member",
]

__version__ = "0.1.0"
