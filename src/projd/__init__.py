"""Exact combinatorics of Proj for rings graded by f.g. abelian groups."""
