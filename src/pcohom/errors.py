"""Shared exception types."""


class ClosureCapExceeded(Exception):
    pass


class MixedElementKinds(Exception):
    pass


class NonNormalArguments(Exception):
    pass


class NotNormal(Exception):
    pass


class EmptyList(Exception):
    pass


class MixedParents(Exception):
    pass


class BudgetExceeded(Exception):
    def __init__(self, message, explored=0):
        super().__init__(message)
        self.explored = explored


class GroupTooLarge(Exception):
    pass


class NotInvariant(Exception):
    pass


class TransgressionSolveFailed(Exception):
    pass


class SolveRoundTripFailed(Exception):
    """A factored solver did not return the coordinates of the basis it
    was built from."""


class SectionDefectOutsideKernel(ValueError):
    """A section defect s(x) s(y) s(xy)^-1 of a central extension lies
    outside the kernel copy iota(Z).

    Lemma: lam maps the defect to x y (xy)^-1 = 1, so it lies in
    ker lam, which `CentralExtension` checks is iota(Z); a defect outside
    it means the extension's tables and section disagree."""


class WordTooShort(Exception):
    pass


class NonCommutingSquare(Exception):
    pass


class EdgeCheckFailed(ValueError):
    """A table, hom, character or 2-cocycle failed its generator-edge check.

    Lemma (core module docstring): each c > 0 is d*s for its BFS
    predecessor d < c and a generator s, so a law shown on every edge
    e -> e*s holds on all of G by induction on the BFS word.  The edge
    check is therefore complete, and a failed edge is a real violation of
    the group, hom, character or cocycle law."""


class SpecError(ValueError):
    """A malformed group, subgroup or family spec, or malformed arguments."""
