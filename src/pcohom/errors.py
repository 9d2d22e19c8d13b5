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


class WordTooShort(Exception):
    pass


class NonCommutingSquare(Exception):
    pass


class SpecError(ValueError):
    """A malformed group, subgroup or family spec, or malformed arguments."""
