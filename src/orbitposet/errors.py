"""Exception types shared across the package.

Everything derives from :class:`OrbitPosetError`, itself a ``ValueError``,
so callers can catch either the package base or the builtin.
"""


class OrbitPosetError(ValueError):
    """Base class for all errors raised by this package."""


class OutOfRange(OrbitPosetError):
    """An entry lies outside the ambient range 1..n."""


class DuplicateEntry(OrbitPosetError):
    """An integer occurs in more than one cycle entry."""


class NotCanonical(OrbitPosetError):
    """Raw pairs handed to the strict constructor are not in canonical form."""


class ParseError(OrbitPosetError):
    """A text form could not be parsed."""


class BadWindow(OrbitPosetError):
    """A window passed to ``project`` is not 1 <= i < j <= n."""


class IndexOutOfRange(OrbitPosetError):
    """A 1-based pair index is outside 1..k."""


class BadRank(OrbitPosetError):
    """A cycle count k is outside the feasible range."""


class SizeMismatch(OrbitPosetError):
    """Two values with different ambient ranks were combined."""


class InvalidRankMatrix(OrbitPosetError):
    """A matrix fails the rank-matrix characterisation."""


class NotComparable(OrbitPosetError):
    """The two involutions are not related by the closure order."""


class TooLarge(OrbitPosetError):
    """An exhaustive scan was requested beyond its feasibility guard."""


class UnknownSuite(OrbitPosetError):
    """No verification suite is registered under the requested name."""


class NotAPermutation(OrbitPosetError):
    """A word is not a permutation of 1..n."""


class ShapeMismatch(OrbitPosetError):
    """Two tableaux of different shapes were combined."""


class NotInColumn(OrbitPosetError):
    """A column-exchange argument is missing from the required column."""


class InvalidTableau(OrbitPosetError):
    """Columns do not form a standard two-column tableau."""
