"""Exception types shared across the package.

Error messages carry stable labels ("zero-divisor", "pole-at-q", ...) so the
CLI can map failures to exit codes and report entries.
"""


class ZeroDivisorError(ArithmeticError):
    """Division by the zero scalar."""

    def __init__(self, msg="zero-divisor: division by the zero scalar"):
        super().__init__(msg)


class PoleError(ArithmeticError):
    """Numeric evaluation at a point where a denominator vanishes."""

    def __init__(self, msg="pole-at-q: denominator vanishes at this point"):
        super().__init__(msg)


class PresentationMismatchError(ValueError):
    """Mixing elements (or morphisms) of different presentations."""

    def __init__(self, msg="presentation-mismatch"):
        super().__init__(msg)


class UnverifiedMorphismError(RuntimeError):
    """A generator morphism that fails its relation check was applied or built upon."""

    def __init__(self, msg="unverified-morphism: the relations do not hold"):
        super().__init__(msg)


class RewriteLimitError(RuntimeError):
    """Reduction exceeded its step budget."""

    def __init__(self, detail="reduction exceeded its step budget"):
        super().__init__(f"rewrite-limit: {detail}")


class NotInvariantError(ValueError):
    """A matrix that must be circle-invariant is not."""

    def __init__(self, msg="not-T-invariant"):
        super().__init__(msg)


class ParseError(ValueError):
    """Syntax error in the expression front-end, with a 1-based column."""

    def __init__(self, msg, column):
        super().__init__(f"{msg} (column {column})")
        self.column = column
