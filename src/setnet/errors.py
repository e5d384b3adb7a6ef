"""Exception types shared across the package."""


class FormatError(ValueError):
    """A container file (a bundle or a checkpoint) violates its format.

    ``offset`` is the byte position of the first violation when known.
    """

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class NotCalibratedError(RuntimeError):
    """A detector ensemble was used before its threshold was set."""
