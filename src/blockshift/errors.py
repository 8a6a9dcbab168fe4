"""Exception hierarchy shared by every module; ``exit_code`` is the CLI exit status."""


class BlockshiftError(Exception):
    """Base class for all library errors."""
    exit_code = 2


class InvalidParameterError(BlockshiftError, ValueError):
    """An argument violates a documented precondition."""


class IncompleteDataError(BlockshiftError):
    """An explicit list or target sequence does not cover a requested index."""


class DensityViolation(BlockshiftError):
    """The sparsity inequality failed; carries the witnessing window."""
    exit_code = 3

    def __init__(self, level, witness, count, threshold, message=None):
        self.level = level
        self.witness = witness
        self.count = count
        self.threshold = threshold
        if message is None:
            message = (
                f"density violation at k={level}: window {witness} holds "
                f"{count} elements, needs < {threshold}"
            )
        super().__init__(message)


class InfeasibleDepth(BlockshiftError):
    """Exact word-set data required at this depth cannot be materialized."""
    exit_code = 3


class EmptyCoreError(BlockshiftError):
    """The central block misses the sparse set; a deeper build is needed."""


class ConstructionInvariantError(BlockshiftError):
    """A fill-time invariant of the star-filling procedure failed."""
    exit_code = 4


class WindowRangeError(BlockshiftError):
    """A requested coordinate falls outside the materialized window."""


class WindowFormatError(BlockshiftError):
    """Base class for persistence-format failures."""
    exit_code = 1


class VersionError(WindowFormatError):
    """The file carries an unsupported format tag."""


class ChecksumError(WindowFormatError):
    """The payload checksum does not match the recorded one."""


class InconsistencyError(WindowFormatError):
    """Header metadata contradicts the payload."""
