"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: InputError and its subclasses exit 2,
InternalCheckError (a proven identity failing, which indicates a bug) exits 1
with a loud diagnostic.  A requested check that comes out false is not an
exception: the command reports it and exits 1.
"""


class YbhError(Exception):
    pass


class InputError(YbhError):
    """Malformed or inconsistent user input (bad arities, bad files, bad flags)."""


class ArityError(InputError):
    """Composition or combination of tensor maps with incompatible arities."""

    def __init__(self, needed, got, context=""):
        self.needed = needed
        self.got = got
        msg = f"arity mismatch: needed {needed}, got {got}"
        if context:
            msg += f" ({context})"
        super().__init__(msg)


class UnsupportedRingError(InputError):
    """Operation not defined over this coefficient ring (e.g. elimination over a truncated ring)."""


class ValidationError(InputError):
    """A loaded or constructed object violates a structural axiom; carries a witness."""

    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message)


class ResourceLimitError(InputError):
    """Dimension guard tripped: d exceeds the caller's max_dim, or the
    default bound when none is given."""


class InternalCheckError(YbhError):
    """An identity that is a theorem failed to verify; indicates a bug in this package."""
