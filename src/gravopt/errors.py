"""Exception hierarchy shared across the package."""


class GravoptError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(GravoptError, ValueError):
    """Operands have incompatible shapes or lengths."""


class ResourceLimitError(GravoptError, RuntimeError):
    """A configured size guard (basis cap, enumeration cap, dimension cap)
    was exceeded.  Never raised silently: the offending quantity is named
    in the message."""


class InternalInconsistencyError(GravoptError, RuntimeError):
    """An invariant that should hold by construction failed, e.g. an
    oracle reply whose value is not cert.z, z = W.x read from its point."""


class InfeasibleInstanceError(GravoptError, ValueError):
    """An application instance is infeasible before any solving starts
    (e.g. bin capacities below total item weight)."""


class UsageError(GravoptError, ValueError):
    """Bad command-line arguments or malformed input files."""
