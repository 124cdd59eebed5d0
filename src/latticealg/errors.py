"""Exception taxonomy shared by all modules.

Two top-level families matter for the CLI exit-code contract:

* ``InputError`` — the caller handed us something malformed or out of scope
  (bad file, unknown name, dimension mismatch, missing identity, cap
  exceeded).  CLI exit code 2.
* ``MathViolationError`` — the computation ran fine but a mathematical law
  that must hold for a valid lattice algebra failed.  CLI exit code 1.

Any other exception escaping a command is a bug in latticealg, never bad
input: the CLI reports it on one stderr line and exits with code 3.
"""

from __future__ import annotations


class LatticeAlgError(Exception):
    """Base class for all package errors."""


class InputError(LatticeAlgError):
    """Malformed or out-of-scope input (CLI exit code 2)."""


class DimensionMismatchError(InputError):
    """Operands live in different dimensions."""


class NoIdentityError(InputError):
    """Operation requires an algebra identity but none is present."""


class UnknownBuiltinError(InputError):
    """Requested builtin fixture name is not registered."""


class UnsupportedNormError(InputError):
    """Norm kind not supported by the requested exact operation."""


class CapExceededError(InputError):
    """Requested enumeration exceeds the configured cost cap."""


class NotOrderIdempotentError(InputError):
    """Operation requires order idempotents as input."""


class NotBandProjectionError(InputError):
    """Operation requires a band-projection element as input."""


class FamilyError(InputError):
    """Projection family violates an invariant; carries a witness."""

    def __init__(self, reason: str, witness=None):
        super().__init__(reason if witness is None else f"{reason}; witness: {witness}")
        self.reason = reason
        self.witness = witness


class MathViolationError(LatticeAlgError):
    """A law that must hold in a valid lattice algebra failed (CLI exit code 1)."""
