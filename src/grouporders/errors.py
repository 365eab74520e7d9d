"""Exception hierarchy shared by all modules.

Four families matter to callers, with their CLI exit codes: bad input (1), a
certified negative answer (2), a class/depth cap too small to decide the question
(3), and a certificate the library built failing its own re-check (4, a library fault).
"""


class GroupOrderError(Exception):
    """Base class for every error raised by this package."""


class InputError(GroupOrderError):
    """Invalid or out-of-contract input."""


class EmptyInput(InputError):
    pass


class ZeroVectorInput(InputError):
    pass


class DimensionMismatch(InputError):
    pass


class RankMismatch(InputError):
    pass


class EmptyWord(InputError):
    pass


class IdentityElement(InputError):
    pass


class IsIdentity(InputError):
    pass


class IdentityAutomorphism(InputError):
    pass


class NonAutomorphism(InputError):
    pass


class ParseError(InputError):
    pass


class NegativeCertificate(GroupOrderError):
    """A certified 'no such object' answer (not a failure of the program)."""


class NoSeparator(NegativeCertificate):
    pass


class NoCone(NegativeCertificate):
    """No positive cone contains all the requested vectors.

    Carries the zero-combination certificate when available.
    """

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class CommonRoot(NegativeCertificate):
    """The two words are positive powers of one primitive root."""

    def __init__(self, message, root=None, powers=None):
        super().__init__(message)
        self.root = root
        self.powers = powers


class NotFoundWithinBall(NegativeCertificate):
    pass


class CapExceeded(GroupOrderError):
    """The question was not decided within the configured class cap."""


class DepthExceedsCap(CapExceeded):
    pass


class DepthCapExceeded(CapExceeded):
    pass


class CertificateError(GroupOrderError):
    """A certificate the library built failed its own re-check."""
