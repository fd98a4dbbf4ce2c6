"""Exception hierarchy for the repro library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything coming from the fabric with a single ``except`` clause while
still being able to discriminate the failure domain (configuration, policy,
simulation, ...).
"""


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class ConfigurationError(ReproError):
    """Raised when the fabric or a component is mis-configured.

    Examples: duplicate router ids, a VN id outside the 24-bit space, an
    edge router attached to a port that does not exist.
    """


class AuthenticationError(ReproError):
    """Raised when endpoint onboarding fails authentication.

    Mirrors a RADIUS Access-Reject: the endpoint's credentials are not in
    the policy server database or the supplied secret is wrong.
    """


class PolicyError(ReproError):
    """Raised for invalid policy operations.

    Examples: referencing an unknown group in the connectivity matrix,
    assigning an endpoint to a group that does not exist.
    """


class EncapsulationError(ReproError):
    """Raised when a VXLAN/LISP header cannot be encoded or decoded."""


class SimulationError(ReproError):
    """Raised on misuse of the discrete-event simulation kernel.

    Examples: scheduling an event in the past, running a simulator that
    was already stopped.
    """
