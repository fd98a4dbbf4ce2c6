"""Core types, identifiers, errors and configuration shared across repro.

This subpackage holds the vocabulary of the SDA fabric: virtual network
identifiers, group identifiers, endpoint identities, and the exception
hierarchy used throughout the library.
"""

from repro.core.batching import Batcher
from repro.core.breaker import BreakerPolicy, CircuitBreaker
from repro.core.counters import Counters
from repro.core.queueing import (
    PRIO_BULK,
    PRIO_CRITICAL,
    PRIO_NORMAL,
    SerialQueue,
)
from repro.core.retry import RetryPolicy
from repro.core.errors import (
    ReproError,
    ConfigurationError,
    AuthenticationError,
    PolicyError,
    EncapsulationError,
    SimulationError,
)
from repro.core.types import (
    VNId,
    GroupId,
    EndpointId,
    DEFAULT_VN,
    UNKNOWN_GROUP,
)

__all__ = [
    "Batcher",
    "BreakerPolicy",
    "CircuitBreaker",
    "Counters",
    "PRIO_BULK",
    "PRIO_CRITICAL",
    "PRIO_NORMAL",
    "RetryPolicy",
    "SerialQueue",
    "ReproError",
    "ConfigurationError",
    "AuthenticationError",
    "PolicyError",
    "EncapsulationError",
    "SimulationError",
    "VNId",
    "GroupId",
    "EndpointId",
    "DEFAULT_VN",
    "UNKNOWN_GROUP",
]
