"""Discrete-event simulation kernel.

A small, dependency-free process-based DES engine in the style of SimPy,
purpose-built for the Hadoop/InfiniBand performance models in this
repository.  Processes are Python generators that ``yield`` :class:`Event`
objects; the :class:`Simulator` advances virtual time and resumes processes
when the events they wait on fire.

Public surface:

* :class:`Simulator` — event loop and virtual clock.
* :class:`Event`, :class:`Timeout`, :class:`Process` — waitable primitives.
* :class:`AllOf`, :class:`AnyOf` — composite conditions.
* :class:`Resource`, :class:`PriorityResource` — counted resources (CPU
  cores, task slots).
* :class:`Container` — continuous quantity (memory bytes, buffer credits).
* :class:`Store`, :class:`PriorityStore`, :class:`FilterStore` — object
  queues (request queues, mailboxes).
* :class:`Counter`, :class:`UtilizationTracker` — run statistics.
"""

from repro.sim.core import (
    AllOf,
    AnyOf,
    Event,
    Interrupted,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from repro.sim.monitor import Counter, UtilizationTracker
from repro.sim.resources import (
    Container,
    FilterStore,
    PriorityResource,
    PriorityStore,
    Resource,
    Store,
)
from repro.sim.rng import RandomStreams

__all__ = [
    "AllOf",
    "AnyOf",
    "Container",
    "Counter",
    "Event",
    "FilterStore",
    "Interrupted",
    "PriorityResource",
    "PriorityStore",
    "Process",
    "RandomStreams",
    "Resource",
    "SimulationError",
    "Simulator",
    "Store",
    "Timeout",
    "UtilizationTracker",
]
