"""Network-wide flooding.

The alignment step of the distributed localization algorithm (Section
4.3.1, "Alignment") propagates the root's coordinate frame through "one
round of flooding": every node rebroadcasts the first copy of the flood
payload it receives, after transforming it into its own local frame.

:func:`flood` implements the generic mechanism over the
:class:`~repro.network.simulator.NetworkSimulator`: duplicate
suppression, optional payload transformation per hop, and a resulting
spanning tree (parent pointers + hop counts) that the caller can
inspect.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from .simulator import NetworkSimulator

__all__ = ["FloodResult", "flood"]


@dataclass
class FloodResult:
    """Outcome of one flood.

    Attributes
    ----------
    root : int
        Originating node.
    payloads : dict
        Node id -> the payload as received at that node (after any
        per-hop transformation).
    parents : dict
        Node id -> the neighbor it first heard the flood from (the
        flood spanning tree; the root maps to None).
    hops : dict
        Node id -> hop distance from the root along the tree.
    """

    root: int
    payloads: Dict[int, Any] = field(default_factory=dict)
    parents: Dict[int, Optional[int]] = field(default_factory=dict)
    hops: Dict[int, int] = field(default_factory=dict)

    @property
    def reached(self) -> int:
        """Number of nodes the flood reached (including the root)."""
        return len(self.payloads)

    def covers(self, node_ids) -> bool:
        """Whether every id in *node_ids* received the flood."""
        return all(n in self.payloads for n in node_ids)


def flood(
    simulator: NetworkSimulator,
    root: int,
    payload: Any,
    *,
    transform: Optional[Callable[[int, int, Any], Any]] = None,
    max_events: int = 1_000_000,
) -> FloodResult:
    """Flood *payload* from *root* through the network.

    Parameters
    ----------
    simulator : NetworkSimulator
        The network to flood.  Handlers for all nodes are temporarily
        installed; any previously registered handlers are restored on
        return.
    root : int
        Originating node id.
    payload : Any
        The initial flood payload.
    transform : callable, optional
        ``transform(receiver_id, sender_id, payload) -> payload`` applied
        when a node first receives the flood, *before* storing and
        rebroadcasting it.  The distributed localization alignment uses
        this hook to re-express the global frame vectors in each node's
        local coordinate system.
    """
    simulator.node(root)  # validate
    result = FloodResult(root=root)
    result.payloads[root] = payload
    result.parents[root] = None
    result.hops[root] = 0

    saved_handlers = dict(simulator._handlers)
    saved_default = simulator._default_handler

    def handler(sim: NetworkSimulator, node_id: int, message) -> None:
        if node_id in result.payloads:
            return  # duplicate suppression
        received = message.payload
        if transform is not None:
            received = transform(node_id, message.sender, received)
        result.payloads[node_id] = received
        result.parents[node_id] = message.sender
        result.hops[node_id] = result.hops[message.sender] + 1
        sim.broadcast(node_id, received)

    try:
        simulator.register_default_handler(handler)
        simulator._handlers = {}
        simulator.broadcast(root, payload)
        simulator.run(max_events=max_events)
    finally:
        simulator._handlers = saved_handlers
        simulator._default_handler = saved_default
    return result
