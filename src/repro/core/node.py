"""GeoGrid nodes.

Section 2.1: a node is identified by the five-attribute tuple
``<x, y, IP, port, properties>``.  ``(x, y)`` is the node's geographical
coordinate (obtained from GPS or a geolocation service), ``(IP, port)`` is
the endpoint running the GeoGrid middleware, and ``properties`` carries
application-specific information -- most importantly *capacity*, the amount
of resources the node dedicates to serving others (the paper uses available
network bandwidth).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, NoReturn, Tuple

from repro.geometry import Point


class NodeAddress:
    """The ``(IP, port)`` endpoint of a node's GeoGrid middleware.

    Immutable.  Addresses key every transport and neighbor-table lookup,
    so the hash -- equal to ``hash((ip, port))`` -- is computed once.
    """

    __slots__ = ("ip", "port", "_hash")

    ip: str
    port: int

    def __init__(self, ip: str, port: int) -> None:
        _set_ip(self, ip)
        _set_port(self, port)
        _set_hash(self, hash((ip, port)))

    def __setattr__(self, name: str, value: Any) -> NoReturn:
        raise AttributeError(f"cannot assign to field {name!r} of NodeAddress")

    def __delattr__(self, name: str) -> NoReturn:
        raise AttributeError(f"cannot delete field {name!r} of NodeAddress")

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is not NodeAddress:
            return NotImplemented
        return self.ip == other.ip and self.port == other.port

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> Tuple[type, Tuple[str, int]]:
        return (NodeAddress, (self.ip, self.port))

    def __repr__(self) -> str:
        return f"NodeAddress(ip={self.ip!r}, port={self.port!r})"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.ip}:{self.port}"


_set_ip = NodeAddress.ip.__set__  # type: ignore[attr-defined]
_set_port = NodeAddress.port.__set__  # type: ignore[attr-defined]
_set_hash = NodeAddress._hash.__set__  # type: ignore[attr-defined]


def synthetic_address(node_id: int) -> NodeAddress:
    """Deterministically fabricate an address for a simulated node.

    The simulation does not open sockets, but the protocol layer and the
    bootstrap service still identify endpoints by address, exactly like the
    paper's prototype.
    """
    if node_id < 0:
        raise ValueError(f"node_id must be non-negative, got {node_id}")
    octet3, octet4 = divmod(node_id % 65536, 256)
    return NodeAddress(ip=f"10.{(node_id // 65536) % 256}.{octet3}.{octet4}", port=7000)


@dataclass(eq=False)
class Node:
    """A GeoGrid proxy node.

    Nodes compare and hash by identity (``node_id``); two node objects with
    the same id are the same logical node.  Coordinates and capacity are
    fixed for the lifetime of a node (the paper assumes network nodes are
    not mobile); what changes over time is which *region(s)* the node owns,
    and that state lives in the overlay, not here.
    """

    node_id: int
    coord: Point
    capacity: float
    address: NodeAddress = None  # type: ignore[assignment]
    properties: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError(f"capacity must be positive, got {self.capacity!r}")
        if self.address is None:
            self.address = synthetic_address(self.node_id)

    def __hash__(self) -> int:
        return hash(self.node_id)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Node):
            return NotImplemented
        return self.node_id == other.node_id

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Node(id={self.node_id}, coord={self.coord}, "
            f"capacity={self.capacity:g})"
        )
