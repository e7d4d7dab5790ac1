"""Tests for repro.core.node."""

import pytest

from repro.core.node import Node, NodeAddress, synthetic_address
from repro.geometry import Point


class TestNodeAddress:
    def test_str(self):
        assert str(NodeAddress("10.0.0.1", 7000)) == "10.0.0.1:7000"

    def test_synthetic_addresses_unique(self):
        seen = {synthetic_address(i) for i in range(1000)}
        assert len(seen) == 1000

    def test_synthetic_address_deterministic(self):
        assert synthetic_address(42) == synthetic_address(42)

    def test_synthetic_address_negative_rejected(self):
        with pytest.raises(ValueError):
            synthetic_address(-1)

    def test_hash_equals_field_tuple_hash(self):
        for address in (NodeAddress("10.0.0.1", 7000), synthetic_address(77)):
            assert hash(address) == hash((address.ip, address.port))

    @pytest.mark.parametrize("name", ["ip", "port", "extra"])
    def test_setting_an_attribute_raises(self, name):
        address = NodeAddress("10.0.0.1", 7000)
        with pytest.raises(AttributeError):
            setattr(address, name, "x")
        with pytest.raises(AttributeError):
            delattr(address, name)
        assert address == NodeAddress("10.0.0.1", 7000)

    def test_equal_across_pickle_and_copy(self):
        import copy
        import pickle

        address = NodeAddress(ip="10.0.3.4", port=7001)
        for clone in (
            pickle.loads(pickle.dumps(address)),
            copy.copy(address),
            copy.deepcopy(address),
            NodeAddress(address.ip, address.port),
        ):
            assert clone == address and not clone != address
            assert hash(clone) == hash(address)
            assert {clone: 1}[address] == 1

    def test_equality_by_fields_only(self):
        address = NodeAddress("10.0.0.1", 7000)
        assert address != NodeAddress("10.0.0.1", 7001)
        assert address != NodeAddress("10.0.0.2", 7000)
        assert address != ("10.0.0.1", 7000)
        assert address != None  # noqa: E711

    def test_repr(self):
        assert repr(NodeAddress("10.0.0.1", 7000)) == (
            "NodeAddress(ip='10.0.0.1', port=7000)"
        )


class TestNode:
    def test_five_attribute_tuple(self):
        """The paper's <x, y, IP, port, properties> identity."""
        node = Node(
            node_id=7,
            coord=Point(1.0, 2.0),
            capacity=10.0,
            properties={"storage": 100},
        )
        assert node.coord == Point(1.0, 2.0)
        assert node.address.ip
        assert node.address.port == 7000
        assert node.properties["storage"] == 100

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            Node(node_id=1, coord=Point(0, 0), capacity=0.0)
        with pytest.raises(ValueError):
            Node(node_id=1, coord=Point(0, 0), capacity=-5.0)

    def test_equality_by_identity(self):
        a = Node(node_id=1, coord=Point(0, 0), capacity=1.0)
        b = Node(node_id=1, coord=Point(9, 9), capacity=99.0)
        c = Node(node_id=2, coord=Point(0, 0), capacity=1.0)
        assert a == b
        assert a != c
        assert hash(a) == hash(b)

    def test_explicit_address_kept(self):
        addr = NodeAddress("192.168.1.1", 9000)
        node = Node(node_id=1, coord=Point(0, 0), capacity=1.0, address=addr)
        assert node.address == addr

    def test_usable_in_sets(self):
        nodes = {
            Node(node_id=i % 3, coord=Point(i, i), capacity=1.0)
            for i in range(9)
        }
        assert len(nodes) == 3
