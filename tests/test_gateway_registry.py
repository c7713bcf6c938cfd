"""The persistent peer registry: records, ownership, atomic persistence."""

import json
import os

import pytest

from repro.errors import UnknownPeerError
from repro.gateway.errors import BadRequestError, ObligationConflictError
from repro.gateway.registry import FORMAT_VERSION, PeerRecord, PeerRegistry
from repro.workloads import newspaper
from repro.xschema.writer import schema_to_xschema

STAR = schema_to_xschema(newspaper.schema_star())
STAR2 = schema_to_xschema(newspaper.schema_star2())


def alice(**kwargs) -> PeerRecord:
    return PeerRecord(
        name="alice", xschema=STAR,
        obligations=("Get_Temp", "TimeOut"), **kwargs,
    )


class TestPeerRecord:
    def test_json_round_trip(self):
        record = alice(max_inflight=3)
        clone = PeerRecord.from_json(record.to_json())
        assert clone == record
        assert clone.schema().output_type("Get_Temp") is not None

    def test_schema_is_memoized(self):
        record = alice()
        assert record.schema() is record.schema()

    @pytest.mark.parametrize("broken", [
        {},
        {"name": "", "xschema": STAR},
        {"name": "a", "xschema": "  "},
        {"name": "a", "xschema": STAR, "obligations": [1]},
        {"name": "a", "xschema": STAR, "max_inflight": 0},
        "not even a dict",
    ])
    def test_malformed_payloads_raise_value_error(self, broken):
        with pytest.raises(ValueError):
            PeerRecord.from_json(broken)


class TestPeerRegistry:
    def test_register_get_remove(self):
        registry = PeerRegistry()
        registry.register(alice())
        assert "alice" in registry and len(registry) == 1
        assert registry.get("alice").obligations == ("Get_Temp", "TimeOut")
        assert registry.owner_of("Get_Temp") == "alice"
        registry.remove("alice")
        assert registry.owner_of("Get_Temp") is None
        with pytest.raises(UnknownPeerError):
            registry.get("alice")
        with pytest.raises(UnknownPeerError):
            registry.remove("alice")

    def test_unknown_peer_error_names_known_peers(self):
        registry = PeerRegistry()
        registry.register(alice())
        with pytest.raises(UnknownPeerError, match="alice"):
            registry.get("mallory")

    def test_uncompilable_schema_rejected(self):
        registry = PeerRegistry()
        with pytest.raises(BadRequestError):
            registry.register(PeerRecord(name="bad", xschema="<not-xsd/>"))
        assert len(registry) == 0

    def test_obligation_ownership_is_exclusive(self):
        registry = PeerRegistry()
        registry.register(alice())
        with pytest.raises(ObligationConflictError):
            registry.register(PeerRecord(
                name="eve", xschema=STAR, obligations=("Get_Temp",),
            ))
        # Re-registering the same peer may keep (or shrink) its set.
        registry.register(PeerRecord(
            name="alice", xschema=STAR, obligations=("TimeOut",),
        ))
        assert registry.owner_of("Get_Temp") is None
        assert registry.owner_of("TimeOut") == "alice"

    def test_persistence_round_trip(self, tmp_path):
        path = str(tmp_path / "peers.json")
        registry = PeerRegistry(path)
        registry.register(alice())
        registry.register(PeerRecord(name="bob", xschema=STAR2))

        reloaded = PeerRegistry(path)
        assert reloaded.load_errors == []
        assert reloaded.names() == ["alice", "bob"]
        assert reloaded.get("alice").xschema == STAR  # byte-faithful
        assert reloaded.owner_of("TimeOut") == "alice"

    def test_persisted_file_is_versioned_json(self, tmp_path):
        path = str(tmp_path / "peers.json")
        PeerRegistry(path).register(alice())
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["magic"] == "repro-gateway-registry"
        assert payload["version"] == FORMAT_VERSION
        # No temp files left behind by the atomic write.
        assert os.listdir(str(tmp_path)) == ["peers.json"]

    def test_removal_is_persisted(self, tmp_path):
        path = str(tmp_path / "peers.json")
        registry = PeerRegistry(path)
        registry.register(alice())
        registry.remove("alice")
        assert PeerRegistry(path).names() == []

    def test_corrupt_file_reported_not_trusted(self, tmp_path):
        path = str(tmp_path / "peers.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{ not json")
        registry = PeerRegistry(path)
        assert registry.names() == []
        assert registry.load_errors and "unreadable" in registry.load_errors[0]

    def test_wrong_magic_reported(self, tmp_path):
        path = str(tmp_path / "peers.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"magic": "something-else", "version": 1}, handle)
        registry = PeerRegistry(path)
        assert registry.names() == []
        assert any("magic" in note for note in registry.load_errors)

    def test_bad_entries_skipped_good_ones_kept(self, tmp_path):
        path = str(tmp_path / "peers.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                "magic": "repro-gateway-registry",
                "version": FORMAT_VERSION,
                "peers": [{"name": "", "xschema": STAR},
                          alice().to_json()],
            }, handle)
        registry = PeerRegistry(path)
        assert registry.names() == ["alice"]
        assert len(registry.load_errors) == 1
