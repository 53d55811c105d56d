"""Tests for StoreConfig and the layers that take it."""

import pytest

from repro.api import Engine
from repro.serve.server import ContainmentServer
from repro.service.engine import ContainmentService
from repro.store import SNAPSHOT_POLICIES, StoreConfig


class TestValidation:
    def test_defaults(self):
        config = StoreConfig()
        assert config.capacity == 128
        assert config.path is None
        assert config.snapshot_policy == "always"
        assert config.read_only is False
        assert config.result_cache == 4096
        assert config.persistent is False

    def test_capacity_floor(self):
        with pytest.raises(ValueError):
            StoreConfig(capacity=0)

    def test_policy_membership(self):
        for policy in SNAPSHOT_POLICIES:
            StoreConfig(snapshot_policy=policy)
        with pytest.raises(ValueError):
            StoreConfig(snapshot_policy="sometimes")

    def test_result_cache_floor(self):
        StoreConfig(result_cache=0)  # 0 disables the cache, still valid
        with pytest.raises(ValueError):
            StoreConfig(result_cache=-1)

    def test_read_only_requires_path(self):
        with pytest.raises(ValueError):
            StoreConfig(read_only=True)
        StoreConfig(read_only=True, path="/tmp/somewhere")  # fine with a path

    def test_persistent_property(self, tmp_path):
        assert StoreConfig(path=tmp_path).persistent is True

    def test_with_overrides(self):
        base = StoreConfig()
        tweaked = base.with_overrides(capacity=9, snapshot_policy="manual")
        assert tweaked.capacity == 9
        assert tweaked.snapshot_policy == "manual"
        assert base.capacity == 128  # frozen original untouched


class TestLayerShims:
    """Every layer takes its storage sizes from one StoreConfig."""

    @pytest.mark.parametrize("kwarg", ["store_capacity", "result_cache"])
    def test_scattered_kwargs_are_rejected(self, kwarg):
        for layer in (Engine, ContainmentService, ContainmentServer):
            with pytest.raises(TypeError, match=kwarg):
                layer(**{kwarg: 5})

    def test_default_config_when_none_given(self):
        service = ContainmentService()
        try:
            assert service.store_config == StoreConfig()
        finally:
            service.close()

    def test_engine_store_config_is_silent(self, recwarn):
        engine = Engine(store_config=StoreConfig(capacity=5, result_cache=8))
        try:
            assert engine.store_config.capacity == 5
            assert engine.store_config.result_cache == 8
        finally:
            engine.close()
        assert not [w for w in recwarn if w.category is DeprecationWarning]

    def test_server_shards_share_config(self, tmp_path):
        config = StoreConfig(capacity=6, path=tmp_path / "chase.db")
        server = ContainmentServer(shards=2, store_config=config)
        try:
            assert server.store_config == config
            for engine in server.engines:
                assert engine.store_config == config
        finally:
            server.close()
