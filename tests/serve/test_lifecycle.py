"""Tests for the champion/challenger lifecycle.

Covers the three layers added for continuous learning:

* the registry's champion pointer (``promote``/``rollback``/
  ``active_info``/``load_active``) and its integrity guarantees;
* the service's shadow-scoring plumbing (``set_challenger``,
  ``promote_challenger``, ``rollback_champion``) — challengers are
  invisible to clients, promotions/rollbacks are bitwise swaps of the
  in-memory scorer;
* the :class:`~repro.serve.lifecycle.LifecycleManager` loop — drift
  trigger over trailing windows, challenger installation, the
  agreement-gated promotion, and registry-synchronized rollback.
"""

import asyncio
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.core.predictor import AnomalyPredictor
from repro.serve.lifecycle import LifecycleConfig, LifecycleManager
from repro.serve.protocol import encode_message
from repro.serve.registry import (
    SCHEMA_VERSION,
    ModelRegistry,
    RegistryError,
    SnapshotIntegrityError,
)
from repro.serve.service import PredictionService, ServiceConfig

N_ATTRS = 9


def train_predictor(seed=0, n_attrs=N_ATTRS):
    rng = np.random.default_rng(seed)
    predictor = AnomalyPredictor(
        [f"m{i}" for i in range(n_attrs)], n_bins=6, markov="2dep",
        classifier="tan",
    )
    values = np.cumsum(rng.normal(size=(250, n_attrs)), axis=0)
    labels = (rng.random(250) < 0.3).astype(int)
    return predictor.train(values, labels), values


def make_fleet(n_vms=3, seed0=20):
    predictors, traces = {}, {}
    for i in range(n_vms):
        p, v = train_predictor(seed=seed0 + i)
        predictors[f"vm{i}"] = p
        traces[f"vm{i}"] = v
    return predictors, traces


@pytest.fixture()
def registry(tmp_path):
    return ModelRegistry(tmp_path / "registry")


# ----------------------------------------------------------------------
# Registry champion pointer
# ----------------------------------------------------------------------
class TestRegistryPromotion:
    def test_promote_and_rollback_pointer_mechanics(self, registry):
        predictors, _ = make_fleet(1)
        v1 = registry.save("fleet", predictors).version
        v2 = registry.save("fleet", predictors).version

        active = registry.promote("fleet", v1)
        assert (active.version, active.previous) == (v1, None)
        active = registry.promote("fleet", v2)
        assert (active.version, active.previous) == (v2, v1)
        assert registry.active_version("fleet") == v2

        active = registry.rollback("fleet")
        assert active.version == v1
        # The demoted version is retained, so a roll *forward* works.
        assert active.previous == v2

    def test_promote_unknown_version_raises(self, registry):
        predictors, _ = make_fleet(1)
        registry.save("fleet", predictors)
        with pytest.raises(RegistryError):
            registry.promote("fleet", 99)
        with pytest.raises(RegistryError):
            registry.promote("ghost", 1)

    def test_promote_refuses_corrupt_snapshot(self, registry):
        predictors, _ = make_fleet(1)
        info = registry.save("fleet", predictors)
        snap = info.path / "snapshot.json"
        document = snap.read_text(encoding="utf-8")
        schema = f'"schema":{SCHEMA_VERSION}'
        corrupted = document.replace(schema, schema + " ", 1)
        assert corrupted != document
        snap.write_text(corrupted, encoding="utf-8")
        with pytest.raises(SnapshotIntegrityError):
            registry.promote("fleet", info.version)
        # The pointer never moved.
        assert registry.active_info("fleet") is None

    def test_rollback_without_previous_raises(self, registry):
        predictors, _ = make_fleet(1)
        info = registry.save("fleet", predictors)
        with pytest.raises(RegistryError):
            registry.rollback("fleet")  # never promoted
        registry.promote("fleet", info.version)
        with pytest.raises(RegistryError):
            registry.rollback("fleet")  # promoted, nothing displaced

    def test_repromoting_active_version_keeps_previous(self, registry):
        predictors, _ = make_fleet(1)
        v1 = registry.save("fleet", predictors).version
        v2 = registry.save("fleet", predictors).version
        registry.promote("fleet", v1)
        registry.promote("fleet", v2)
        again = registry.promote("fleet", v2)
        assert (again.version, again.previous) == (v2, v1)

    def test_load_active_follows_pointer_or_latest(self, registry):
        predictors, _ = make_fleet(1)
        v1 = registry.save("fleet", predictors).version
        registry.save("fleet", predictors)
        # No pointer: latest wins (backwards-compatible default).
        assert registry.load_active("fleet").keys() == predictors.keys()
        registry.promote("fleet", v1)
        loaded = registry.load_active("fleet")
        want = registry.load("fleet", v1)
        assert {
            vm: p.to_dict() for vm, p in loaded.items()
        } == {
            vm: p.to_dict() for vm, p in want.items()
        }

    def test_malformed_active_file_raises(self, registry):
        predictors, _ = make_fleet(1)
        registry.save("fleet", predictors)
        active_path = registry.root / "fleet" / "active.json"
        active_path.write_text("{not json", encoding="utf-8")
        with pytest.raises(RegistryError):
            registry.active_info("fleet")


# ----------------------------------------------------------------------
# Service shadow scoring
# ----------------------------------------------------------------------
def run_service_test(coro_factory, predictors, config=None):
    async def main():
        service = PredictionService(predictors, config)
        with tempfile.TemporaryDirectory() as tmp:
            sock = str(Path(tmp) / "serve.sock")
            await service.start(path=sock)
            try:
                return await coro_factory(service, sock)
            finally:
                await service.stop()
    return asyncio.run(main())


async def stream_rows(service, sock, traces, lo, hi):
    """Send rows [lo, hi) of every trace; return the replies."""
    reader, writer = await asyncio.open_unix_connection(sock)
    replies = []
    try:
        for i in range(lo, hi):
            for vm in sorted(traces):
                writer.write(encode_message({
                    "op": "sample", "vm": vm,
                    "values": [float(x) for x in traces[vm][i]],
                }))
                await writer.drain()
                replies.append(json.loads(await reader.readline()))
        await service.drain()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
    return replies


class TestServiceShadowing:
    def test_challenger_is_invisible_and_tallied(self):
        """Replies with a challenger installed are byte-identical to a
        champion-only service; agreement of an identical challenger is
        exactly 1.0."""
        predictors, traces = make_fleet(2)

        async def baseline(service, sock):
            return await stream_rows(service, sock, traces, 0, 30)

        async def shadowed(service, sock):
            # The challenger is the same trained fleet: decisions must
            # agree on every scored sample.
            service.set_challenger(predictors, version=7)
            replies = await stream_rows(service, sock, traces, 0, 30)
            return replies, service.shadow_stats(), service.stats()

        plain = run_service_test(baseline, predictors)
        replies, shadow, stats = run_service_test(shadowed, predictors)
        assert replies == plain
        assert stats["shadowing"] is True
        assert shadow["scored"] > 0
        assert shadow["agreement"] == 1.0
        assert shadow["agreements"] == shadow["scored"]
        assert shadow["challenger_version"] == 7
        assert shadow["champion_alerts"] == shadow["challenger_alerts"]

    def test_set_challenger_rejects_incompatible_fleet(self):
        predictors, _ = make_fleet(2)
        service = PredictionService(predictors, ServiceConfig())
        bad, _ = train_predictor(seed=99, n_attrs=N_ATTRS - 1)
        with pytest.raises(ValueError, match="incompatible"):
            service.set_challenger({"vm0": bad})
        assert service.stats()["shadowing"] is False

    def test_promote_and_rollback_swap_scorers_bitwise(self):
        predictors, _ = make_fleet(2)
        challenger_fleet, _ = make_fleet(2, seed0=40)
        service = PredictionService(predictors, ServiceConfig())
        service.champion_version = 1
        champion_scorer = service.scorer

        service.set_challenger(challenger_fleet, version=2)
        challenger_scorer = service._challenger
        service.promote_challenger()
        assert service.scorer is challenger_scorer
        assert service.champion_version == 2
        assert service.stats()["shadowing"] is False

        service.rollback_champion()
        # Same object back — decisions are bitwise the pre-promotion
        # champion's by construction.
        assert service.scorer is champion_scorer
        assert service.champion_version == 1

    def test_promote_without_challenger_raises(self):
        predictors, _ = make_fleet(1)
        service = PredictionService(predictors, ServiceConfig())
        with pytest.raises(RuntimeError, match="no challenger"):
            service.promote_challenger()
        with pytest.raises(RuntimeError, match="no previous"):
            service.rollback_champion()

    def test_clear_challenger_stops_shadowing(self):
        predictors, _ = make_fleet(1)
        service = PredictionService(predictors, ServiceConfig())
        service.set_challenger(predictors, version=3)
        service.clear_challenger()
        assert service.stats()["shadowing"] is False
        assert service.shadow_stats()["challenger_version"] is None


# ----------------------------------------------------------------------
# LifecycleManager
# ----------------------------------------------------------------------
def make_manager(registry, predictors, trainer=None, **config_kw):
    service = PredictionService(predictors, ServiceConfig())
    config = LifecycleConfig(**config_kw) if config_kw else LifecycleConfig()
    manager = LifecycleManager(
        service, registry, "fleet",
        trainer=trainer or (lambda windows: {}),
        config=config,
    )
    return service, manager


class TestLifecycleManager:
    def test_drift_fires_on_step_change_only(self, registry):
        predictors, _ = make_fleet(2)
        _service, manager = make_manager(
            registry, predictors, drift_window=12,
        )
        rng = np.random.default_rng(5)
        fired = []
        # Flat regime: fill the full window, no trigger.
        for _ in range(12):
            for vm in predictors:
                row = 10.0 + rng.normal(size=N_ATTRS) * 0.1
                fired.append(manager.observe(vm, row))
        assert not any(fired)
        # Step change on every VM: must fire within one window.
        fired = []
        for _ in range(12):
            for vm in predictors:
                row = 200.0 + rng.normal(size=N_ATTRS) * 0.1
                fired.append(manager.observe(vm, row))
        assert any(fired)
        assert any(
            e["event"] == "drift_detected" for e in manager.events
        )

    def test_drift_suppressed_while_challenger_installed(self, registry):
        predictors, _ = make_fleet(2)
        service, manager = make_manager(
            registry, predictors, drift_window=12,
        )
        service.set_challenger(predictors)
        rng = np.random.default_rng(6)
        fired = []
        for i in range(24):
            level = 10.0 if i < 12 else 500.0
            for vm in predictors:
                row = level + rng.normal(size=N_ATTRS) * 0.1
                fired.append(manager.observe(vm, row))
        # The same step change that fires in the previous test is
        # ignored: evidence gathering is in progress.
        assert not any(fired)

    def test_observe_unknown_vm_is_ignored(self, registry):
        predictors, _ = make_fleet(1)
        _service, manager = make_manager(registry, predictors)
        assert manager.observe("ghost", [0.0] * N_ATTRS) is False

    def test_train_challenger_skips_on_empty_fleet(self, registry):
        predictors, _ = make_fleet(1)
        _service, manager = make_manager(
            registry, predictors, trainer=lambda windows: {},
        )
        assert manager.train_challenger() is None
        assert any(
            e["event"] == "challenger_skipped" for e in manager.events
        )

    def test_train_challenger_saves_and_installs(self, registry):
        predictors, _ = make_fleet(1)
        challenger_fleet, _ = make_fleet(1, seed0=50)
        service, manager = make_manager(
            registry, predictors, trainer=lambda windows: challenger_fleet,
        )
        registry.save("fleet", predictors)  # champion is v1
        version = manager.train_challenger()
        assert version == 2
        assert version in registry.versions("fleet")
        assert service.stats()["shadowing"] is True
        assert service._challenger_version == version

    def test_promotion_gate_requires_evidence(self, registry):
        predictors, _ = make_fleet(1)
        service, manager = make_manager(
            registry, predictors, min_shadow_samples=10,
        )
        assert manager.maybe_promote() is False  # no challenger at all
        service.set_challenger(predictors, version=1)
        service._shadow.update({"scored": 5, "agreements": 5})
        # Too few shadow decisions: keep gathering, keep the challenger.
        assert manager.maybe_promote() is False
        assert service.stats()["shadowing"] is True

    def test_promotion_gate_rejects_divergent_challenger(self, registry):
        predictors, _ = make_fleet(1)
        service, manager = make_manager(
            registry, predictors,
            min_shadow_samples=10, min_agreement=0.9,
        )
        service.set_challenger(predictors, version=1)
        service._shadow.update({"scored": 20, "agreements": 10})
        assert manager.maybe_promote() is False
        # A divergent challenger is discarded, not left shadowing.
        assert service.stats()["shadowing"] is False
        assert any(
            e["event"] == "challenger_rejected" for e in manager.events
        )

    def test_promote_then_rollback_syncs_registry_and_service(
        self, registry
    ):
        predictors, _ = make_fleet(1)
        challenger_fleet, _ = make_fleet(1, seed0=60)
        service, manager = make_manager(
            registry, predictors,
            trainer=lambda windows: challenger_fleet,
            min_shadow_samples=10, min_agreement=0.9,
        )
        champ_version = registry.save("fleet", predictors).version
        registry.promote("fleet", champ_version)
        service.champion_version = champ_version

        chall_version = manager.train_challenger()
        service._shadow.update({"scored": 20, "agreements": 20})
        assert manager.maybe_promote() is True
        assert service.champion_version == chall_version
        assert registry.active_version("fleet") == chall_version
        assert any(
            e["event"] == "challenger_promoted" for e in manager.events
        )

        manager.rollback()
        assert service.champion_version == champ_version
        assert registry.active_version("fleet") == champ_version
        assert any(
            e["event"] == "champion_rolled_back" for e in manager.events
        )


class TestLifecycleAlarms:
    """Operator alarms raised on drift / promotion / rollback."""

    def _wired_manager(self, registry, **config_kw):
        from repro.serve.alarms import AlarmManager

        predictors, _ = make_fleet(1)
        challenger_fleet, _ = make_fleet(1, seed0=70)
        service = PredictionService(predictors, ServiceConfig())
        alarms = AlarmManager()
        manager = LifecycleManager(
            service, registry, "fleet",
            trainer=lambda windows: challenger_fleet,
            config=LifecycleConfig(**config_kw),
            alarms=alarms,
        )
        return service, manager, alarms

    def test_drift_raises_fleet_alarm(self, registry):
        service, manager, alarms = self._wired_manager(
            registry, drift_window=12)
        rng = np.random.default_rng(9)
        for i in range(24):
            level = 10.0 if i < 12 else 500.0
            for vm in service.scorer.predictors:
                manager.observe(vm, level + rng.normal(size=N_ATTRS) * 0.1)
        drift = [a for a in alarms.alarms() if a.kind == "drift"]
        assert len(drift) == 1 and drift[0].vm == "fleet"
        assert drift[0].state == "active"

    def test_promotion_raises_info_alarm_and_resolves_drift(self, registry):
        service, manager, alarms = self._wired_manager(
            registry, min_shadow_samples=10, min_agreement=0.9)
        drift = alarms.raise_alarm("fleet", "drift", "warning")
        version = manager.train_challenger()
        service._shadow.update({"scored": 20, "agreements": 20})
        assert manager.maybe_promote() is True
        promo = [a for a in alarms.alarms() if a.kind == "promotion"]
        assert len(promo) == 1 and promo[0].severity == "info"
        assert promo[0].detail["version"] == version
        assert drift.state == "resolved"

    def test_rejection_and_rollback_alarms(self, registry):
        service, manager, alarms = self._wired_manager(
            registry, min_shadow_samples=10, min_agreement=0.9)
        champ = registry.save("fleet", service.scorer.predictors).version
        registry.promote("fleet", champ)
        service.champion_version = champ

        service.set_challenger(service.scorer.predictors, version=champ)
        service._shadow.update({"scored": 20, "agreements": 10})
        assert manager.maybe_promote() is False
        rejected = [a for a in alarms.alarms() if a.kind == "challenger"]
        assert len(rejected) == 1 and rejected[0].severity == "warning"

        manager.train_challenger()
        service._shadow.update({"scored": 20, "agreements": 20})
        assert manager.maybe_promote() is True
        manager.rollback()
        rollback = [a for a in alarms.alarms() if a.kind == "rollback"]
        assert len(rollback) == 1 and rollback[0].severity == "critical"

    def test_no_alarm_manager_changes_nothing(self, registry):
        predictors, _ = make_fleet(1)
        _service, manager = make_manager(registry, predictors)
        assert manager.alarms is None
