"""Tests for the versioned model registry and snapshot exactness."""

import base64
import json

import numpy as np
import pytest

from repro.core.arrays import pack_array, unpack_array
from repro.core.predictor import MARKOV_CHAINS, AnomalyPredictor
from repro.serve.registry import (
    CHAIN_HISTORY,
    SCHEMA_VERSION,
    ModelRegistry,
    RegistryError,
    SnapshotIntegrityError,
    canonical_json,
    content_hash,
)

N_ATTRS = 7
ALL_SCHEMES = [
    (markov, classifier, mode)
    for markov in ("2dep", "simple")
    for classifier in ("tan", "naive")
    for mode in ("soft", "hard")
]


def train_predictor(seed=0, markov="2dep", classifier="tan", mode="soft"):
    rng = np.random.default_rng(seed)
    predictor = AnomalyPredictor(
        [f"m{i}" for i in range(N_ATTRS)], n_bins=6, markov=markov,
        classifier=classifier, prediction_mode=mode,
    )
    values = np.cumsum(rng.normal(size=(250, N_ATTRS)), axis=0)
    labels = (rng.random(250) < 0.3).astype(int)
    return predictor.train(values, labels), values


@pytest.fixture()
def registry(tmp_path):
    return ModelRegistry(tmp_path / "registry")


class TestSnapshotExactness:
    @pytest.mark.parametrize("markov,classifier,mode", ALL_SCHEMES)
    def test_restore_predicts_bitwise_identically(
        self, registry, markov, classifier, mode
    ):
        """Save → load → predict must equal in-memory predict exactly,
        for every (markov, classifier, mode) scheme configuration."""
        predictor, values = train_predictor(
            seed=3, markov=markov, classifier=classifier, mode=mode
        )
        registry.save("fleet", {"vm1": predictor})
        restored = registry.load("fleet")["vm1"]
        recent = values[50:50 + predictor.history_needed + 1]
        for steps in (1, 4):
            a = predictor.predict(recent, steps)
            b = restored.predict(recent, steps)
            assert a.abnormal == b.abnormal
            assert a.score == b.score            # bitwise, not approx
            assert a.probability == b.probability
            assert a.bins == b.bins
            assert a.strengths == b.strengths

    @pytest.mark.parametrize("markov,classifier,mode", ALL_SCHEMES)
    def test_reserialization_is_byte_identical(
        self, registry, markov, classifier, mode
    ):
        predictor, _ = train_predictor(
            seed=5, markov=markov, classifier=classifier, mode=mode
        )
        original = canonical_json(predictor.to_dict())
        restored = AnomalyPredictor.from_dict(json.loads(original))
        assert canonical_json(restored.to_dict()) == original

    def test_saved_document_round_trips_bytes(self, registry):
        predictor, _ = train_predictor(seed=9)
        info = registry.save(
            "fleet", {"vm1": predictor}, created_at="2026-01-01T00:00:00+00:00"
        )
        document = (info.path / "snapshot.json").read_text(encoding="utf-8")
        assert content_hash(document) == info.sha256
        restored = registry.load("fleet")
        payload = json.loads(document)
        payload["vms"] = {
            vm: restored[vm].to_dict() for vm in sorted(restored)
        }
        assert canonical_json(payload) == document


class TestVersioning:
    def test_versions_auto_increment(self, registry):
        predictor, _ = train_predictor()
        first = registry.save("fleet", {"vm1": predictor})
        second = registry.save("fleet", {"vm1": predictor})
        assert (first.version, second.version) == (1, 2)
        assert registry.versions("fleet") == [1, 2]
        assert second.version_label == "v0002"

    def test_load_defaults_to_latest(self, registry):
        p1, _ = train_predictor(seed=1)
        p2, _ = train_predictor(seed=2)
        registry.save("fleet", {"vm1": p1})
        registry.save("fleet", {"vm1": p2})
        latest = registry.load("fleet")["vm1"]
        pinned = registry.load("fleet", version=1)["vm1"]
        assert latest.predict(
            np.zeros((2, N_ATTRS)), 1
        ).score == p2.predict(np.zeros((2, N_ATTRS)), 1).score
        assert pinned.predict(
            np.zeros((2, N_ATTRS)), 1
        ).score == p1.predict(np.zeros((2, N_ATTRS)), 1).score

    def test_list_and_names(self, registry):
        predictor, _ = train_predictor()
        registry.save("alpha", {"vm1": predictor})
        registry.save("alpha", {"vm1": predictor})
        registry.save("beta", {"vm1": predictor})
        assert registry.names() == ["alpha", "beta"]
        entries = registry.list()
        assert [(e.name, e.version) for e in entries] == [
            ("alpha", 1), ("alpha", 2), ("beta", 1)
        ]
        assert all(e.n_vms == 1 and e.vms == ("vm1",) for e in entries)

    def test_missing_name_and_version(self, registry):
        predictor, _ = train_predictor()
        registry.save("fleet", {"vm1": predictor})
        with pytest.raises(RegistryError, match="no snapshots"):
            registry.load("ghost")
        with pytest.raises(RegistryError, match="no version 9"):
            registry.load("fleet", version=9)


class TestSaveValidation:
    def test_rejects_bad_names(self, registry):
        predictor, _ = train_predictor()
        for name in ("", "../evil", "a b", ".hidden", "x/y"):
            with pytest.raises(RegistryError, match="invalid snapshot name"):
                registry.save(name, {"vm1": predictor})

    def test_rejects_empty_and_untrained(self, registry):
        with pytest.raises(RegistryError, match="empty"):
            registry.save("fleet", {})
        fresh = AnomalyPredictor([f"m{i}" for i in range(N_ATTRS)])
        with pytest.raises(RegistryError, match="not trained"):
            registry.save("fleet", {"vm1": fresh})


class TestCorruptionRejection:
    def test_flipped_byte_is_rejected(self, registry):
        predictor, _ = train_predictor()
        info = registry.save("fleet", {"vm1": predictor})
        snap = info.path / "snapshot.json"
        document = snap.read_text(encoding="utf-8")
        schema = f'"schema":{SCHEMA_VERSION}'
        corrupted = document.replace(schema, schema + " ", 1)
        assert corrupted != document
        snap.write_text(corrupted, encoding="utf-8")
        with pytest.raises(SnapshotIntegrityError, match="sha256"):
            registry.load("fleet")

    def test_manifest_hash_mismatch_is_rejected(self, registry):
        predictor, _ = train_predictor()
        info = registry.save("fleet", {"vm1": predictor})
        manifest_path = info.path / "manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["sha256"] = "0" * 64
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(SnapshotIntegrityError):
            registry.load("fleet")

    def test_vm_list_mismatch_is_rejected(self, registry):
        predictor, _ = train_predictor()
        info = registry.save("fleet", {"vm1": predictor})
        manifest_path = info.path / "manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["vms"] = ["vm1", "phantom"]
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        # Rewriting the manifest alone cannot fool the loader: either
        # the hash check or the VM cross-check must fire.
        with pytest.raises(SnapshotIntegrityError):
            registry.load("fleet")

    def test_unsupported_schema_is_rejected(self, registry):
        predictor, _ = train_predictor()
        info = registry.save("fleet", {"vm1": predictor})
        snap = info.path / "snapshot.json"
        payload = json.loads(snap.read_text(encoding="utf-8"))
        payload["schema"] = 99
        document = canonical_json(payload)
        snap.write_text(document, encoding="utf-8")
        manifest_path = info.path / "manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["sha256"] = content_hash(document)
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(RegistryError, match="unsupported schema"):
            registry.load("fleet")

    def test_truncated_snapshot_is_rejected(self, registry):
        predictor, _ = train_predictor()
        info = registry.save("fleet", {"vm1": predictor})
        snap = info.path / "snapshot.json"
        snap.write_text(
            snap.read_text(encoding="utf-8")[:100], encoding="utf-8"
        )
        with pytest.raises(SnapshotIntegrityError):
            registry.load("fleet")


class TestModelHooksValidation:
    def test_predictor_from_dict_rejects_wrong_kind(self):
        predictor, _ = train_predictor()
        blob = predictor.to_dict()
        blob["kind"] = "something-else"
        with pytest.raises(ValueError, match="kind"):
            AnomalyPredictor.from_dict(blob)

    def test_predictor_from_dict_rejects_wrong_chain_count(self):
        predictor, _ = train_predictor()
        blob = predictor.to_dict()
        blob["value_models"] = blob["value_models"][:-1]
        with pytest.raises(ValueError):
            AnomalyPredictor.from_dict(blob)

    def test_predictor_from_dict_rejects_bad_shapes(self):
        predictor, _ = train_predictor()
        blob = predictor.to_dict()
        blob["discretizer"]["bins"][0]["edges"] = pack_array(
            np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            AnomalyPredictor.from_dict(blob)


def fleet_of(n, markov="2dep", classifier="tan", mode="soft"):
    return {
        f"vm{i}": train_predictor(
            seed=20 + i, markov=markov, classifier=classifier, mode=mode
        )[0]
        for i in range(n)
    }


def flip_base64(info, last=False):
    """Change one base64 character of the first (or last) packed array
    in the snapshot, without re-hashing."""
    snap = info.path / "snapshot.json"
    document = snap.read_text(encoding="utf-8")
    find = document.rindex if last else document.index
    at = find('"data":"') + len('"data":"')
    flipped = "B" if document[at] == "A" else "A"
    snap.write_text(document[:at] + flipped + document[at + 1:],
                    encoding="utf-8")


class TestShardLoad:
    @pytest.mark.parametrize("markov,classifier,mode", ALL_SCHEMES)
    def test_half_load_restores_those_vms_bitwise(
        self, registry, markov, classifier, mode
    ):
        registry.save("fleet", fleet_of(4, markov, classifier, mode))
        full = registry.load("fleet")
        half = registry.load("fleet", vms=["vm3", "vm1"])
        assert list(half) == ["vm1", "vm3"]      # snapshot order
        recent = np.cumsum(
            np.random.default_rng(4).normal(size=(3, N_ATTRS)), axis=0)
        for vm, restored in half.items():
            assert canonical_json(restored.to_dict()) == canonical_json(
                full[vm].to_dict())
            for steps in (1, 4):
                a = full[vm].predict(recent, steps)
                b = restored.predict(recent, steps)
                assert (a.score, a.probability, a.bins, a.strengths) == (
                    b.score, b.probability, b.bins, b.strengths)

    def test_empty_vm_list_restores_nothing(self, registry):
        registry.save("fleet", fleet_of(2))
        assert registry.load("fleet", vms=()) == {}

    def test_unknown_vm_is_refused_by_name(self, registry):
        registry.save("fleet", fleet_of(2))
        with pytest.raises(RegistryError, match="nope"):
            registry.load("fleet", vms=["vm0", "nope"])

    def test_shard_load_still_verifies_the_whole_document(self, registry):
        info = registry.save("fleet", fleet_of(2))
        # Corrupt vm1's blob; a load of vm0 alone must still refuse.
        flip_base64(info, last=True)
        with pytest.raises(SnapshotIntegrityError, match="sha256"):
            registry.load("fleet", vms=["vm0"])


class TestDescribe:
    def test_history_table_matches_the_chain_classes(self):
        # describe reads history lengths from a numpy-free copy of the
        # chain classes' history_needed; the copy must not drift.
        assert CHAIN_HISTORY == {
            kind: chain.history_needed
            for kind, chain in MARKOV_CHAINS.items()
        }

    def test_reports_attribute_count_and_history(self, registry):
        rng = np.random.default_rng(2)
        predictors = {}
        for vm, n_attrs, markov in (("a", 3, "2dep"), ("b", 5, "simple")):
            p = AnomalyPredictor([f"x{i}" for i in range(n_attrs)],
                                 n_bins=6, markov=markov)
            values = np.cumsum(rng.normal(size=(200, n_attrs)), axis=0)
            labels = (rng.random(200) < 0.3).astype(int)
            predictors[vm] = p.train(values, labels)
        registry.save("fleet", predictors)
        assert registry.describe("fleet") == {"a": (3, 2), "b": (5, 1)}
        assert {
            vm: (len(p.attributes), p.history_needed)
            for vm, p in predictors.items()
        } == registry.describe("fleet", version=1)

    def test_describe_verifies_like_load(self, registry):
        info = registry.save("fleet", fleet_of(1))
        manifest_path = info.path / "manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["sha256"] = "0" * 64
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(SnapshotIntegrityError):
            registry.describe("fleet")

    def test_describe_refuses_an_unknown_chain_by_vm(self, registry):
        info = registry.save("fleet", fleet_of(1))
        rehash(info, lambda p: p["vms"]["vm0"].update(markov="3dep"))
        with pytest.raises(RegistryError, match="'vm0'"):
            registry.describe("fleet")


def rehash(info, mutate):
    """Apply ``mutate`` to the snapshot payload and re-hash it into the
    manifest, so only the loader's own checks stand between it and a
    restore."""
    snap = info.path / "snapshot.json"
    payload = json.loads(snap.read_text(encoding="utf-8"))
    mutate(payload)
    document = canonical_json(payload)
    snap.write_text(document, encoding="utf-8")
    manifest_path = info.path / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    manifest["sha256"] = content_hash(document)
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")


def poke(packed, dtype, index, value):
    array = unpack_array(packed, dtype)
    array.flat[index] = value
    return pack_array(array)


class TestCorruptPackedArrays:
    """A re-hashed snapshot passes the integrity check, so each array
    fault must be caught by the codec or ``from_dict``, by VM name."""

    def short_data(blob):
        counts = blob["value_models"][0]["counts"]
        raw = base64.b64decode(counts["data"])[:-8]
        counts["data"] = base64.b64encode(raw).decode("ascii")

    def wrong_dtype(blob):
        blob["discretizer"]["bins"][0]["edges"]["dtype"] = "<f4"

    def nan_count(blob):
        chain = blob["value_models"][0]
        chain["counts"] = poke(chain["counts"], "<f8", 0, np.nan)

    def positive_log_cpt(blob):
        clf = blob["classifier_model"]
        clf["log_cpt"][0] = poke(clf["log_cpt"][0], "<f8", 0, 0.5)

    @pytest.mark.parametrize("mutate,match", [
        (short_data, "bytes"),
        (wrong_dtype, "dtype"),
        (nan_count, "NaN"),
        (positive_log_cpt, "positive log"),
    ], ids=["short_data", "wrong_dtype", "nan_count", "positive_log_cpt"])
    def test_rehashed_fault_is_refused_by_vm(self, registry, mutate, match):
        info = registry.save("fleet", fleet_of(2))
        rehash(info, lambda p: mutate(p["vms"]["vm0"]))
        with pytest.raises(RegistryError, match=match) as err:
            registry.load("fleet")
        assert "'vm0'" in str(err.value)
        with pytest.raises(RegistryError, match="'vm0'"):
            registry.load("fleet", vms=["vm0"])
        assert list(registry.load("fleet", vms=["vm1"])) == ["vm1"]

    def test_flipped_base64_without_rehash_is_an_integrity_error(
        self, registry
    ):
        info = registry.save("fleet", fleet_of(1))
        flip_base64(info)
        with pytest.raises(SnapshotIntegrityError, match="sha256"):
            registry.load("fleet")

    def test_schema_1_snapshot_is_refused_with_a_resave_hint(self, registry):
        info = registry.save("fleet", fleet_of(1))
        rehash(info, lambda p: p.update(schema=1))
        with pytest.raises(RegistryError, match="schema 1.*re-save"):
            registry.load("fleet")
        with pytest.raises(RegistryError, match="re-save"):
            registry.describe("fleet")
