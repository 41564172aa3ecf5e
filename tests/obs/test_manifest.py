"""RunManifest build/write/load and dataset fingerprinting."""

import json

import pytest

from repro.datasets import load_dataset
from repro.obs import build_manifest, dataset_fingerprint
from repro.obs.manifest import git_revision, load_manifest

RUN = {"artifact": "fidelity", "dataset": "tree_cycles", "conv": "gcn",
       "methods": ["gradcam", "revelio"], "mode": "factual", "seed": 0}
PERF = {"flow_enumerations": 4, "batched_forwards": 12,
        "stage_seconds": {"masked_forward_batch": 0.25}}
SPANS = {"revelio": {"explain": {"count": 4, "seconds": 2.0},
                     "flow_enumerate": {"count": 4, "seconds": 0.5}},
         "-": {"experiment": {"count": 1, "seconds": 3.0}}}


class TestBuild:
    def test_build_fills_environment_fields(self):
        m = build_manifest("tid", RUN, PERF, SPANS, dropped_spans=3,
                           fingerprint="abc123")
        assert m.trace_id == "tid"
        assert m.run["artifact"] == "fidelity"
        assert m.perf["flow_enumerations"] == 4
        assert m.dropped_spans == 3
        assert m.dataset_fingerprint == "abc123"
        assert m.created_unix > 0
        assert m.schema_version == 1
        assert set(m.versions) == {"repro", "python", "numpy"}

    def test_git_revision_contract(self):
        # Inside a checkout: the HEAD sha of the checkout holding the
        # package. Outside one (an exported source tree): None.
        import subprocess
        from pathlib import Path

        import repro.obs.manifest as manifest_mod

        root = next((p for p in Path(manifest_mod.__file__).resolve().parents
                     if (p / ".git").exists()), None)
        if root is None:
            assert git_revision() is None
        else:
            head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                  capture_output=True, text=True, check=True)
            assert git_revision() == head.stdout.strip()

    def test_git_revision_none_outside_checkout(self, tmp_path, monkeypatch):
        import repro.obs.manifest as manifest_mod

        if any((p / ".git").exists() for p in tmp_path.resolve().parents):
            pytest.skip("the temporary directory itself sits in a git checkout")
        fake = tmp_path / "repro" / "obs" / "manifest.py"
        monkeypatch.setattr(manifest_mod, "__file__", str(fake))
        assert git_revision() is None

    def test_stage_seconds_lookup(self):
        m = build_manifest("tid", RUN, PERF, SPANS)
        assert m.stage_seconds("revelio", "flow_enumerate") == 0.5
        assert m.stage_seconds("revelio", "missing") == 0.0
        assert m.stage_seconds("nope", "explain") == 0.0


class TestRoundTrip:
    def test_write_load_round_trip(self, tmp_path):
        m = build_manifest("tid", RUN, PERF, SPANS, fingerprint="abc")
        path = m.write(tmp_path / "runs" / "m.manifest.json")
        assert path.exists()
        back = load_manifest(path)
        assert back.trace_id == m.trace_id
        assert back.run == m.run
        assert back.perf == m.perf
        assert back.spans == m.spans
        assert back.dataset_fingerprint == "abc"
        assert back.git_sha == m.git_sha

    def test_load_ignores_unknown_fields(self, tmp_path):
        m = build_manifest("tid", RUN, PERF, SPANS)
        path = m.write(tmp_path / "m.json")
        data = json.loads(path.read_text())
        data["future_field"] = {"x": 1}
        path.write_text(json.dumps(data))
        back = load_manifest(path)
        assert back.trace_id == "tid"

    def test_write_degrades_numpy_values(self, tmp_path):
        import numpy as np

        m = build_manifest("tid", {"seed": np.int64(7)},
                           {"rows": np.float64(1.5)}, {})
        path = m.write(tmp_path / "m.json")
        data = json.loads(path.read_text())
        assert data["run"]["seed"] == 7
        assert data["perf"]["rows"] == 1.5


class TestDatasetFingerprint:
    def test_node_dataset_stable(self):
        a = dataset_fingerprint(load_dataset("tree_cycles", scale=0.12, seed=0))
        b = dataset_fingerprint(load_dataset("tree_cycles", scale=0.12, seed=0))
        assert a == b

    def test_node_dataset_sensitive_to_seed(self):
        a = dataset_fingerprint(load_dataset("tree_cycles", scale=0.12, seed=0))
        b = dataset_fingerprint(load_dataset("tree_cycles", scale=0.12, seed=1))
        assert a != b

    def test_graph_dataset_fingerprints(self):
        a = dataset_fingerprint(load_dataset("ba_2motifs", scale=0.1, seed=0))
        b = dataset_fingerprint(load_dataset("ba_2motifs", scale=0.1, seed=0))
        assert a == b
        c = dataset_fingerprint(load_dataset("ba_2motifs", scale=0.1, seed=1))
        assert a != c
