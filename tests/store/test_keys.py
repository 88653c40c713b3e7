"""Tests for repro.store.keys — canonical task fingerprints."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.runner import SessionTask
from repro.operators.profiles import EU_PROFILES
from repro.store.keys import (
    STORE_SCHEMA_VERSION,
    UnfingerprintableTask,
    canonical_json,
    task_fingerprint,
)
from repro.xcal.dataset import CampaignSpec, run_session

SRC = str(Path(__file__).resolve().parents[2] / "src")


def _campaign_task(direction: str = "DL", seed: int = 41) -> SessionTask:
    return SessionTask(
        fn=run_session,
        kwargs={"profile": EU_PROFILES["V_Sp"],
                "spec": CampaignSpec(minutes_per_operator=0.2, session_s=4.0, seed=9),
                "direction": direction},
        seed=seed,
        label="V_Sp/DL/000",
    )


class TestCanonicalJson:
    def test_dict_order_irrelevant(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_dataclass_and_enum(self):
        spec = CampaignSpec(seed=7)
        encoded = canonical_json(spec)
        assert "CampaignSpec" in encoded
        assert canonical_json(spec) == canonical_json(CampaignSpec(seed=7))
        assert canonical_json(spec) != canonical_json(CampaignSpec(seed=8))

    def test_profile_encodes(self):
        # Profiles nest cells, enums, TDD patterns — all must canonicalize.
        a = canonical_json(EU_PROFILES["V_Sp"])
        assert a == canonical_json(EU_PROFILES["V_Sp"])
        assert a != canonical_json(EU_PROFILES["V_It"])

    def test_numpy_values_collapse(self):
        assert canonical_json(np.int64(3)) == canonical_json(3)
        assert canonical_json({"x": np.float64(1.5)}) == canonical_json({"x": 1.5})
        assert canonical_json(np.arange(3)) == canonical_json(np.arange(3))

    def test_unfingerprintable(self):
        with pytest.raises(UnfingerprintableTask):
            canonical_json(object())
        with pytest.raises(UnfingerprintableTask):
            canonical_json({1: "non-string key"})


class TestTaskFingerprint:
    def test_deterministic(self):
        assert task_fingerprint(_campaign_task()) == task_fingerprint(_campaign_task())

    def test_hex_sha256_shape(self):
        key = task_fingerprint(_campaign_task())
        assert len(key) == 64
        int(key, 16)

    def test_label_is_not_identity(self):
        a = _campaign_task()
        b = SessionTask(fn=a.fn, kwargs=a.kwargs, seed=a.seed, label="renamed")
        assert task_fingerprint(a) == task_fingerprint(b)

    def test_seed_kwargs_fn_salt_all_matter(self):
        base = task_fingerprint(_campaign_task())
        assert task_fingerprint(_campaign_task(seed=42)) != base
        assert task_fingerprint(_campaign_task(direction="UL")) != base
        other_fn = SessionTask(fn=CampaignSpec, kwargs={}, seed=41)
        assert task_fingerprint(other_fn) != base
        assert task_fingerprint(_campaign_task(),
                                salt=STORE_SCHEMA_VERSION + 1) != base

    def test_lambda_rejected(self):
        with pytest.raises(UnfingerprintableTask):
            task_fingerprint(SessionTask(fn=lambda: 0))

    def test_local_function_rejected(self):
        def local():
            return 0

        with pytest.raises(UnfingerprintableTask):
            task_fingerprint(SessionTask(fn=local))


    def test_key_is_sha256_of_the_canonical_payload(self):
        import hashlib
        import json

        task = _campaign_task()
        payload = {"salt": STORE_SCHEMA_VERSION,
                   "fn": "repro.xcal.dataset:run_session",
                   "kwargs": json.loads(canonical_json(dict(task.kwargs))),
                   "seed": 41}
        encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        assert task_fingerprint(task) == hashlib.sha256(encoded.encode()).hexdigest()
        seedless = SessionTask(fn=run_session, kwargs={"direction": "DL"})
        payload.update(kwargs={"direction": "DL"}, seed=None)
        encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        assert task_fingerprint(seedless) == hashlib.sha256(encoded.encode()).hexdigest()

    def test_memo_encodes_shared_kwargs_once(self):
        profile = EU_PROFILES["V_Sp"]
        spec = CampaignSpec(minutes_per_operator=0.2, session_s=4.0, seed=9)
        tasks = [SessionTask(fn=run_session, kwargs={"profile": profile, "spec": spec,
                                                     "direction": direction},
                             seed=seed)
                 for direction in ("DL", "UL") for seed in range(5)]
        # Equal but distinct objects only miss the memo.
        tasks.append(_campaign_task())
        memo: dict = {}
        assert ([task_fingerprint(t, memo=memo) for t in tasks]
                == [task_fingerprint(t) for t in tasks])
        assert len(memo) == 3
        with pytest.raises(UnfingerprintableTask):
            task_fingerprint(SessionTask(fn=run_session, kwargs={"spec": object()}),
                             memo=memo)


class TestCrossProcessStability:
    _SNIPPET = """
from repro.core.runner import SessionTask
from repro.operators.profiles import EU_PROFILES
from repro.store.keys import task_fingerprint
from repro.xcal.dataset import CampaignSpec, run_session
task = SessionTask(
    fn=run_session,
    kwargs={"profile": EU_PROFILES["V_Sp"],
            "spec": CampaignSpec(minutes_per_operator=0.2, session_s=4.0, seed=9),
            "direction": "DL"},
    seed=41,
)
print(task_fingerprint(task))
"""

    def _fingerprint_in_subprocess(self, hashseed: str) -> str:
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONHASHSEED"] = hashseed
        out = subprocess.run([sys.executable, "-c", self._SNIPPET], env=env,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()

    def test_stable_across_processes_and_hash_seeds(self):
        local = task_fingerprint(_campaign_task())
        assert self._fingerprint_in_subprocess("0") == local
        assert self._fingerprint_in_subprocess("12345") == local
