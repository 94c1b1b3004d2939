"""Run store: manifests, the state machine, journal, and housekeeping."""

import json
import shutil
import subprocess

import pytest

from repro.service import (
    CANCELLED,
    DONE,
    FAILED,
    PENDING,
    RUNNING,
    RunStore,
    StateError,
    capture_environment,
    spec_digest,
)
from repro.service.store import JOURNAL_NAME, MANIFEST_NAME, SPEC_NAME


@pytest.fixture()
def store(tmp_path):
    return RunStore(tmp_path / "runs")


def make_run(store, **params):
    return store.create({"kind": "sweep", "params": params})


class TestCreate:
    def test_new_run_is_pending(self, store):
        record = make_run(store)
        assert record.state == PENDING
        assert not record.terminal
        assert record.kind == "sweep"
        assert record.run_id.startswith("sweep-")

    def test_spec_persisted_normalized(self, store):
        record = make_run(store, size=2)
        spec = json.loads(
            (record.path / SPEC_NAME).read_text(encoding="utf-8")
        )
        assert spec["params"]["size"] == 2
        assert spec["params"]["algorithm"] == "mr"  # default filled
        assert record.manifest["spec_digest"] == spec_digest(spec)

    def test_manifest_records_environment_and_seeds(self, store):
        record = make_run(store)
        env = record.manifest["environment"]
        assert "python" in env and "platform" in env and "packages" in env
        assert "seeds" in record.manifest
        assert record.manifest["attempt"] == 0

    def test_duplicate_run_id_rejected(self, store):
        record = make_run(store)
        with pytest.raises(FileExistsError):
            store.create({"kind": "sweep"}, run_id=record.run_id)

    def test_no_tmp_files_left_behind(self, store):
        record = make_run(store)
        assert not list(record.path.glob("*.tmp"))


class TestStateMachine:
    def test_happy_path(self, store):
        record = make_run(store)
        record = store.transition(record, RUNNING)
        assert record.manifest["started_at"] is not None
        assert record.manifest["attempt"] == 1
        record = store.transition(record, DONE)
        assert record.terminal
        assert record.manifest["finished_at"] is not None

    def test_pending_cannot_jump_to_done(self, store):
        record = make_run(store)
        with pytest.raises(StateError):
            store.transition(record, DONE)

    def test_terminal_states_are_final(self, store):
        for terminal in (DONE, FAILED, CANCELLED):
            record = make_run(store)
            store.transition(record, RUNNING)
            store.transition(record, terminal)
            with pytest.raises(StateError):
                store.transition(record, RUNNING)

    def test_resume_edge_running_to_pending(self, store):
        record = make_run(store)
        store.transition(record, RUNNING)
        record = store.transition(record, PENDING)
        assert record.state == PENDING
        assert "resumed_at" in record.manifest
        # A second attempt bumps the counter again.
        record = store.transition(record, RUNNING)
        assert record.manifest["attempt"] == 2

    def test_unknown_state_rejected(self, store):
        record = make_run(store)
        with pytest.raises(StateError):
            store.transition(record, "LIMBO")

    def test_transition_persists_to_disk(self, store):
        record = make_run(store)
        store.transition(record, RUNNING, note="x")
        reloaded = store.load(record.run_id)
        assert reloaded.state == RUNNING
        assert reloaded.manifest["note"] == "x"


class TestListingAndJournal:
    def test_list_newest_first_and_filtered(self, store):
        first = make_run(store)
        second = make_run(store)
        # Force a deterministic order regardless of clock resolution.
        store.update(first, created_at=100.0)
        store.update(second, created_at=200.0)
        ids = [r.run_id for r in store.list()]
        assert ids == [second.run_id, first.run_id]
        store.transition(second, RUNNING)
        assert [r.run_id for r in store.list(states={PENDING})] == [
            first.run_id
        ]

    def test_list_sorts_by_start_time_over_creation(self, store):
        # a run created earlier but *started* later sorts first: ls is
        # ordered by when work began, not when the spec was submitted
        early = make_run(store)
        late = make_run(store)
        store.update(early, created_at=100.0, started_at=500.0)
        store.update(late, created_at=200.0, started_at=300.0)
        ids = [r.run_id for r in store.list()]
        assert ids == [early.run_id, late.run_id]

    def test_list_order_stable_on_ties(self, store):
        runs = [make_run(store) for _ in range(3)]
        for r in runs:
            store.update(r, created_at=100.0)
        ids = [r.run_id for r in store.list()]
        # equal timestamps fall back to run_id so the order is stable
        assert ids == sorted(ids)

    def test_contains(self, store):
        record = make_run(store)
        assert record.run_id in store
        assert "nope" not in store

    def test_journal_round_trip_skips_torn_line(self, store):
        record = make_run(store)
        store.append_journal(record, {"job_id": "a", "ok": True})
        store.append_journal(record, {"job_id": "b", "ok": False})
        # Simulate a crash mid-write: a torn, unparseable trailing line.
        with (record.path / JOURNAL_NAME).open("a") as fh:
            fh.write('{"job_id": "c", "ok"')
        entries = store.read_journal(record)
        assert [e["job_id"] for e in entries] == ["a", "b"]

    def test_progress_updates(self, store):
        record = make_run(store)
        store.set_progress(record, done=3, failed=1, total=10, skipped=2)
        reloaded = store.load(record.run_id)
        assert reloaded.manifest["progress"] == {
            "done": 3, "failed": 1, "skipped": 2, "total": 10,
        }


class TestHousekeeping:
    def test_delete(self, store):
        record = make_run(store)
        store.delete(record.run_id)
        assert record.run_id not in store
        with pytest.raises(KeyError):
            store.load(record.run_id)

    def test_gc_keeps_newest_terminal_only(self, store):
        terminal = []
        for i in range(4):
            record = make_run(store)
            store.transition(record, RUNNING)
            store.transition(record, DONE)
            store.update(record, created_at=float(i))
            terminal.append(record)
        live = make_run(store)  # PENDING: must survive any gc
        deleted = store.gc(keep=2)
        assert sorted(deleted) == sorted(
            r.run_id for r in terminal[:2]
        )
        assert live.run_id in store
        assert terminal[3].run_id in store

    def test_gc_never_touches_running(self, store):
        record = make_run(store)
        store.transition(record, RUNNING)
        assert store.gc(keep=0) == []
        assert record.run_id in store


class TestEnvironmentCapture:
    def test_capture_environment_shape(self):
        env = capture_environment()
        assert env["python"].count(".") >= 1
        assert isinstance(env["packages"], dict)
        # Inside this checkout, git data should resolve.
        if env["git"] is not None:
            assert len(env["git"]["commit"]) == 40

    def test_package_versions_are_copies(self):
        from repro.service.store import _tracked_packages

        first = _tracked_packages()
        first["numpy"] = "tampered"
        assert _tracked_packages().get("numpy") != "tampered"

    @pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
    def test_one_git_call_matches_two(self, tmp_path):
        """``git status --porcelain=v2 --branch`` gives what ``rev-parse
        HEAD`` plus ``status --porcelain`` gave, in every state."""
        from repro.service.store import _git_commit

        def git(*args):
            return subprocess.run(
                ["git", "-C", str(tmp_path), "-c", "user.name=t",
                 "-c", "user.email=t@example.com",
                 "-c", "commit.gpgsign=false", *args],
                capture_output=True, text=True, timeout=30.0, check=True,
            ).stdout

        def reference():
            try:
                commit = git("rev-parse", "HEAD").strip()
            except subprocess.CalledProcessError:
                return None
            return {"commit": commit,
                    "dirty": bool(git("status", "--porcelain").strip())}

        git("init", "-q")
        assert _git_commit(tmp_path) is None  # unborn branch
        assert reference() is None
        (tmp_path / "tracked.txt").write_text("x\n")
        git("add", "tracked.txt")
        git("commit", "-qm", "first")
        clean = _git_commit(tmp_path)
        assert clean == reference()
        assert clean["dirty"] is False and len(clean["commit"]) == 40
        (tmp_path / "untracked.txt").write_text("y\n")
        dirty = _git_commit(tmp_path)
        assert dirty == reference()
        assert dirty == {"commit": clean["commit"], "dirty": True}

    def test_corrupt_manifest_raises_key_error_on_missing(self, store):
        with pytest.raises(KeyError):
            store.load("never-created")

    def test_non_run_dirs_ignored_by_list(self, store):
        (store.root / "stray-file").write_text("x")
        (store.root / "stray-dir").mkdir()
        assert store.list() == []


def _backdate(record, seconds):
    """Rewrite created_at and push file mtimes ``seconds`` into the past."""
    import os
    import time

    old = time.time() - seconds
    manifest_path = record.path / MANIFEST_NAME
    data = json.loads(manifest_path.read_text())
    data["created_at"] = old
    manifest_path.write_text(json.dumps(data))
    os.utime(manifest_path, (old, old))


class TestLeases:
    def test_heartbeat_round_trip(self, store):
        from repro.service.store import HEARTBEAT_NAME

        record = make_run(store)
        assert not (record.path / HEARTBEAT_NAME).exists()
        store.heartbeat(record)
        assert (record.path / HEARTBEAT_NAME).exists()
        assert store.has_live_lease(record)
        age = store.lease_age(record)
        assert age is not None and age < 60.0
        store.clear_heartbeat(record)
        assert not (record.path / HEARTBEAT_NAME).exists()

    def test_gc_skips_stale_run_with_live_heartbeat(self, store):
        # Regression: `repro runs gc --older-than` used to judge staleness
        # by created_at alone, deleting runs a worker was still executing.
        record = make_run(store)
        _backdate(record, 3600.0)
        store.heartbeat(record)  # an executor is alive right now
        deleted = store.gc(keep=0, max_age=60.0, lease_ttl=300.0)
        assert deleted == []
        assert store.load(record.run_id).state == PENDING

    def test_gc_collects_stale_run_without_lease(self, store):
        import os

        from repro.service.store import HEARTBEAT_NAME

        record = make_run(store)
        _backdate(record, 3600.0)
        store.heartbeat(record)
        hb = record.path / HEARTBEAT_NAME
        os.utime(hb, (hb.stat().st_mtime - 3600.0,) * 2)  # worker died
        deleted = store.gc(keep=0, max_age=60.0, lease_ttl=300.0)
        assert deleted == [record.run_id]
        assert record.run_id not in store

    def test_gc_without_max_age_ignores_non_terminal_age(self, store):
        record = make_run(store)
        _backdate(record, 3600.0)
        assert store.gc(keep=0) == []
        assert store.load(record.run_id).state == PENDING

    def test_manifest_progress_counts_as_liveness(self, store):
        # Pre-heartbeat executors still rewrite the manifest on progress;
        # that alone must keep gc away.
        record = make_run(store)
        _backdate(record, 3600.0)
        record = store.load(record.run_id)  # pick up the backdated manifest
        store.set_progress(record, done=1, failed=0, total=2)
        assert store.has_live_lease(record)
        assert store.gc(keep=0, max_age=60.0) == []
