"""Tests for the daemon job journal: replay, compaction, crash survival.

The end-to-end test SIGKILLs a real daemon subprocess mid-job and asserts
the restarted daemon (same ``--journal``) reports the doomed job as
``interrupted`` via ``status`` -- the acceptance criterion that no
acknowledged job ever silently vanishes.
"""

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.service import DaemonClient, PredictionDaemon
from repro.service.journal import (
    JOURNAL_FILENAME,
    JobJournal,
    ReplayedJob,
    replay_records,
)

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


def journal_lines(directory) -> "list[dict]":
    path = os.path.join(str(directory), JOURNAL_FILENAME)
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


class TestJournalUnit:
    def test_fsync_policy_validated(self, tmp_path):
        with pytest.raises(ValueError, match="fsync policy"):
            JobJournal(str(tmp_path), fsync="sometimes")
        JobJournal(str(tmp_path), fsync="never")  # valid

    def test_append_and_replay_round_trip(self, tmp_path):
        journal = JobJournal(str(tmp_path))
        assert journal.replay() == {}
        journal.record_submit("j1", stories=["a", "b"], skipped=["z"], timeout=5.0)
        journal.record_story("j1", "a", "succeeded")
        journal.record_submit("j2", stories=["c"], skipped=[])
        journal.record_story("j2", "c", "succeeded")
        journal.record_job("j2", "completed")
        assert journal.records_written == 5
        journal.close()

        reopened = JobJournal(str(tmp_path))
        replayed = reopened.replay()
        reopened.close()
        # j2 completed and is gone; j1 was in flight and is interrupted.
        assert list(replayed) == ["j1"]
        job = replayed["j1"]
        assert isinstance(job, ReplayedJob) and not job.finished
        assert job.stories == ["a", "b"] and job.skipped == ["z"]
        # b never reached a terminal status: it reads as interrupted.
        assert job.story_counts() == {
            "succeeded": 1,
            "interrupted": 1,
            "skipped": 1,
        }

    def test_replay_compacts_to_summary_records(self, tmp_path):
        journal = JobJournal(str(tmp_path))
        journal.replay()
        journal.record_submit("gone", stories=["a"], skipped=[])
        journal.record_story("gone", "a", "succeeded")
        journal.record_job("gone")
        journal.record_submit("doomed", stories=["b", "c"], skipped=[])
        journal.record_story("doomed", "b", "failed")
        journal.close()

        reopened = JobJournal(str(tmp_path))
        assert list(reopened.replay()) == ["doomed"]
        reopened.close()
        lines = journal_lines(tmp_path)
        # Compaction rewrote the file: one summary record, completed gone.
        assert [record["type"] for record in lines] == ["interrupted"]
        assert lines[0]["job"] == "doomed"
        assert lines[0]["story_statuses"] == {"b": "failed"}

        # Interrupted jobs survive a *second* restart too.
        again = JobJournal(str(tmp_path))
        survivors = again.replay()
        again.close()
        assert list(survivors) == ["doomed"]
        assert survivors["doomed"].story_counts() == {
            "failed": 1,
            "interrupted": 1,
            "skipped": 0,
        }

    def test_torn_final_line_tolerated_mid_file_corruption_rejected(self, tmp_path):
        path = tmp_path / JOURNAL_FILENAME
        submit = json.dumps(
            {"type": "submit", "job": "j1", "t": 1.0, "stories": ["a"], "skipped": []}
        )
        path.write_text(submit + "\n" + '{"type": "story", "jo')  # torn tail
        journal = JobJournal(str(tmp_path))
        assert list(journal.replay()) == ["j1"]
        journal.close()

        path.write_text('{"torn mid-file\n' + submit + "\n")
        broken = JobJournal(str(tmp_path))
        with pytest.raises(ValueError, match="corrupt"):
            broken.replay()

    def test_replay_records_folds_in_submission_order(self):
        records = [
            {"type": "submit", "job": "b", "t": 2.0, "stories": ["x"], "skipped": []},
            {"type": "submit", "job": "a", "t": 1.0, "stories": ["y"], "skipped": []},
            {"type": "story", "job": "ghost", "story": "x", "status": "succeeded"},
            {"type": "job", "job": "ghost", "status": "completed"},
        ]
        replayed = replay_records(records)
        # Order preserved; records for never-submitted jobs are ignored.
        assert list(replayed) == ["b", "a"]

    def test_replay_must_precede_appends(self, tmp_path):
        journal = JobJournal(str(tmp_path))
        journal.record_submit("j1", stories=[], skipped=[])
        with pytest.raises(RuntimeError, match="replay"):
            journal.replay()
        journal.close()


class TestDaemonReplay:
    """The daemon registers journalled jobs as ``interrupted`` on start."""

    def _prewritten_journal(self, tmp_path) -> str:
        journal = JobJournal(str(tmp_path / "journal"))
        journal.replay()
        journal.record_submit("doomed", stories=["a", "b"], skipped=["s"])
        journal.record_story("doomed", "a", "succeeded")
        journal.close()
        return str(tmp_path / "journal")

    def test_interrupted_job_answers_status(self, tmp_path):
        journal_dir = self._prewritten_journal(tmp_path)
        socket_path = str(tmp_path / "d.sock")

        async def run():
            daemon = PredictionDaemon(max_workers=1, journal_dir=journal_dir)
            server = asyncio.ensure_future(daemon.serve(socket_path))
            deadline = asyncio.get_running_loop().time() + 5.0
            try:
                while not os.path.exists(socket_path):
                    if server.done():
                        await server
                    assert asyncio.get_running_loop().time() < deadline
                    await asyncio.sleep(0.005)
                async with await DaemonClient.connect(socket_path) as client:
                    status = await client.status("doomed")
                    all_jobs = await client.status()
                    stats = await client.stats()
                    await client.shutdown()
                return status, all_jobs, stats
            finally:
                await asyncio.gather(server, return_exceptions=True)

        status, all_jobs, stats = asyncio.run(run())
        assert status["status"] == "interrupted"
        assert status["stories"] == {"succeeded": 1, "interrupted": 1, "skipped": 1}
        assert [job["id"] for job in all_jobs["jobs"]] == ["doomed"]
        assert stats["jobs"] == {
            "active": 0,
            "completed": 0,
            "interrupted": 1,
            "total": 1,
        }
        assert stats["journal"]["directory"] == journal_dir
        assert stats["metrics"].get("daemon.jobs_interrupted") == 1

    def test_stats_without_journal_has_no_interrupted_key(self, tmp_path):
        socket_path = str(tmp_path / "d.sock")

        async def run():
            daemon = PredictionDaemon(max_workers=1)
            server = asyncio.ensure_future(daemon.serve(socket_path))
            deadline = asyncio.get_running_loop().time() + 5.0
            try:
                while not os.path.exists(socket_path):
                    assert asyncio.get_running_loop().time() < deadline
                    await asyncio.sleep(0.005)
                async with await DaemonClient.connect(socket_path) as client:
                    stats = await client.stats()
                    await client.shutdown()
                return stats
            finally:
                await asyncio.gather(server, return_exceptions=True)

        stats = asyncio.run(run())
        # Byte-compatible with the pre-journal payload.
        assert stats["jobs"] == {"active": 0, "completed": 0, "total": 0}
        assert "journal" not in stats

    def test_journal_fsync_validated_at_construction(self, tmp_path):
        with pytest.raises(ValueError, match="fsync policy"):
            PredictionDaemon(journal_dir=str(tmp_path), journal_fsync="maybe")


def _connect_retry(path: str, timeout: float = 30.0) -> socket.socket:
    deadline = time.time() + timeout
    while True:
        sock = socket.socket(socket.AF_UNIX)
        try:
            sock.connect(path)
            return sock
        except OSError:
            sock.close()
            if time.time() > deadline:
                raise
            time.sleep(0.05)


def _request_line(sock: socket.socket, payload: dict) -> dict:
    sock.sendall((json.dumps(payload) + "\n").encode("utf-8"))
    buffer = b""
    while b"\n" not in buffer:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("daemon hung up")
        buffer += chunk
    return json.loads(buffer.split(b"\n", 1)[0])


class TestSigkillSurvival:
    def test_sigkilled_daemon_reports_job_after_restart(self, tmp_path):
        """SIGKILL mid-job; the restart reports it instead of forgetting it."""
        journal_dir = str(tmp_path / "journal")
        socket_path = str(tmp_path / "d.sock")
        manifest = {
            "metric": "hops",
            "hours": 4,
            "stories": [
                {
                    "name": "s1",
                    "distances": [1, 2, 3, 4, 5],
                    "times": [1, 2, 3, 4],
                    "values": [
                        [5.0, 2.0, 2.5, 1.5, 1.0],
                        [7.0, 3.0, 3.5, 2.0, 1.4],
                        [9.0, 4.2, 4.6, 2.6, 1.9],
                        [11.0, 5.5, 5.8, 3.3, 2.5],
                    ],
                }
            ],
        }
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        command = [
            sys.executable, "-m", "repro", "daemon",
            "--listen", f"unix:{socket_path}", "--journal", journal_dir,
        ]
        first = subprocess.Popen(command, env=env, stderr=subprocess.DEVNULL)
        try:
            sock = _connect_retry(socket_path)
            accepted = _request_line(
                sock, {"op": "submit", "manifest": manifest, "id": "doomed"}
            )
            assert accepted["event"] == "accepted"
            # The accepted event was journalled durably *before* the ack, so
            # SIGKILL right now must not lose the job.
            first.send_signal(signal.SIGKILL)
            first.wait(timeout=30)
            sock.close()
        finally:
            if first.poll() is None:
                first.kill()
                first.wait(timeout=30)

        second = subprocess.Popen(command, env=env, stderr=subprocess.DEVNULL)
        try:
            # The restart also exercises stale-socket reclaim: the killed
            # process left its socket file behind.
            sock = _connect_retry(socket_path)
            status = _request_line(sock, {"op": "status", "id": "doomed"})
            assert status["status"] == "interrupted"
            assert status["stories"].get("interrupted", 0) >= 1
            _request_line(sock, {"op": "shutdown"})
            sock.close()
            second.wait(timeout=30)
            assert second.returncode == 0
        finally:
            if second.poll() is None:
                second.kill()
                second.wait(timeout=30)
