"""Crash-safety tests for the streaming sink.

``StreamingJsonlSink`` resumes cleanly and ``read_trace`` warns about
the torn tail when an injected mid-write ``OSError`` tears the file (no
hand-truncated fixture files), plus the edge cases of the WAL-style
:func:`repro.observability.live._truncate_torn_tail` recovery step (the
line terminator is the commit marker).  The torn write through a proxied
file handle is ``test_sink_torn_write_resumes`` in
``test_threads_and_faults.py``.
"""

import json
import warnings

import pytest

from repro.observability.export import read_trace
from repro.observability.live import StreamingJsonlSink, _truncate_torn_tail
from tests.conftest import lock_released


def _tear_mid_write(self, record):
    """Stand-in for ``StreamingJsonlSink._write_line``: commit half the
    serialized line, then fail like a full disk would (a genuine
    mid-write ``OSError``)."""
    text = json.dumps(record, sort_keys=True) + "\n"
    self._fh.write(text[: len(text) // 2])
    self._fh.flush()
    raise OSError(28, "No space left on device (injected)")


class TestInjectedTornWrite:
    def _tear(self, path, monkeypatch):
        sink = StreamingJsonlSink(str(path), meta={"source": "crash-test"})
        sink.emit({"kind": "event", "event": "solve", "seq": 0})
        with monkeypatch.context() as patch:
            patch.setattr(StreamingJsonlSink, "_write_line", _tear_mid_write)
            with pytest.raises(OSError):
                sink.emit({"kind": "event", "event": "solve", "seq": 1})
        sink.close()
        return sink

    def test_read_trace_warns_and_keeps_the_committed_prefix(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "trace.jsonl"
        self._tear(path, monkeypatch)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            records = read_trace(str(path))
        assert any(
            issubclass(w.category, UserWarning) and "torn tail" in str(w.message)
            for w in caught
        )
        assert [r.get("seq") for r in records if r.get("event") == "solve"] == [0]

    def test_resume_truncates_the_torn_tail_and_continues(self, tmp_path, monkeypatch):
        path = tmp_path / "trace.jsonl"
        self._tear(path, monkeypatch)
        resumed = StreamingJsonlSink(str(path), resume=True)
        resumed.emit({"kind": "event", "event": "solve", "seq": 2})
        resumed.close()
        # Fully well-formed now: no warning, one header, torn record gone.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            records = read_trace(str(path))
        assert sum(1 for r in records if r.get("kind") == "meta") == 1
        assert [r.get("seq") for r in records if r.get("event") == "solve"] == [0, 2]

    def test_sink_lock_is_released_after_the_fault(self, tmp_path, monkeypatch):
        sink = self._tear(tmp_path / "trace.jsonl", monkeypatch)
        assert lock_released(sink._lock)


class TestTruncateTornTail:
    def test_empty_file_is_untouched(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_bytes(b"")
        assert _truncate_torn_tail(str(path)) == 0
        assert path.read_bytes() == b""

    def test_clean_file_is_untouched(self, tmp_path):
        path = tmp_path / "t.jsonl"
        content = b'{"kind": "meta"}\n{"seq": 0}\n'
        path.write_bytes(content)
        assert _truncate_torn_tail(str(path)) == 0
        assert path.read_bytes() == content

    def test_torn_tail_is_dropped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_bytes(b'{"seq": 0}\n{"se')
        assert _truncate_torn_tail(str(path)) == 4
        assert path.read_bytes() == b'{"seq": 0}\n'

    def test_file_with_no_newline_at_all_empties(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_bytes(b'{"torn": tru')
        assert _truncate_torn_tail(str(path)) == 12
        assert path.read_bytes() == b""

    def test_torn_tail_longer_than_one_scan_chunk(self, tmp_path):
        """The backward scan crosses 4096-byte chunk boundaries."""
        path = tmp_path / "t.jsonl"
        committed = b'{"seq": 0}\n'
        torn = b'{"pad": "' + b"x" * 10_000
        path.write_bytes(committed + torn)
        assert _truncate_torn_tail(str(path)) == len(torn)
        assert path.read_bytes() == committed

    def test_resume_on_emptied_file_writes_a_fresh_header(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_bytes(b'{"torn": tru')  # no committed line at all
        sink = StreamingJsonlSink(str(path), resume=True)
        sink.emit({"kind": "event", "event": "solve", "seq": 0})
        sink.close()
        records = read_trace(str(path))
        assert records[0]["kind"] == "meta"
        assert [r.get("seq") for r in records if r.get("event") == "solve"] == [0]
