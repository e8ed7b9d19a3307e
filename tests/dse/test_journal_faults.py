"""Fault injection on the sweep journal's resume path.

A SIGKILL mid-``fsync`` damages at most the trailing line of the JSONL
file — that case must cost only the point in flight.  Damage anywhere
else cannot come from a crash and must fail loudly rather than silently
drop finished work.
"""

import builtins
import errno
import json
from contextlib import suppress

import pytest

from repro.dse import journal as journal_module
from repro.dse.journal import (
    Journal,
    JournalEntry,
    load_journal,
    repair_tail,
)
from repro.dse.space import DesignPoint
from repro.errors import ConfigurationError

_METRICS = {
    "area_mm2": 100.0,
    "tdp_w": 50.0,
    "peak_tops": 10.0,
    "outcomes": [],
}


def _entry(x: int) -> JournalEntry:
    return JournalEntry(
        point=DesignPoint(x, 4, 2, 2),
        status="ok",
        wall_time_s=1.0,
        metrics=_METRICS,
    )


def _write_journal(path, entries) -> None:
    with Journal(path) as journal:
        for entry in entries:
            journal.append(entry)


def test_truncated_trailing_line_is_discarded_with_warning(tmp_path):
    path = tmp_path / "sweep.jsonl"
    _write_journal(path, [_entry(8), _entry(16)])
    whole = path.read_text()
    path.write_text(whole[:-25])  # chop mid-way through the last record

    with pytest.warns(RuntimeWarning, match="trailing journal line"):
        entries = load_journal(path)
    assert [e.point.x for e in entries] == [8]


def test_corrupt_trailing_line_with_newline_is_discarded(tmp_path):
    path = tmp_path / "sweep.jsonl"
    _write_journal(path, [_entry(8)])
    with path.open("a") as fh:
        fh.write('{"kind": "point", "point": [16, 4]}\n')  # malformed point

    with pytest.warns(RuntimeWarning, match="trailing journal line"):
        entries = load_journal(path)
    assert [e.point.x for e in entries] == [8]


def test_torn_multiline_tail_is_discarded_with_warning(tmp_path):
    """A killed process can tear several buffered trailing lines at once."""
    path = tmp_path / "sweep.jsonl"
    _write_journal(path, [_entry(8), _entry(16)])
    with path.open("a") as fh:
        fh.write('{"kind": "point", "point": [24, 4]}\n')  # malformed point
        fh.write('{"kind": "point", "poi')  # truncated mid-record

    with pytest.warns(RuntimeWarning, match="2 lines starting at line 4"):
        entries = load_journal(path)
    assert [e.point.x for e in entries] == [8, 16]


def test_torn_multiline_tail_is_repaired_for_resume(tmp_path):
    path = tmp_path / "sweep.jsonl"
    _write_journal(path, [_entry(8)])
    with path.open("a") as fh:
        fh.write('not json at all\n')
        fh.write('{"kind": "point"')

    with pytest.warns(RuntimeWarning):
        with Journal(path, resume=True) as journal:
            assert {p.x for p in journal.finished_points()} == {8}
            journal.append(_entry(32))

    entries = load_journal(path)
    assert [e.point.x for e in entries] == [8, 32]
    for line in path.read_text().splitlines():
        json.loads(line)


def test_midfile_corruption_raises(tmp_path):
    path = tmp_path / "sweep.jsonl"
    _write_journal(path, [_entry(8), _entry(16)])
    lines = path.read_text().splitlines()
    lines[1] = lines[1][:-20]  # damage the first point, not the tail
    path.write_text("\n".join(lines) + "\n")

    with pytest.raises(ConfigurationError, match="corrupt journal line 2"):
        load_journal(path)


def test_damaged_line_followed_by_valid_line_raises(tmp_path):
    """Damage is only forgivable as a *contiguous trailing* run."""
    path = tmp_path / "sweep.jsonl"
    _write_journal(path, [_entry(8)])
    with path.open("a") as fh:
        fh.write('{"kind": "point", "point": [16, 4]}\n')  # damaged
        fh.write(_entry(32).to_json() + "\n")  # valid line after it

    with pytest.raises(ConfigurationError, match="corrupt journal line 3"):
        load_journal(path)


def test_repair_tail_accepts_custom_validator(tmp_path):
    """Other JSONL consumers reuse the repair loop with their own framing."""
    path = tmp_path / "requests.jsonl"
    path.write_bytes(b'{"req": 1}\n{"req": 2}\n{"re')

    def is_damaged(line: bytes) -> bool:
        try:
            return "req" not in json.loads(line.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            return True

    removed = repair_tail(path, is_damaged=is_damaged)
    assert removed == 1
    assert path.read_bytes() == b'{"req": 1}\n{"req": 2}\n'


def test_resume_appends_cleanly_after_truncated_tail(tmp_path):
    """The damaged tail is repaired so the next append is not glued on."""
    path = tmp_path / "sweep.jsonl"
    _write_journal(path, [_entry(8), _entry(16)])
    whole = path.read_text()
    path.write_text(whole[:-25])

    with pytest.warns(RuntimeWarning):
        with Journal(path, resume=True) as journal:
            assert {p.x for p in journal.finished_points()} == {8}
            journal.append(_entry(32))

    # Every line in the repaired file parses; the truncated point is gone
    # and the appended point is intact.
    entries = load_journal(path)
    assert [e.point.x for e in entries] == [8, 32]
    for line in path.read_text().splitlines():
        json.loads(line)


def test_repair_tail_keeps_undamaged_files_byte_identical(tmp_path):
    path = tmp_path / "sweep.jsonl"
    _write_journal(path, [_entry(8), _entry(16)])
    before = path.read_bytes()
    repair_tail(path)
    assert path.read_bytes() == before


def test_repair_tail_terminates_a_valid_unterminated_line(tmp_path):
    path = tmp_path / "sweep.jsonl"
    _write_journal(path, [_entry(8)])
    path.write_bytes(path.read_bytes().rstrip(b"\n"))
    repair_tail(path)
    assert path.read_bytes().endswith(b"\n")
    assert [e.point.x for e in load_journal(path)] == [8]


class _TornWriter:
    """A writable file whose every write lands half its bytes, then fails."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, data):
        self._fh.write(data[: len(data) // 2])
        self._fh.flush()
        raise OSError(errno.ENOSPC, "no space left on device")

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._fh.close()


def _torn_open(path, mode="r", *args, **kwargs):
    fh = builtins.open(path, mode, *args, **kwargs)
    return _TornWriter(fh) if set(mode) & set("wa+") else fh


@pytest.mark.parametrize(
    "damage",
    [
        lambda data: data + b'{"kind": "point", "poi',  # torn tail
        lambda data: data.rstrip(b"\n"),  # unterminated last record
    ],
    ids=["torn-tail", "unterminated"],
)
def test_failed_repair_write_keeps_every_complete_record(
    tmp_path, monkeypatch, damage
):
    """A crash (here: a failing write) mid-repair must not lose records."""
    path = tmp_path / "sweep.jsonl"
    _write_journal(path, [_entry(8), _entry(16), _entry(32)])
    path.write_bytes(damage(path.read_bytes()))

    monkeypatch.setattr(journal_module, "open", _torn_open, raising=False)
    with suppress(OSError):
        repair_tail(path)
    monkeypatch.undo()

    assert [e.point.x for e in load_journal(path)] == [8, 16, 32]


def test_empty_and_header_only_journals_resume_to_nothing(tmp_path):
    path = tmp_path / "sweep.jsonl"
    path.write_text("")
    assert load_journal(path) == []
    with Journal(path, resume=True) as journal:
        assert journal.finished_points() == set()
    assert load_journal(path) == []


def test_salvage_skips_midfile_damage_with_per_line_warnings(tmp_path):
    """``salvage=True`` trades strictness for recovery, loudly.

    Mid-file damage still aborts a default load, but the sharded-merge
    path needs to recover every intact line from a journal whose middle
    was mangled (e.g. by a filesystem repair).  Each skipped line warns
    individually so nothing disappears silently.
    """
    path = tmp_path / "sweep.jsonl"
    _write_journal(path, [_entry(8), _entry(16), _entry(32), _entry(64)])
    lines = path.read_text().splitlines()
    lines[2] = lines[2][:10]          # damage entry 16
    lines[3] = "garbage not json"     # damage entry 32
    path.write_text("\n".join(lines) + "\n")

    # Default strict load refuses.
    with pytest.raises(ConfigurationError, match="corrupt journal line"):
        load_journal(path)

    with pytest.warns(RuntimeWarning) as caught:
        entries = load_journal(path, salvage=True)
    assert [e.point.x for e in entries] == [8, 64]
    salvage_warnings = [
        w for w in caught if "salvage" in str(w.message)
    ]
    assert len(salvage_warnings) == 2


def test_salvage_warns_for_trailing_damage_too(tmp_path):
    path = tmp_path / "sweep.jsonl"
    _write_journal(path, [_entry(8), _entry(16)])
    path.write_text(path.read_text()[:-25])
    with pytest.warns(RuntimeWarning, match="salvage"):
        entries = load_journal(path, salvage=True)
    assert [e.point.x for e in entries] == [8]


def test_header_meta_roundtrips(tmp_path):
    from repro.dse.journal import journal_header

    path = tmp_path / "sweep.jsonl"
    meta = {"sweep_digest": "abc123", "shard": 1, "shards": 3}
    with Journal(path, meta=meta) as journal:
        journal.append(_entry(8))
    header = journal_header(path)
    assert header["meta"] == meta
    # Resume does not rewrite (or lose) the existing header.
    with Journal(path, resume=True, meta={"other": True}) as journal:
        journal.append(_entry(16))
    assert journal_header(path)["meta"] == meta
    assert [e.point.x for e in load_journal(path)] == [8, 16]


def test_journal_header_tolerates_missing_and_torn_files(tmp_path):
    from repro.dse.journal import journal_header

    assert journal_header(tmp_path / "absent.jsonl") is None
    torn = tmp_path / "torn.jsonl"
    torn.write_text('{"kind": "head')
    assert journal_header(torn) is None
