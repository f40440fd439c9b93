from pathlib import Path

import pytest

from occreid.fileio import write_atomic, write_lines


def test_replaces_whole_content(tmp_path):
    target = tmp_path / "table.tsv"
    target.write_text("old, and longer than the new content\n", encoding="utf-8")
    write_lines(target, ["# a\tb", "1\t2"])
    assert target.read_bytes() == b"# a\tb\n1\t2\n"
    assert [p.name for p in tmp_path.iterdir()] == ["table.tsv"]


def test_failed_write_keeps_old_file_and_leaves_no_temp(tmp_path, monkeypatch):
    target = tmp_path / "checkpoint.bin"
    target.write_bytes(b"old")
    real = Path.write_bytes

    def half_then_fail(self, data):
        real(self, data[: len(data) // 2])
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_bytes", half_then_fail)
    with pytest.raises(OSError, match="disk full"):
        write_atomic(target, b"new content")
    assert target.read_bytes() == b"old"
    assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.bin"]
