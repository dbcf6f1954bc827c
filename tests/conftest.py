from pathlib import Path

import pytest

from irisfuse import fileio


class _HalfWriter:
    """A text file whose first write stops halfway and raises ``OSError``."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, text):
        self.fh.write(text[: len(text) // 2])
        self.fh.flush()
        raise OSError("injected fault mid-write")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


@pytest.fixture
def fail_mid_write(monkeypatch):
    """``fail(name)``: from then on, the writer of a file named ``name``
    writes half of its first text into its temporary file and raises."""
    open_writer = fileio._open_writer

    def fail(name):
        def opening(path, mode="w"):
            fh = open_writer(path, mode)
            return _HalfWriter(fh) if Path(path).name.startswith(f"{name}.") else fh

        monkeypatch.setattr(fileio, "_open_writer", opening)

    return fail
