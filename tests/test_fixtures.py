import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_builder_reproduces_packaged_data(tmp_path, data_dir):
    # Run a copy, with the data files left out, so the test neither writes
    # to the checkout nor passes on files the copy already had.
    (tmp_path / "tools").mkdir()
    shutil.copy(ROOT / "tools" / "build_fixtures.py", tmp_path / "tools")
    shutil.copytree(
        ROOT / "src" / "dimkit",
        tmp_path / "src" / "dimkit",
        ignore=shutil.ignore_patterns("__pycache__", "data"),
    )
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "tools" / "build_fixtures.py")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    built = tmp_path / "src" / "dimkit" / "data"
    packaged = sorted(p.name for p in data_dir.iterdir() if p.is_file())
    assert sorted(p.name for p in built.iterdir()) == packaged
    for name in packaged:
        assert (built / name).read_bytes() == (data_dir / name).read_bytes(), name
