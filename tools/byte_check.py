"""Compare every CLI output byte of a git revision with the working tree.

    python tools/byte_check.py [REV]        (REV defaults to HEAD)

Extracts REV's `src/` with `git archive` into a temporary directory, then
runs this checkout's `tools/cli_bytes.py` twice, each in its own
subprocess: once with REV's `src/` on PYTHONPATH and once with the working
tree's. Both runs use the same job list, so the two output directories
hold the same files wherever the CLI behaves the same. Every file that
differs, or exists on one side only, is listed by its path below the
output directory (`NNN-job/file`). Exit status: 0 when all files agree,
1 when any differ, 2 when a run fails.

`tools/result_check.py [REV]` makes the same comparison one level down,
on the float bits of the propriety checks' results.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CLI_BYTES = ROOT / "tools" / "cli_bytes.py"


def _record(src: Path, outdir: Path) -> None:
    """Run cli_bytes.py in a subprocess that imports prior_forge from src."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(CLI_BYTES), str(outdir)], env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(f"cli_bytes.py failed on {src}:\n{proc.stderr}")
        sys.exit(2)


def _files(outdir: Path) -> dict:
    """Relative path -> bytes of every file under outdir."""
    return {p.relative_to(outdir).as_posix(): p.read_bytes()
            for p in outdir.rglob("*") if p.is_file()}


def main(rev: str) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                                 capture_output=True)
        if archive.returncode != 0:
            sys.stderr.write(archive.stderr.decode(errors="replace"))
            return 2
        (tmp / "rev").mkdir()
        subprocess.run(["tar", "-x", "-C", str(tmp / "rev")], input=archive.stdout,
                       check=True)
        _record(tmp / "rev" / "src", tmp / "bytes-rev")
        _record(ROOT / "src", tmp / "bytes-tree")
        old, new = _files(tmp / "bytes-rev"), _files(tmp / "bytes-tree")
    differ = sorted(name for name in old.keys() | new.keys()
                    if old.get(name) != new.get(name))
    for name in differ:
        side = ("" if name in old and name in new
                else f" (only in {'the tree' if name in new else rev})")
        print(f"differs: {name}{side}")
    jobs = len({name.split("/")[0] for name in new} - {"inputs"})
    print(f"{len(differ)} of {len(old.keys() | new.keys())} files differ "
          f"between {rev} and the working tree ({jobs} jobs)")
    return 1 if differ else 0


if __name__ == "__main__":
    if len(sys.argv) > 2:
        sys.exit("usage: byte_check.py [REV]")
    sys.exit(main(sys.argv[1] if len(sys.argv) == 2 else "HEAD"))
