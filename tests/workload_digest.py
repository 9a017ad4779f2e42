"""Digest of every benchmark job's output, to show that a change keeps
the bytes of the program's reports.

    python3 tests/workload_digest.py SRC > digest.txt

SRC is the `src/` directory of the checkout to test; the job lists come
from this checkout's `perfbench/workloads.py`.  Every job of the four
workloads, for workload seeds 1 and 2, runs in this process through
`cidcurve.cli.main` once with `--output json` and once with `--output
text`.  Each run prints one line `sha256 workload:seed:job:mode`, the
hash taken over the exit code, standard output and standard error, with
the input directory replaced by a fixed name.  Compare the lines of two
checkouts with `diff`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("link_qq", "link_fp", "germ", "reject")
SEEDS = (1, 2)
MODES = ("json", "text")


def _run(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 1
    src = Path(argv[0]).resolve()
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import cidcurve.cli as cli
    import workloads

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"imported cidcurve from {cli.__file__}, "
                         f"not from {src}")

    with tempfile.TemporaryDirectory() as tmp:
        for name in WORKLOADS:
            for seed in SEEDS:
                jobs = workloads.build(name, seed)
                for job in jobs:
                    path = Path(tmp) / job.filename
                    path.write_text(job.text)
                    for mode in MODES:
                        code, out, err = _run(cli, list(job.argv) + [
                            "--input", str(path), "--output", mode])
                        text = f"{code}\n{out}\n{err}".replace(tmp, "{dir}")
                        digest = hashlib.sha256(text.encode()).hexdigest()
                        print(f"{digest} {name}:{seed}:{job.name}:{mode}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
