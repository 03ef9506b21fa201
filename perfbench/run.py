"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload stream-classify --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run, whose spans are also written under
``.perfbench/``.  ``--workload all`` runs every workload, each in its own
process.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are notes and host metadata.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("stream-classify", "stream-reuse", "serve-mix")


def git_sha() -> str | None:
    """The checkout's commit, read from ``.git`` when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def source_digest() -> str:
    """SHA-256 over the program's source files, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def metadata() -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
    }


def import_program() -> None:
    """Import ``repro`` from this checkout's ``src``, and only from there."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {src / 'repro'}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def run_all(args) -> int:
    """Every workload in its own process, so that memory, warm caches and
    daemon threads do not carry from one workload to the next."""
    status = 0
    for name in WORKLOADS:
        command = [
            sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        print(f"== {name}", flush=True)
        done = subprocess.run(command, cwd=ROOT, check=False)
        status = status or done.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    import_program()
    if args.workload == "all":
        return run_all(args)

    import workloads

    meta = metadata()
    result, notes, spans = workloads.run(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    print(f"# workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("# host " + json.dumps(meta, sort_keys=True))
    for note in notes:
        print(f"# {note}")
    for name, metric in result["metrics"].items():
        print(f"#   {name:36s} {metric['value']:14.6g} {metric['unit']}")
    if spans:
        out = ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        out.parent.mkdir(exist_ok=True)
        with out.open("w") as handle:
            handle.write(json.dumps({"host": meta, "workload": args.workload, "seed": args.seed}) + "\n")
            for s in spans:
                end = None if math.isnan(s.end) else s.end  # a span left open
                handle.write(json.dumps([s.id, s.name, s.start, end, s.parent, s.request]) + "\n")
        print(f"# spans written to {out.relative_to(ROOT)} as [id, name, start, end, parent, request]")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
