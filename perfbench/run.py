#!/usr/bin/env python3
"""Build and run the switchml repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `perfbench` package (release,
offline) into $CARGO_TARGET_DIR (default `.bench_build`), runs it with
the given arguments, and passes its output through: one JSON line of run
facts, then the result line `{"correct", "attempted", "failed",
"metrics"}`. Before that it prints one JSON line identifying the source
that was measured. Exits non-zero, printing no result, if the build or
the run fails or the result does not carry exactly the metrics that
BENCHMARK.json lists for the chosen trace mode.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def source_facts():
    """The git revision when there is one, and a digest of the measured
    sources, which identifies the code even in a plain checkout."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    digest = hashlib.sha256()
    files = [p for d in ("crates", "perfbench") for p in (ROOT / d).rglob("*")
             if p.is_file() and p.suffix in (".rs", ".toml", ".lock")]
    for p in sorted(files):
        digest.update(str(p.relative_to(ROOT)).encode())
        digest.update(p.read_bytes())
    return {"git_rev": rev or "unavailable (not a git checkout)",
            "source_sha256": digest.hexdigest()}


def main():
    args = sys.argv[1:]
    trace = args[args.index("--trace") + 1] if "--trace" in args[:-1] else "0"
    manifest = HERE / "Cargo.toml"
    if not (ROOT / "crates" / "transport" / "Cargo.toml").is_file():
        fail("no switchml sources next to the benchmark; run from a repository checkout")
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build"))
    target = Path(env["CARGO_TARGET_DIR"])
    if not target.is_absolute():
        target = ROOT / target
        env["CARGO_TARGET_DIR"] = str(target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(manifest)],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail(f"cargo build failed with exit code {build.returncode}")

    try:
        run = subprocess.run(
            [str(target / "release" / "perfbench"), *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(run.stderr)
    if run.returncode != 0:
        fail(f"benchmark exited with code {run.returncode}")
    lines = run.stdout.strip().splitlines()
    if not lines:
        fail("benchmark printed nothing")
    result = json.loads(lines[-1])

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace == "1" else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: {sorted(set(got.items()) ^ set(want.items()))}")

    print(json.dumps({"source": source_facts()}))
    print("\n".join(lines))


if __name__ == "__main__":
    main()
