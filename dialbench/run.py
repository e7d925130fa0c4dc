#!/usr/bin/env python3
"""Run one workload of the DIAL loop benchmark.

Usage, from the root of a checkout:

    python3 dialbench/run.py --workload al-wa --seed 1 --seconds 20 --trace 0

The first call builds the program and the benchmark from source with sbt
(offline) and records the runtime classpath under .bench_build/; later calls
reuse it until a source or build file changes. The measurement itself runs in
one JVM (dialbench.Main), whose last line of output is the JSON result.
"""
import argparse
import hashlib
import os
import signal
import subprocess
import sys
from pathlib import Path

BENCH = Path("dialbench")
OUT = Path(".bench_build")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

# Spark 4 on JDK 17 needs the module opens that its launcher scripts add.
OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar",
]


def fail(msg):
    print(f"dialbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_inputs():
    """Every file the build reads: both build definitions and all sources."""
    files = [Path("build.sbt"), BENCH / "build.sbt"]
    for d in [Path("project"), BENCH / "project"]:
        files += sorted(p for p in d.glob("*") if p.is_file())
    for d in [Path("src/main"), Path("jobs"), BENCH / "src"]:
        files += sorted(p for p in d.rglob("*") if p.is_file())
    return files


def stamp():
    h = hashlib.sha256()
    for p in build_inputs():
        h.update(str(p).encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def run_group(cmd, timeout, **kw):
    """Runs `cmd` in its own process group and kills the whole group when it
    ends or times out, so no child outlives this script."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        print(f"dialbench: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
        return None, None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


def classpath():
    cp_file, stamp_file = OUT / "classpath.txt", OUT / "classpath.stamp"
    want = stamp()
    if cp_file.exists() and stamp_file.exists() and stamp_file.read_text() == want:
        return cp_file.read_text().strip()
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    if "SBT_OPTS" not in env:
        opts = ["-Dsbt.offline=true", "-Xmx2g"]
        repos = Path.home() / ".sbt" / "repositories"
        if repos.exists():
            opts += ["-Dsbt.override.build.repos=true", f"-Dsbt.repository.config={repos}"]
        env["SBT_OPTS"] = " ".join(opts)
    print("dialbench: building with sbt", file=sys.stderr)
    code, out = run_group(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "export Runtime/fullClasspath"],
        BUILD_TIMEOUT_S, cwd=BENCH, env=env, stdout=subprocess.PIPE, text=True)
    if code != 0:
        sys.stderr.write(out or "")
        fail("build failed")
    cp = out.strip().splitlines()[-1]
    OUT.mkdir(exist_ok=True)
    cp_file.write_text(cp)
    stamp_file.write_text(want)
    return cp


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    args = ap.parse_args()
    # Turn a termination request into SystemExit, so run_group's cleanup
    # still kills the JVM or sbt it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    for p in [Path("build.sbt"), Path("src/main/scala"), BENCH / "build.sbt"]:
        if not p.exists():
            fail(f"{p} not found: run from the root of a full checkout")
    cp = classpath()

    tmp, local = OUT / "tmp", OUT / "spark-local"
    tmp.mkdir(parents=True, exist_ok=True)
    local.mkdir(parents=True, exist_ok=True)
    # A fixed heap and young generation keep GC from resizing during the run,
    # which made call times less steady.
    cmd = ["java", "-Xms2g", "-Xmx2g", "-Xmn1g", "-XX:+UseParallelGC"]
    cmd += [f"--add-opens={p}=ALL-UNNAMED" for p in OPENS]
    cmd += [
        "-Djdk.reflect.useDirectMethodHandle=false",
        f"-Dlog4j2.configurationFile={BENCH / 'log4j2.properties'}",
        f"-Djava.io.tmpdir={tmp}",
        "-cp", cp, "dialbench.Main",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", args.trace,
    ]
    env = dict(os.environ, SPARK_LOCAL_DIRS=str(local))
    code, _ = run_group(cmd, RUN_TIMEOUT_S, env=env)
    sys.exit(1 if code is None else code)


if __name__ == "__main__":
    main()
