#!/usr/bin/env bash
# Run the mutation catalogue (scripts/mutants.txt): every mutant must be
# killed by tier-1.
#
# Usage (from the repository root):
#
#     scripts/mutants.sh [WORK_DIR]        # default WORK_DIR: build-mutants
#
# Copies the sources (CMakeLists.txt, src, tests, bench, examples) into
# WORK_DIR/tree, rewriting only the files whose bytes differ, so a second
# run rebuilds only what changed; builds them in WORK_DIR/build and checks
# that tier-1 passes. Then, one mutant at a time: replace its line in the
# copy, rebuild incrementally, run ctest, and put the line back. Entries are
# applied in catalogue order, so mutants of one header follow each other.
#
# Exits 1 when a mutant survives (tier-1 passes), is killed only by tests
# its entry does not expect, does not compile, or names a line that does not
# occur exactly once in its file. JOBS sets the build and ctest parallelism
# (default: nproc).
set -euo pipefail
ROOT=$(cd "$(dirname "$0")/.." && pwd)
WORK=$(realpath -m "${1:-build-mutants}")
JOBS=${JOBS:-$(nproc)}
exec python3 - "$ROOT" "$WORK" "$JOBS" <<'PY'
import os
import re
import subprocess
import sys
import time

root, work, jobs = sys.argv[1], sys.argv[2], sys.argv[3]
tree = os.path.join(work, "tree")
build = os.path.join(work, "build")
FIELDS = ("name", "file", "line", "with", "expect")


def parse(path):
    mutants, entry = [], {}
    with open(path, encoding="utf-8") as f:
        lines = f.read().split("\n")
    for number, raw in enumerate(lines + [""], 1):
        if raw.startswith("#"):
            continue
        if not raw.strip():
            if entry:
                missing = [k for k in FIELDS if k not in entry]
                if missing:
                    sys.exit(f"mutants: {path}:{number}: entry lacks {missing}")
                mutants.append(entry)
                entry = {}
            continue
        key, sep, value = raw.partition(":")
        if not sep or key not in FIELDS:
            sys.exit(f"mutants: {path}:{number}: expected 'field: value'")
        entry[key] = value.strip()
    return mutants


def run(cmd, **kw):
    return subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, check=False, **kw)


def sync(rel):
    """Copy root/rel into the tree, rewriting only the files that differ."""
    src = os.path.join(root, rel)
    walk = os.walk(src) if os.path.isdir(src) else [(root, [], [rel])]
    for dirpath, _, names in walk:
        for name in names:
            s = os.path.join(dirpath, name)
            d = os.path.join(tree, os.path.relpath(s, root))
            with open(s, "rb") as f:
                data = f.read()
            if os.path.exists(d):
                with open(d, "rb") as f:
                    if f.read() == data:
                        continue
            os.makedirs(os.path.dirname(d), exist_ok=True)
            with open(d, "wb") as f:
                f.write(data)


def build_tree():
    return run(["cmake", "--build", build, "-j", jobs])


def failed_tests():
    out = run(["ctest", "--test-dir", build, "-j", jobs, "--timeout", "300"])
    if out.returncode == 0:
        return []
    failed = out.stdout.split("The following tests FAILED:", 1)
    if len(failed) < 2:
        return ["<ctest error>"]
    return re.findall(r"^\s*\d+ - (\S+) \(", failed[1], re.M)


mutants = parse(os.path.join(root, "scripts", "mutants.txt"))
problems = []
for m in mutants:
    with open(os.path.join(root, m["file"]), encoding="utf-8") as f:
        hits = sum(1 for l in f.read().split("\n") if l.strip() == m["line"])
    if hits != 1:
        problems.append(f"{m['name']}: line occurs {hits} times in {m['file']}")
if problems:
    print("\n".join(problems))
    sys.exit(1)

for rel in ("CMakeLists.txt", "src", "tests", "bench", "examples"):
    sync(rel)
out = run(["cmake", "-S", tree, "-B", build])
if out.returncode != 0 or build_tree().returncode != 0:
    sys.exit("mutants: the unmutated copy does not build")
if failed_tests():
    sys.exit("mutants: tier-1 fails on the unmutated copy")

results = []
for m in mutants:
    path = os.path.join(tree, m["file"])
    with open(path, encoding="utf-8") as f:
        pristine = f.read()
    lines = pristine.split("\n")
    i = next(k for k, l in enumerate(lines) if l.strip() == m["line"])
    lines[i] = lines[i][: len(lines[i]) - len(lines[i].lstrip())] + m["with"]
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines))
    start = time.time()
    try:
        if build_tree().returncode != 0:
            verdict = "does not compile"
        else:
            failed = failed_tests()
            expected = [t for t in failed if re.search(m["expect"], t)]
            if not failed:
                verdict = "SURVIVED"
            elif not expected:
                verdict = (f"killed, but not by {m['expect']} "
                           f"(failing: {' '.join(failed[:5])})")
            else:
                verdict = f"killed ({len(failed)} failing, e.g. {expected[0]})"
    finally:
        with open(path, "w", encoding="utf-8") as f:
            f.write(pristine)
    ok = verdict.startswith("killed (")
    results.append(ok)
    print(f"{'ok  ' if ok else 'FAIL'} {m['name']}: {verdict} "
          f"[{time.time() - start:.0f} s]", flush=True)

killed = sum(results)
print(f"mutants: {killed} of {len(results)} killed as expected")
sys.exit(0 if killed == len(results) else 1)
PY
