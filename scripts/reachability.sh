#!/usr/bin/env bash
# List the functions in src/ that no shipped binary reaches, and compare the
# list with scripts/reachability.txt.
#
# Usage: scripts/reachability.sh [build-dir]     (default: build-reach)
#
# The build directory is configured with the flags below, so give the scan a
# directory of its own.
#
# Shipped binaries are the benches (<build-dir>/bench), the examples
# (<build-dir>/examples) and the repository benchmark's orte_perf
# (perfbench/, configured as its own CMake project in <build-dir>/perfbench).
# Everything is built in Debug with -O0 -fno-inline, -fkeep-inline-functions
# (every inline function a translation unit sees is emitted, as a weak
# symbol) and one section per function, and linked with --gc-sections, so a
# binary holds exactly the functions it can call.
#
# A function is unreached when a src/ archive defines it and no shipped
# binary does. The archives' functions are their strong text symbols in
# namespace orte (mangled name _ZN4orte... or _ZNK4orte...) and their weak
# ones in namespace orte that are neither const members (_ZNK4orte...) nor
# constructors or destructors: the non-const members and free functions
# defined in src/ headers and included by a src/ source file.
# scripts/reachability.txt lists, by mangled name,
# the unreached functions kept on purpose, each after a comment with its
# demangled name, the paper section it serves and its pending exercise.
# Mangled names stay the same across GCC and binutils versions; demangled
# text does not. The script exits 1 on any difference in either direction: a
# newly unreached function, or a listed one that a binary now reaches (or
# that is gone), which then leaves the file.
#
# Out of its reach: struct fields and other settable values (a field that
# only tests set is invisible to a symbol scan), const member functions
# defined in headers (tests may read any state), constructors and
# destructors defined in headers, templates, and header code that no src/
# source file includes.
set -euo pipefail
export LC_ALL=C  # one collation for sort and comm

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
dir="$(mkdir -p "${1:-build-reach}" && cd "${1:-build-reach}" && pwd)"
flags="-O0 -fno-inline -fkeep-inline-functions -ffunction-sections"
flags+=" -fdata-sections"
link="-Wl,--gc-sections"
jobs="$(nproc 2>/dev/null || echo 2)"

# Makefiles, so that a subdirectory of the build tree builds on its own.
cmake -S "$root" -B "$dir" -G "Unix Makefiles" -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="$flags" -DCMAKE_EXE_LINKER_FLAGS="$link"
cmake --build "$dir/bench" -j"$jobs"
cmake --build "$dir/examples" -j"$jobs"
cmake -S "$root/perfbench" -B "$dir/perfbench" -G "Unix Makefiles" \
  -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="$flags" -DCMAKE_EXE_LINKER_FLAGS="$link"
cmake --build "$dir/perfbench" --target orte_perf -j"$jobs"

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

# A constructor or destructor ends its nested name with C1-C3 or D0-D2
# after the length-prefixed source names (_ZN4orte3sim5StatsC2Ev).
nm --defined-only "$dir"/src/*.a |
  awk 'function structor(s,   i, n) {
         i = 4
         while (substr(s, i, 1) ~ /[0-9]/) {
           n = 0
           while (substr(s, i, 1) ~ /[0-9]/) {
             n = n * 10 + substr(s, i, 1)
             i++
           }
           i += n
         }
         return substr(s, i, 2) ~ /^(C[123]|D[012])$/
       }
       ($2 == "T" && $3 ~ /^_ZNK?4orte/) ||
       ($2 == "W" && $3 ~ /^_ZN4orte/ && !structor($3)) {print $3}' |
  sort -u >"$work/src"
{
  find "$dir/bench" "$dir/examples" -maxdepth 1 -type f -perm -u+x
  echo "$dir/perfbench/orte_perf"
} | while read -r exe; do
  nm --defined-only "$exe" | awk 'NF == 3 {print $3}'
done | sort -u >"$work/shipped"
comm -23 "$work/src" "$work/shipped" >"$work/unreached"
awk '!/^[[:space:]]*(#|$)/ {print $1}' "$root/scripts/reachability.txt" |
  sort -u >"$work/kept"

comm -23 "$work/unreached" "$work/kept" >"$work/new"
comm -13 "$work/unreached" "$work/kept" >"$work/stale"
if [[ -s "$work/new" || -s "$work/stale" ]]; then
  if [[ -s "$work/new" ]]; then
    echo "No shipped binary reaches these src functions; delete them, or"
    echo "exercise them, or list them in scripts/reachability.txt:"
    c++filt <"$work/new" | sed 's/^/  /'
  fi
  if [[ -s "$work/stale" ]]; then
    echo "Listed in scripts/reachability.txt but reached now (or gone);"
    echo "remove them from the file:"
    c++filt <"$work/stale" | sed 's/^/  /'
  fi
  exit 1
fi
echo "reachability: $(wc -l <"$work/kept") kept src function(s), as listed"
