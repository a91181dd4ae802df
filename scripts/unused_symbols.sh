#!/usr/bin/env bash
# Reachability scan: every out-of-line function that a src/ library
# defines must be reached by at least one shipped binary (bench/,
# examples/, tools/ and perfbench), or be listed in
# scripts/unused_symbols.allow with a one-line reason.
#
# The binaries are built unoptimised (-O0, so nothing is inlined away)
# with one section per function and linked with --gc-sections, so a
# library function survives in a binary only if something the binary
# runs can call it. perfbench's main refuses an unoptimised build, so
# perfbench/perfbench.cpp is compiled in place (read-only, nothing is
# written under perfbench/) at -O1 -fno-inline instead. Tests are not
# built: a function that only tests call is what this scan reports.
#
# Scope: out-of-line functions only (global text symbols, nm type T).
# Header-only code (inline functions, templates, other weak or comdat
# symbols) and file-local functions are out of scope.
#
# Usage: scripts/unused_symbols.sh [build-dir]   (default build-unused)
# Exits 1 when a library function is reached by no binary and is not
# allow-listed, or when an allow-list entry is stale (reached, or no
# longer defined).
set -euo pipefail

cd "$(dirname "$0")/.."
build=${1:-build-unused}
allow=scripts/unused_symbols.allow
export LC_ALL=C

cmake -S . -B "$build" -DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS_DEBUG=-O0 \
  -DONFIBER_BUILD_TESTS=OFF \
  -DCMAKE_CXX_FLAGS="-ffunction-sections -fdata-sections" \
  -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" > /dev/null
if ! cmake --build "$build" -j"$(nproc)" > "$build/build.log" 2>&1; then
  cat "$build/build.log" >&2
  exit 1
fi

cxx=$(sed -n 's/^CMAKE_CXX_COMPILER:[A-Z]*=//p' "$build/CMakeCache.txt")
libs=()
for lib in apps core controller digital protocol network photonics obs; do
  libs+=("$build/src/$lib/libonfiber_$lib.a")
done
"$cxx" -std=c++20 -O1 -fno-inline -ffunction-sections -fdata-sections \
  -fno-math-errno -fno-trapping-math -msse4.1 -ffp-contract=off -Isrc \
  '-DONFIBER_PERFBENCH_BUILD_TYPE="Release"' \
  -c perfbench/perfbench.cpp -o "$build/perfbench.o"
"$cxx" "$build/perfbench.o" -Wl,--gc-sections "${libs[@]}" -pthread \
  -o "$build/onfiber_perfbench"

scan="$build/unused_symbols"
mkdir -p "$scan"
nm -C --defined-only "${libs[@]}" 2>/dev/null |
  sed -n 's/^[0-9a-f]* T //p' | sort -u > "$scan/defined.txt"
find "$build/bench" "$build/examples" "$build/tools" -maxdepth 1 -type f \
  -perm -u+x > "$scan/binaries.txt"
echo "$build/onfiber_perfbench" >> "$scan/binaries.txt"
xargs nm -C --defined-only < "$scan/binaries.txt" |
  sed -n 's/^[0-9a-f]* [A-Za-z] //p' | sort -u > "$scan/reached.txt"

# Allow-list lines are "<demangled signature> # <reason>"; blank lines
# and lines starting with '#' are comments.
entries() { sed -E '/^[[:space:]]*(#|$)/d' "$allow"; }
if entries | grep -vE ' # [^[:space:]]'; then
  echo "unused_symbols: the allow-list entries above have no reason" >&2
  exit 1
fi
entries | sed 's/ # .*$//' | sort -u > "$scan/allowed.txt"

comm -23 "$scan/defined.txt" "$scan/reached.txt" > "$scan/unreached.txt"
comm -23 "$scan/unreached.txt" "$scan/allowed.txt" > "$scan/unlisted.txt"
comm -23 "$scan/allowed.txt" "$scan/unreached.txt" > "$scan/stale.txt"

status=0
if [ -s "$scan/unlisted.txt" ]; then
  echo "unused_symbols: library functions no binary reaches:" >&2
  sed 's/^/  /' "$scan/unlisted.txt" >&2
  status=1
fi
if [ -s "$scan/stale.txt" ]; then
  echo "unused_symbols: stale allow-list entries (reached or undefined):" >&2
  sed 's/^/  /' "$scan/stale.txt" >&2
  status=1
fi
echo "unused_symbols: $(wc -l < "$scan/defined.txt") library functions," \
  "$(wc -l < "$scan/binaries.txt") binaries," \
  "$(wc -l < "$scan/allowed.txt") allow-listed"
exit "$status"
