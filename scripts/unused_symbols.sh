#!/usr/bin/env bash
# Reachability scan: every function that a src/ library defines, out of
# line or inline in a header, must be reached by at least one shipped
# binary (bench/, examples/, tools/ and perfbench), or be listed in
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
# Scope: global functions in namespace onfiber, out of line (nm type T)
# or inline (type W). -fkeep-inline-functions makes every translation
# unit emit each inline function it sees, and one scan-only unit that
# includes onfiber.hpp brings in headers no library source includes.
# Known limits:
#   - constructors, destructors and operators are not checked: most are
#     compiler-generated and cannot be deleted;
#   - a template is checked only as far as some library unit
#     instantiates it;
#   - a function that a binary evaluates only at compile time (constexpr,
#     or a URBG's min()/max() read by a concept) shows as unreached and
#     needs an allow-list entry;
#   - file-local functions (static or in an anonymous namespace) are out
#     of scope.
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
  -DCMAKE_CXX_FLAGS="-ffunction-sections -fdata-sections -fkeep-inline-functions" \
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
flags=(-std=c++20 -ffunction-sections -fdata-sections -fno-math-errno
  -fno-trapping-math -msse4.1 -ffp-contract=off -Isrc)
"$cxx" "${flags[@]}" -O1 -fno-inline \
  '-DONFIBER_PERFBENCH_BUILD_TYPE="Release"' \
  -c perfbench/perfbench.cpp -o "$build/perfbench.o"
"$cxx" "$build/perfbench.o" -Wl,--gc-sections "${libs[@]}" -pthread \
  -o "$build/onfiber_perfbench"

scan="$build/unused_symbols"
mkdir -p "$scan"
echo '#include "onfiber.hpp"' > "$scan/all_headers.cpp"
"$cxx" "${flags[@]}" -O0 -fkeep-inline-functions \
  -c "$scan/all_headers.cpp" -o "$scan/all_headers.o"

# Keep functions whose qualified name (after any return type, before the
# parameter list) starts with onfiber::, minus operators (lambdas'
# included), constructors and destructors.
nm -C --defined-only "${libs[@]}" "$scan/all_headers.o" 2>/dev/null |
  sed -n 's/^[0-9a-f]* [TW] //p' | sort -u | awk '
    function qualified(s,   i, c, depth, start) {
      gsub(/\(anonymous namespace\)/, "{anonymous}", s)
      depth = 0; start = 1
      for (i = 1; i <= length(s); i++) {
        c = substr(s, i, 1)
        if (c == "(" && depth == 0) break
        if (c ~ /[<({[]/) depth++
        else if (c ~ /[>)}\]]/) depth--
        else if (c == " " && depth == 0) start = i + 1
      }
      return substr(s, start, i - start)
    }
    {
      name = qualified($0)
      if (name !~ /^onfiber::/ || name ~ /::operator([^A-Za-z0-9_]|$)/) next
      if ($0 ~ /::\{lambda\(/) next  # the call operator of a lambda
      while (gsub(/<[^<>]*>/, "", name)) {}
      n = split(name, part, "::")
      if (part[n] ~ /^~/ || part[n] == part[n - 1]) next
      print
    }' > "$scan/defined.txt"
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
