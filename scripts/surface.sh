#!/usr/bin/env bash
# The tracked size numbers (ROADMAP north-star point 2): lines of Rust and
# public-API surface per crate, written to SURFACE.md so every PR shows
# its delta in review.
#
#   scripts/surface.sh           rewrite SURFACE.md
#   scripts/surface.sh --check   fail if the committed SURFACE.md is stale
#
# "code" = lines before the first `#[cfg(test)]` of each tracked .rs file
# (comments and blanks included: the number is a trend, not a measure of
# density); "pub" = `pub fn|struct|enum|trait|const|type` items among
# them. vendor/ (offline stand-ins) and benchmark/ (the ledger harness)
# are not the program and are not counted.
set -euo pipefail
cd "$(dirname "$0")/.."

render() {
    # Sorted input keeps each crate's files adjacent, so plain POSIX awk
    # can print in first-seen order.
    git ls-files '*.rs' | grep -Ev '^(vendor|benchmark)/' | LC_ALL=C sort | xargs awk '
        function crate_of(path,    parts) {
            split(path, parts, "/")
            return parts[1] == "crates" ? "crates/" parts[2] : "src, tests, examples"
        }
        FNR == 1 {
            in_test = 0
            crate = crate_of(FILENAME)
            if (!(crate in files)) crates[++ncrates] = crate
            files[crate]++
            paths[++npaths] = FILENAME
        }
        /#\[cfg\(test\)\]/ { in_test = 1 }
        { lines[crate]++; all++ }
        !in_test {
            code[crate]++; file_code[FILENAME]++
            if ($0 ~ /^[ \t]*pub (fn|struct|enum|trait|const|type)[^A-Za-z0-9_]/) {
                pub[crate]++; file_pub[FILENAME]++
            }
        }
        END {
            print "# Surface"
            print ""
            print "Generated by `scripts/surface.sh`; `scripts/ci.sh` fails when this file is stale."
            print "`code` counts the lines before the first `#[cfg(test)]` of each file, `pub` the"
            print "`pub fn|struct|enum|trait|const|type` items among them. `vendor/` and"
            print "`benchmark/` are not counted."
            print ""
            print "| crate | files | lines | code | pub |"
            print "|---|---:|---:|---:|---:|"
            for (i = 1; i <= ncrates; i++) {
                c = crates[i]
                printf "| `%s` | %d | %d | %d | %d |\n", c, files[c], lines[c], code[c], pub[c]
                sum_code += code[c]; sum_pub += pub[c]
            }
            printf "| **workspace** | %d | %d | %d | %d |\n", npaths, all, sum_code, sum_pub
            print ""
            print "## `zi-core`, per file"
            print ""
            print "| file | code | pub |"
            print "|---|---:|---:|"
            for (i = 1; i <= npaths; i++) {
                f = paths[i]
                if (f ~ /^crates\/core\/src\//)
                    printf "| `%s` | %d | %d |\n", f, file_code[f], file_pub[f]
            }
        }'
}

if [ "${1:-}" = "--check" ]; then
    render | diff -u SURFACE.md - \
        || { echo "SURFACE.md is stale: run scripts/surface.sh and commit the result"; exit 1; }
else
    render > SURFACE.md
fi
