#!/usr/bin/env bash
# The tracked size numbers (ROADMAP north-star point 2): lines of Rust and
# public-API surface per crate, written to SURFACE.md so every PR shows
# its delta in review.
#
#   scripts/surface.sh           rewrite SURFACE.md
#   scripts/surface.sh --check   fail if the committed SURFACE.md is stale
#
# "code" = lines before the first `#[cfg(test)]` attribute line of each
# tracked .rs file outside a `tests/` directory (comments and blanks
# included: the number is a trend, not a measure of density); an
# integration test under `tests/` has no `#[cfg(test)]` and is all test
# lines, like a unit test in `src/`; "pub" = `pub fn|struct|enum|trait|const|type`
# items among them; "unexported" = those `pub` items whose name appears as
# a word in no tracked .rs file outside the crate's own src/ (other
# crates, the root src/tests/examples, benchmark/src, and the crate's own
# tests/ and benches/), listed by path:line under the table. vendor/
# (offline stand-ins) and benchmark/ (the ledger harness) are not the
# program and are not counted; benchmark/src is only searched for names.
# --check also fails when a crate's unexported count rises. Since nothing
# after that line is counted, a top-level item there that is not itself
# under `#[cfg(test)]` fails both modes, naming its file:line: move it
# above the file's tests.
set -euo pipefail
cd "$(dirname "$0")/.."

render() {
    # Sorted input keeps each crate's files adjacent, so plain POSIX awk
    # can print in first-seen order.
    git ls-files '*.rs' | grep -Ev '^vendor/' | LC_ALL=C sort | xargs awk '
        function crate_of(path,    parts) {
            split(path, parts, "/")
            return parts[1] == "crates" ? "crates/" parts[2] : "src, tests, examples"
        }
        # The crate whose src/ holds the file; "" for every other file.
        function home_of(path,    parts) {
            split(path, parts, "/")
            return parts[1] == "crates" && parts[3] == "src" ? "crates/" parts[2] : ""
        }
        FNR == 1 { home = home_of(FILENAME) }
        # Every identifier of every file, noting which homes name it: a
        # name seen under two homes is named outside each of them.
        {
            words = $0
            gsub(/[^A-Za-z0-9_]+/, " ", words)
            nw = split(words, w, " ")
            for (i = 1; i <= nw; i++) {
                if (!(w[i] in seen_in)) seen_in[w[i]] = home
                else if (seen_in[w[i]] != home) seen_in[w[i]] = "*"
            }
        }
        FILENAME ~ /^benchmark\// { next }
        FNR == 1 {
            in_test = 0
            test_file = FILENAME ~ /(^|\/)tests\//
            crate = crate_of(FILENAME)
            if (!(crate in files)) crates[++ncrates] = crate
            files[crate]++
            paths[++npaths] = FILENAME
        }
        /^[ \t]*#\[cfg\(test\)\]/ { in_test = 1 }
        # From there on every top-level item must be a test item itself:
        # `#[cfg(test)]` marks the next item, across further attributes
        # and comments.
        in_test && /^[^ \t]/ {
            if ($0 ~ /^#\[cfg\(test\)\]/) test_attr = 1
            else if ($0 !~ /^(#|\/\/)/) {
                if (!test_attr && $0 ~ /^(pub(\([^)]*\))? +)?((unsafe|async|const|extern) +)*(fn|struct|enum|union|trait|impl|const|static|type|mod|use|macro_rules!)([^A-Za-z0-9_]|$)/)
                    stray[++nstray] = FILENAME ":" FNR ": " $0
                test_attr = 0
            }
        }
        { lines[crate]++; all++ }
        !in_test && !test_file {
            code[crate]++; file_code[FILENAME]++
            if ($0 ~ /^[ \t]*pub (fn|struct|enum|trait|const|type)[^A-Za-z0-9_]/) {
                pub[crate]++; file_pub[FILENAME]++
                name = $0
                sub(/^[ \t]*pub (const +fn|fn|struct|enum|trait|const|type) +/, "", name)
                sub(/[^A-Za-z0-9_].*$/, "", name)
                item_crate[++nitems] = crate; item_name[nitems] = name
                item_at[nitems] = FILENAME ":" FNR
            }
        }
        END {
            print "# Surface"
            print ""
            print "Generated by `scripts/surface.sh`; `scripts/ci.sh` fails when this file is stale."
            print "`code` counts the lines before the first `#[cfg(test)]` of each file (none of a"
            print "file under `tests/`: an integration test is all test lines), `pub` the"
            print "`pub fn|struct|enum|trait|const|type` items among them, `unexported` the"
            print "`pub` items whose name no tracked `.rs` file outside the crate'"'"'s `src/` names"
            print "(listed below the tables). `vendor/` and `benchmark/` are not counted;"
            print "`benchmark/src` is searched for names."
            print ""
            for (i = 1; i <= nitems; i++) {
                where = seen_in[item_name[i]]
                if (where == item_crate[i]) {
                    unexported[item_crate[i]]++
                    listed[++nlisted] = item_at[i] " " item_name[i]
                }
            }
            print "| crate | files | lines | code | pub | unexported |"
            print "|---|---:|---:|---:|---:|---:|"
            for (i = 1; i <= ncrates; i++) {
                c = crates[i]
                printf "| `%s` | %d | %d | %d | %d | %d |\n", c, files[c], lines[c], code[c], pub[c], unexported[c]
                sum_code += code[c]; sum_pub += pub[c]; sum_unexported += unexported[c]
            }
            printf "| **workspace** | %d | %d | %d | %d | %d |\n", npaths, all, sum_code, sum_pub, sum_unexported
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
            print ""
            print "## Unexported `pub` items"
            print ""
            if (!nlisted) print "None."
            for (i = 1; i <= nlisted; i++) print "- `" listed[i] "`"
            for (i = 1; i <= nstray; i++)
                print stray[i] "  <- non-test item after the first #[cfg(test)]: not counted" > "/dev/stderr"
            if (nstray) exit 1
        }'
}

if [ "${1:-}" = "--check" ]; then
    fresh="$(mktemp)"
    trap 'rm -f "$fresh"' EXIT
    render > "$fresh"
    # A crate whose unexported count rose fails by name, with the items
    # the committed list lacks: a new `pub` item that no other crate
    # calls belongs in pub(crate).
    awk -F'|' '
        # Table rows: the crate in $2, its unexported count in $7.
        $2 ~ /`/ && NF == 8 { n = $7 + 0 }
        # List entries, keyed by file and name (line numbers move).
        /^- `/ { key = $0; sub(/:[0-9]+ /, " ", key) }
        FNR == NR && $2 ~ /`/ && NF == 8 { was[$2] = n; next }
        FNR == NR && /^- `/ { listed[key] = 1; next }
        FNR == NR { next }
        $2 ~ /`/ && NF == 8 && n > was[$2] {
            gsub(/ /, "", $2)
            print $2 ": unexported rose from " was[$2] + 0 " to " n
            rose = 1
        }
        /^- `/ && !(key in listed) { print "  new: " $0 }
        END { exit rose }' SURFACE.md "$fresh" \
        || { echo "make the new items pub(crate), or name their caller"; exit 1; }
    diff -u SURFACE.md "$fresh" \
        || { echo "SURFACE.md is stale: run scripts/surface.sh and commit the result"; exit 1; }
else
    render > SURFACE.md
fi
