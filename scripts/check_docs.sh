#!/usr/bin/env bash
# Documentation checks, wired into scripts/tier1.sh as the
# TPL_TIER1_DOCS leg:
#
#   1. Every intra-repo markdown link ([text](relative/path)) in a
#      tracked .md file must point at an existing file, and every
#      anchored link (path#heading or #heading) must point at a
#      heading that actually exists in the target file (GitHub
#      slugs: lowercased, punctuation stripped, spaces to hyphens).
#   2. Every public symbol (class / struct / enum class / using alias /
#      free function at namespace scope) declared in a header under
#      src/pimsim/serve/ or src/transpim/ must be mentioned in
#      docs/API.md — new API surface ships documented or not at all.
#   3. Every tool binary (tools/*.cc) must be named in README.md —
#      the tools table keeps pace with the tools directory.
#   4. Every backticked source name (`name.h`, `.cc`, `.cpp`, `.sh`,
#      `.py`, `.inc`) in docs/*.md, README.md and DESIGN.md must name
#      a tracked file: an exact path or a trailing part of one (a
#      path relative to src/, a basename), so a deleted file leaves
#      no doc naming it.
#
# Usage: scripts/check_docs.sh
# Exit: 0 clean, 1 on any broken link, dead anchor, undocumented
# symbol, unlisted tool, or dead file name.
set -u

SRC_DIR="$(cd "$(dirname "$0")/.." && pwd)"
cd "$SRC_DIR"

failures=0

# --- 1. intra-repo markdown links ------------------------------------

# -c -o: tracked AND untracked (a doc must not dodge the check by
# being new); --exclude-standard honors .gitignore (skips build/).
md_files=$(git ls-files -c -o --exclude-standard '*.md' 2>/dev/null)
[ -n "$md_files" ] || md_files=$(find . -name '*.md' -not -path './build*' -not -path './.git/*')

# GitHub-style anchor slugs of a markdown file's headings, one per
# line: lowercase, punctuation stripped (keep alnum/space/hyphen/
# underscore), spaces to hyphens. Fenced blocks are skipped so
# '# comment' lines inside shell snippets are not headings. The awk
# pattern avoids interval expressions ({1,6}), which mawk lacks.
anchors_of() {
    awk '/^[[:space:]]*```/ { fence = !fence; next }
         !fence && /^##?#?#?#?#? /' "$1" |
        sed -E 's/^#{1,6} +//' |
        tr 'A-Z' 'a-z' |
        sed -E 's/[^a-z0-9 _-]//g; s/ /-/g'
}

for md in $md_files; do
    # Pull out link targets: [text](target). One per line; markdown
    # in this repo never nests parentheses inside link targets.
    # Fenced code blocks are stripped first — C++ lambdas ([&](...))
    # parse as links otherwise.
    targets=$(awk '/^[[:space:]]*```/ { fence = !fence; next }
                   !fence' "$md" |
        grep -oE '\[[^]]*\]\([^)]+\)' |
        sed -E 's/^\[[^]]*\]\(([^)]+)\)$/\1/')
    [ -n "$targets" ] || continue
    dir=$(dirname "$md")
    while IFS= read -r target; do
        case "$target" in
            http://* | https://* | mailto:*) continue ;;
        esac
        path="${target%%#*}" # the anchor comes after the path
        anchor=""
        case "$target" in
            *'#'*) anchor="${target#*#}" ;;
        esac
        # Resolve the anchor's target file: same file for '#...'
        # links, the linked file otherwise.
        anchor_file="$md"
        if [ -n "$path" ]; then
            if [ ! -e "$dir/$path" ]; then
                echo "check_docs: $md: broken link '$target'" >&2
                failures=$((failures + 1))
                continue
            fi
            anchor_file="$dir/$path"
        fi
        if [ -n "$anchor" ] && [ -f "$anchor_file" ]; then
            case "$anchor_file" in
                *.md) ;;
                *) continue ;; # anchors into non-markdown: skip
            esac
            if ! anchors_of "$anchor_file" |
                grep -qxF "$anchor"; then
                echo "check_docs: $md: dead anchor '$target'" \
                    "(no such heading in $anchor_file)" >&2
                failures=$((failures + 1))
            fi
        fi
    done <<EOF
$targets
EOF
done

# --- 2. public API surface vs docs/API.md ----------------------------

API_MD="docs/API.md"
if [ ! -f "$API_MD" ]; then
    echo "check_docs: $API_MD missing" >&2
    exit 1
fi

# Extract namespace-scope names from a header. The repo style keeps
# public declarations at column 0 (members are indented), so:
#   - 'class X' / 'struct X' / 'enum class X' at column 0
#   - 'using X = ...' at column 0
#   - free-function declarations 'ReturnType name(...' at column 0
public_symbols() {
    local header="$1"
    grep -hoE '^(class|struct) [A-Za-z_][A-Za-z0-9_]*' "$header" |
        awk '{ print $2 }'
    grep -hoE '^enum class [A-Za-z_][A-Za-z0-9_]*' "$header" |
        awk '{ print $3 }'
    grep -hoE '^using [A-Za-z_][A-Za-z0-9_]*' "$header" |
        awk '{ print $2 }'
    grep -hoE '^[A-Za-z_][A-Za-z0-9_:<>,&* ]*[ *&][A-Za-z_][A-Za-z0-9_]*\(' \
        "$header" |
        sed -E 's/.*[ *&]([A-Za-z_][A-Za-z0-9_]*)\($/\1/'
}

for header in src/pimsim/serve/*.h src/transpim/*.h; do
    [ -f "$header" ] || continue
    for sym in $(public_symbols "$header" | sort -u); do
        # 'operator' tails and reserved words are artifacts of the
        # line-based extraction, not API names.
        case "$sym" in
            operator* | if | for | while | return | sizeof) continue ;;
        esac
        if ! grep -qE "\\b$sym\\b" "$API_MD"; then
            echo "check_docs: $header: public symbol '$sym'" \
                "not documented in $API_MD" >&2
            failures=$((failures + 1))
        fi
    done
done

# --- 3. tools directory vs README.md ---------------------------------

for tool_src in tools/*.cc; do
    [ -f "$tool_src" ] || continue
    tool=$(basename "$tool_src" .cc)
    if ! grep -qE "\\b$tool\\b" README.md; then
        echo "check_docs: tool '$tool' ($tool_src) not mentioned" \
            "in README.md" >&2
        failures=$((failures + 1))
    fi
done

# --- 4. backticked file names vs tracked files -----------------------

# The first input is `git ls-files`: a tracked path and each of its
# trailing parts after a '/' resolve. The second is one "doc<TAB>name"
# line per backticked name outside fenced blocks; unresolved ones
# print.
dead=$(for md in docs/*.md README.md DESIGN.md; do
           awk '/^[[:space:]]*```/ { fence = !fence; next }
                !fence' "$md" |
               grep -oE '`[A-Za-z0-9_./-]+\.(h|cc|cpp|sh|py|inc)`' |
               tr -d '`' | sed "s|^|$md	|"
       done |
    awk -F '\t' 'NR == FNR {
                     ok[$0] = 1
                     p = $0
                     while ((i = index(p, "/")) > 0) {
                         p = substr(p, i + 1)
                         ok[p] = 1
                     }
                     next
                 }
                 !($2 in ok) { print $1 ": " $2 }' \
        <(git ls-files) -)
if [ -n "$dead" ]; then
    while IFS= read -r line; do
        echo "check_docs: $line names no tracked file" >&2
        failures=$((failures + 1))
    done <<EOF
$dead
EOF
fi

if [ "$failures" -ne 0 ]; then
    echo "check_docs: $failures problem(s)" >&2
    exit 1
fi
echo "check_docs: links and anchors valid, API surface, tools and file names documented"
exit 0
