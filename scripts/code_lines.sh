#!/usr/bin/env bash
# Code lines per Rust file: lines before the first top-level `#[cfg(test)]`,
# leaving out blank lines and `//` comment lines (doc comments included).
# Prints one count per file, in argument order, then the total.
#
# Usage: scripts/code_lines.sh FILE...
set -euo pipefail
awk 'FNR == 1 { files[++k] = FILENAME; done = 0 }
     /^#\[cfg\(test\)\]/ { done = 1 }
     !done && !/^[[:space:]]*(\/\/|$)/ { n[FILENAME]++; total++ }
     END { for (i = 1; i <= k; i++) printf "%6d %s\n", n[files[i]], files[i]
           printf "%6d total\n", total }' "$@"
