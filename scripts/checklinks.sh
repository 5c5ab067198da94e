#!/usr/bin/env sh
# checklinks.sh — verify that every intra-repo markdown link in
# README.md, EXPERIMENTS.md, DESIGN.md and docs/*.md points at a file
# that exists, and that every `cmd/<name>` or `./cmd/<name>` they mention
# names a command directory that exists.
#
# External links (http/https/mailto) and pure anchors (#section) are
# skipped; relative targets are resolved against the linking file's
# directory with any #fragment stripped. Command mentions are resolved
# against the repo root, so a deleted or renamed command cannot linger
# in a `go run` line. CI runs this in the docs job so a renamed file or
# a typoed path fails the build instead of shipping a dead link.
#
#   ./scripts/checklinks.sh
set -eu

cd "$(dirname "$0")/.."

python3 - README.md EXPERIMENTS.md DESIGN.md docs/*.md <<'EOF'
import os, re, sys

# Inline markdown links: [text](target). Reference-style definitions
# ([name]: target) are rare here and intentionally out of scope.
LINK = re.compile(r"\]\(([^)\s]+)\)")
# Command mentions: cmd/<name> or ./cmd/<name>, not part of a longer
# path such as internal/cmd/<name>.
CMD = re.compile(r"(?<![\w/.])(?:\./)?cmd/([\w-]+)")

bad = 0
for path in sys.argv[1:]:
    base = os.path.dirname(path)
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            for target in LINK.findall(line):
                if target.startswith(("http://", "https://", "mailto:", "#")):
                    continue
                rel = target.split("#", 1)[0]
                if not rel:
                    continue
                resolved = os.path.normpath(os.path.join(base, rel))
                if not os.path.exists(resolved):
                    print(f"{path}:{lineno}: broken link {target} -> {resolved}", file=sys.stderr)
                    bad += 1
            for name in CMD.findall(line):
                if not os.path.isdir(os.path.join("cmd", name)):
                    print(f"{path}:{lineno}: cmd/{name} does not exist", file=sys.stderr)
                    bad += 1
if bad:
    print(f"checklinks: {bad} broken link(s) or command reference(s)", file=sys.stderr)
    sys.exit(1)
print("checklinks: all intra-repo markdown links and cmd/ references resolve")
EOF
