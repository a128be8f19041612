#!/usr/bin/env python3
"""Fail on dead relative links in the repo's markdown docs and code comments.

Scans README.md and docs/*.md for inline markdown links and checks that
every relative target (optionally with a #fragment) exists on disk.
Absolute URLs (http/https/mailto) are out of scope — CI must not depend
on the network. Heading fragments are validated against the target
file's headings using GitHub's anchor rules (lowercase, strip
punctuation, spaces to dashes).

Also scans the C++ comments under src/, bench/, tests/ and examples/ for
`*.md` file references (e.g. "see docs/kernels.md") and fails on any that
name a file existing neither under the repo root nor next to the source.

Usage: tools/check_docs_links.py [repo_root]   (exit 1 on any dead link)
"""

import os
import re
import sys

LINK_RE = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
SKIP_SCHEMES = ("http://", "https://", "mailto:", "ftp://")
COMMENT_RE = re.compile(r"//[^\n]*|/\*.*?\*/", re.DOTALL)
MD_REF_RE = re.compile(r"(?<![\w./:-])([\w./-]*\w\.md)\b")
CODE_DIRS = ("src", "bench", "tests", "examples")
CODE_EXTS = (".h", ".hpp", ".cc", ".cpp")


def anchor_of(heading: str) -> str:
    """GitHub-style anchor: lowercase, drop punctuation, spaces to dashes."""
    heading = re.sub(r"`([^`]*)`", r"\1", heading).strip().lower()
    heading = re.sub(r"[^\w\- ]", "", heading)
    return heading.replace(" ", "-")


def headings_in(path: str) -> set[str]:
    with open(path, encoding="utf-8") as f:
        return {anchor_of(m.group(1)) for m in HEADING_RE.finditer(f.read())}


def check_file(md_path: str, root: str) -> list[str]:
    errors = []
    with open(md_path, encoding="utf-8") as f:
        text = f.read()
    rel_md = os.path.relpath(md_path, root)
    for match in LINK_RE.finditer(text):
        target = match.group(1)
        if target.startswith(SKIP_SCHEMES):
            continue
        path_part, _, fragment = target.partition("#")
        if not path_part:  # same-file fragment
            dest = md_path
        else:
            dest = os.path.normpath(os.path.join(os.path.dirname(md_path), path_part))
            if not os.path.exists(dest):
                errors.append(f"{rel_md}: dead link -> {target}")
                continue
        if fragment and dest.endswith(".md"):
            if anchor_of(fragment) not in headings_in(dest):
                errors.append(f"{rel_md}: dead anchor -> {target}")
    return errors


def check_code_comments(root: str) -> tuple[list[str], int]:
    """Dead `*.md` references in C++ comments; returns (errors, files scanned)."""
    errors = []
    scanned = 0
    for top in CODE_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith(CODE_EXTS):
                    continue
                path = os.path.join(dirpath, name)
                scanned += 1
                with open(path, encoding="utf-8") as f:
                    text = f.read()
                rel = os.path.relpath(path, root)
                for comment in COMMENT_RE.finditer(text):
                    for ref in MD_REF_RE.finditer(comment.group(0)):
                        target = ref.group(1)
                        if os.path.exists(os.path.join(root, target)) or os.path.exists(
                            os.path.join(dirpath, target)
                        ):
                            continue
                        line = text.count("\n", 0, comment.start() + ref.start()) + 1
                        errors.append(f"{rel}:{line}: dead doc reference -> {target}")
    return errors, scanned


def main() -> int:
    root = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else ".")
    files = [os.path.join(root, "README.md")]
    docs = os.path.join(root, "docs")
    if os.path.isdir(docs):
        files += sorted(
            os.path.join(docs, f) for f in os.listdir(docs) if f.endswith(".md")
        )
    errors = []
    for md in files:
        if os.path.exists(md):
            errors += check_file(md, root)
    code_errors, scanned = check_code_comments(root)
    errors += code_errors
    for err in errors:
        print(err, file=sys.stderr)
    checked = ", ".join(os.path.relpath(f, root) for f in files)
    checked += f", comments in {scanned} source files under {'/, '.join(CODE_DIRS)}/"
    if errors:
        print(f"{len(errors)} dead link(s) across: {checked}", file=sys.stderr)
        return 1
    print(f"docs link check OK: {checked}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
