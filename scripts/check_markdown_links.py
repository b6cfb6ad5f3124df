#!/usr/bin/env python3
"""Fail on broken intra-repo markdown links — paths AND anchors.

Scans every tracked *.md file for inline links and images
(``[text](target)``), resolves relative targets against the file's
directory, and reports targets that do not exist. External schemes
(http/https/mailto) are skipped. Anchor parts are verified too: for a
``#fragment`` (in-page) or ``path.md#fragment`` target, the fragment must
match a heading in the target document, slugified the way GitHub does it
(lowercase; spaces to dashes; punctuation dropped; duplicate slugs get
-1, -2, ... suffixes).

A tracked file deleted from the working tree (not yet staged) is reported
and skipped; a link to it still fails as broken.

Usage: scripts/check_markdown_links.py [repo_root]
Exit status: 0 when all links resolve, 1 otherwise.
"""

import re
import subprocess
import sys
from pathlib import Path

LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*?)\s*#*\s*$")
SKIP_SCHEMES = ("http://", "https://", "mailto:", "ftp://")


def tracked_markdown_files(root: Path) -> tuple[list[Path], list[Path]]:
    """The tracked markdown files present in the working tree, and the
    tracked ones missing from it."""
    out = subprocess.run(
        ["git", "ls-files", "*.md", "**/*.md"],
        cwd=root, capture_output=True, text=True, check=True,
    ).stdout
    paths = [root / line for line in out.splitlines() if line]
    return ([p for p in paths if p.is_file()],
            [p for p in paths if not p.is_file()])


def strip_code_blocks(text: str) -> str:
    # Fenced code blocks and inline code spans routinely contain things
    # like [i](j) that are array indexing, not links.
    text = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
    return re.sub(r"`[^`\n]*`", "", text)


def github_slug(heading: str) -> str:
    """GitHub's anchor slug for a heading line's text: markdown markup
    dropped, lowercased, punctuation removed, spaces dashed."""
    text = re.sub(r"`([^`]*)`", r"\1", heading)          # code spans
    text = re.sub(r"!?\[([^\]]*)\]\([^)]*\)", r"\1", text)  # links
    text = re.sub(r"[*_~]", "", text)                    # emphasis
    text = text.strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def heading_anchors(md_path: Path, cache: dict) -> set:
    """All anchor slugs a document exposes (with GitHub's -N dedup), plus
    explicit <a name=...>/<a id=...> anchors."""
    if md_path in cache:
        return cache[md_path]
    anchors = set()
    seen: dict = {}
    in_fence = False
    text = md_path.read_text(encoding="utf-8")
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        m = HEADING_RE.match(line)
        if not m:
            continue
        slug = github_slug(m.group(1))
        n = seen.get(slug, 0)
        seen[slug] = n + 1
        anchors.add(slug if n == 0 else f"{slug}-{n}")
    for m in re.finditer(r"<a\s+(?:name|id)=[\"']([^\"']+)[\"']", text):
        anchors.add(m.group(1))
    cache[md_path] = anchors
    return anchors


def main() -> int:
    root = (Path(sys.argv[1]) if len(sys.argv) > 1 else Path.cwd()).resolve()
    failures = []
    files, missing = tracked_markdown_files(root)
    for md in missing:
        print(f"{md.relative_to(root)}: tracked but missing from the working "
              f"tree; skipped")
    anchor_cache: dict = {}
    checked = 0
    for md in files:
        text = strip_code_blocks(md.read_text(encoding="utf-8"))
        for match in LINK_RE.finditer(text):
            target = match.group(1)
            if target.startswith(SKIP_SCHEMES):
                continue
            path_part, _, fragment = target.partition("#")
            if path_part:
                if path_part.startswith("/"):
                    # GitHub-style root-absolute link: relative to the
                    # repo, not the filesystem.
                    resolved = (root / path_part.lstrip("/")).resolve()
                else:
                    resolved = (md.parent / path_part).resolve()
                checked += 1
                if not resolved.exists():
                    failures.append(
                        f"{md.relative_to(root)}: broken link -> {target}")
                    continue
            else:
                resolved = md  # pure in-page anchor
            if fragment:
                if resolved.suffix.lower() not in (".md", ".markdown"):
                    continue  # e.g. source-file line anchors (#L10)
                checked += 1
                if fragment.lower() not in heading_anchors(resolved,
                                                           anchor_cache):
                    failures.append(
                        f"{md.relative_to(root)}: broken anchor -> {target}"
                        f" (no heading slugs to '{fragment.lower()}' in "
                        f"{resolved.relative_to(root)})")
    for failure in failures:
        print(failure, file=sys.stderr)
    print(f"checked {checked} intra-repo links/anchors in {len(files)} "
          f"files: {len(failures)} broken")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
