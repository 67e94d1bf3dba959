"""Docs link checker: every relative link in the Markdown docs must resolve.

Scans ``README.md``, ``docs/*.md`` and the other top-level Markdown files
for inline links/images (``[text](target)``) and validates the relative
ones against the working tree (anchors are stripped; external ``http(s)``/
``mailto`` targets are skipped — CI must not depend on the network).

Most backticked path mentions (e.g. README's layout table) are prose,
not links, and stay unchecked.  The exception is a cited bench receipt:
in ``README.md`` and ``docs/*.md``, every backticked ``BENCH_<name>.json``
or ``benchmarks/<path>.py`` (globs such as ``BENCH_*.json`` aside) must
exist, so a number never cites a deleted script or report.
``CHANGES.md`` and ``ROADMAP.md`` are history and may name files that
are gone.

Run:  python tools/check_docs.py            # exit 1 on any broken link
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Inline Markdown links/images, excluding code occurrences (handled by
#: stripping fences and inline code spans below).
_LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
_FENCE_RE = re.compile(r"```.*?```", re.DOTALL)
_EXTERNAL = ("http://", "https://", "mailto:")
#: Inline code spans, and the bench receipts a span may cite (globs
#: contain ``*`` and never match).
_CODE_RE = re.compile(r"`([^`\n]+)`")
_RECEIPT_RE = re.compile(
    r"(?<![\w/.-])(benchmarks/[\w./-]+\.py|BENCH_[\w-]+\.json)"
)


def iter_doc_files() -> list[Path]:
    files = sorted(ROOT.glob("*.md")) + sorted((ROOT / "docs").glob("*.md"))
    return [f for f in files if f.is_file()]


def cites_receipts(doc: Path) -> bool:
    return doc.name == "README.md" or doc.parent.name == "docs"


def _unfenced(doc: Path) -> str:
    return _FENCE_RE.sub("", doc.read_text(encoding="utf-8"))


def _links(text: str) -> list[str]:
    return _LINK_RE.findall(_CODE_RE.sub("", text))


def check_file(doc: Path) -> list[str]:
    problems: list[str] = []
    text = _unfenced(doc)
    if cites_receipts(doc):
        for span in _CODE_RE.finditer(text):
            for cited in _RECEIPT_RE.findall(span.group(1)):
                if not (ROOT / cited).exists():
                    problems.append(
                        f"{doc.relative_to(ROOT)}: cites missing {cited}"
                    )
    for target in _links(text):
        if target.startswith(_EXTERNAL) or target.startswith("#"):
            continue
        path = target.split("#", 1)[0]
        if not path:
            continue
        resolved = (doc.parent / path).resolve()
        if not resolved.exists():
            problems.append(f"{doc.relative_to(ROOT)}: broken link -> {target}")
    return problems


def main() -> int:
    docs = iter_doc_files()
    problems: list[str] = []
    for doc in docs:
        problems.extend(check_file(doc))
    if problems:
        for problem in problems:
            print(f"::error::{problem}")
        return 1
    total = sum(len(_links(_unfenced(doc))) for doc in docs)
    print(f"checked {len(docs)} Markdown files, {total} links: all resolve")
    return 0


if __name__ == "__main__":
    sys.exit(main())
