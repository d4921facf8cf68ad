"""Documentation integrity: the offline "docs build" run as a test.

The repository has no site generator dependency, so the docs build is
``docs/check_links.py`` — these tests execute it (plus a few structural
pins) so CI fails on a broken cross-reference the same way it fails on a
broken import.
"""

import importlib.util
import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
DOCS = REPO_ROOT / "docs"


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_links", DOCS / "check_links.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_all_markdown_links_resolve():
    checker = _load_checker()
    problems = checker.check_links()
    assert not problems, "\n".join(
        f"{doc.relative_to(REPO_ROOT)}: {link!r} ({reason})"
        for doc, link, reason in problems
    )


def test_checker_catches_broken_links(tmp_path, monkeypatch):
    """The checker is load-bearing: prove it actually flags breakage."""
    checker = _load_checker()
    docs = tmp_path / "docs"
    docs.mkdir()
    (tmp_path / "README.md").write_text(
        "[missing](docs/nope.md) and [bad anchor](docs/real.md#absent)\n"
    )
    (docs / "real.md").write_text("# Only Heading\n")
    monkeypatch.setattr(checker, "REPO_ROOT", tmp_path)
    reasons = sorted(reason for _, _, reason in checker.check_links())
    assert reasons == ["no heading for #absent", "target does not exist"]


def test_docs_tree_is_complete():
    for name in ("architecture.md", "payload-format.md", "performance.md"):
        assert (DOCS / name).is_file(), f"docs/{name} missing"
    readme = (REPO_ROOT / "README.md").read_text()
    for name in ("docs/architecture.md", "docs/payload-format.md"):
        assert name in readme, f"README does not link {name}"


def test_code_references_into_docs_resolve():
    """Code names Markdown files (``docs/architecture.md``, ``README.md``);
    each must exist next to the file, at the repo root or under docs/."""
    pattern = re.compile(r"(?<![\w./-])((?:[\w-]+/)*[\w-]+\.md)\b")
    stale = []
    for top in ("src", "examples", "benchmarks"):
        for path in (REPO_ROOT / top).rglob("*.py"):
            for name in set(pattern.findall(path.read_text())):
                if not any(
                    (base / name).is_file() for base in (path.parent, REPO_ROOT, DOCS)
                ):
                    stale.append(f"{path.relative_to(REPO_ROOT)}: {name}")
    assert not stale, "stale Markdown references:\n" + "\n".join(sorted(stale))
