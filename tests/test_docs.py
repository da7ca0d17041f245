"""Docs-site integrity tests (no mkdocs required).

CI builds the site with ``mkdocs build --strict``, but these checks run in
the tier-1 suite so documentation rot is caught on every local test run:
the nav must reference files that exist, internal links must resolve,
every ``::: module`` autodoc directive must import, and the operations
page must document every public ``WorkflowConfig`` knob.
"""

import dataclasses
import importlib
import re
from pathlib import Path

import pytest
import yaml

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS_DIR = REPO_ROOT / "docs"
MKDOCS_YML = REPO_ROOT / "mkdocs.yml"


class _MkdocsLoader(yaml.SafeLoader):
    """SafeLoader that tolerates mkdocs' ``!!python/name:`` extension tags."""


_MkdocsLoader.add_multi_constructor(
    "tag:yaml.org,2002:python/name:",
    lambda loader, suffix, node: f"python/name:{suffix}",
)


def load_mkdocs_config():
    with open(MKDOCS_YML, "r", encoding="utf-8") as handle:
        return yaml.load(handle, Loader=_MkdocsLoader)


def nav_files(entries):
    """Flatten the mkdocs nav tree into page paths."""
    for entry in entries:
        if isinstance(entry, str):
            yield entry
        elif isinstance(entry, dict):
            for value in entry.values():
                if isinstance(value, str):
                    yield value
                else:
                    yield from nav_files(value)


def doc_pages():
    return sorted(DOCS_DIR.rglob("*.md"))


class TestMkdocsConfig:
    def test_config_parses_and_has_the_essentials(self):
        config = load_mkdocs_config()
        assert config["site_name"]
        assert config["theme"]["name"] == "material"
        plugin_names = [
            plugin if isinstance(plugin, str) else next(iter(plugin))
            for plugin in config["plugins"]
        ]
        assert "search" in plugin_names and "mkdocstrings" in plugin_names

    def test_every_nav_entry_exists(self):
        config = load_mkdocs_config()
        for page in nav_files(config["nav"]):
            assert (DOCS_DIR / page).is_file(), f"nav references missing page {page}"

    def test_every_doc_page_is_in_the_nav(self):
        config = load_mkdocs_config()
        in_nav = set(nav_files(config["nav"]))
        on_disk = {str(page.relative_to(DOCS_DIR)) for page in doc_pages()}
        assert on_disk == in_nav


class TestInternalLinks:
    LINK_PATTERN = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")

    @pytest.mark.parametrize("page", doc_pages(), ids=lambda p: str(p.relative_to(DOCS_DIR)))
    def test_relative_links_resolve(self, page):
        text = page.read_text(encoding="utf-8")
        for target in self.LINK_PATTERN.findall(text):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            path_part = target.split("#", 1)[0]
            if not path_part:
                continue
            resolved = (page.parent / path_part).resolve()
            assert resolved.exists(), f"{page.name} links to missing {target}"


class TestAutodocDirectives:
    DIRECTIVE_PATTERN = re.compile(r"^:::\s+([\w.]+)", re.MULTILINE)

    def test_every_directive_imports(self):
        for page in doc_pages():
            for dotted in self.DIRECTIVE_PATTERN.findall(page.read_text(encoding="utf-8")):
                module_path, attribute = dotted, None
                try:
                    importlib.import_module(module_path)
                    continue
                except ImportError:
                    module_path, _, attribute = dotted.rpartition(".")
                module = importlib.import_module(module_path)
                assert hasattr(module, attribute), (
                    f"{page.name}: ::: {dotted} does not resolve"
                )


class TestKnobCoverage:
    def test_operations_page_documents_every_workflow_config_knob(self):
        from repro.core.config import WorkflowConfig

        operations = (DOCS_DIR / "operations.md").read_text(encoding="utf-8")
        missing = [
            field.name
            for field in dataclasses.fields(WorkflowConfig)
            if f"`{field.name}`" not in operations
        ]
        assert not missing, f"operations.md does not document: {missing}"

    def test_every_knob_row_is_a_workflow_config_field_with_a_real_caller(self):
        """The reverse check: a row left behind by a deleted knob fails."""
        from repro.core.config import WorkflowConfig

        fields = {field.name for field in dataclasses.fields(WorkflowConfig)}
        rows = []
        header = None
        for line in (DOCS_DIR / "operations.md").read_text(encoding="utf-8").splitlines():
            if not line.startswith("|"):
                header = None
                continue
            cells = [cell.strip() for cell in line.strip("|").split("|")]
            if header is None:
                header = cells
            elif header[0] == "Knob" and not set(cells[0]) <= {"-", " "}:
                rows.append(dict(zip(header, cells)))
        names = [name for row in rows for name in re.findall(r"`([^`]+)`", row["Knob"])]
        assert sorted(names) == sorted(fields)
        for row in rows:
            assert row["Set by"] and "tests only" not in row["Set by"], row["Knob"]

    def test_streaming_public_api_is_documented(self):
        import repro.streaming as streaming

        corpus = "\n".join(page.read_text(encoding="utf-8") for page in doc_pages())
        missing = [name for name in streaming.__all__ if name not in corpus]
        assert not missing, f"docs never mention: {missing}"

    def test_cli_commands_are_documented(self):
        from repro.cli import build_parser

        corpus = "\n".join(page.read_text(encoding="utf-8") for page in doc_pages())
        subparsers = next(
            action
            for action in build_parser()._actions
            if isinstance(action, __import__("argparse")._SubParsersAction)
        )
        missing = [name for name in subparsers.choices if name not in corpus]
        assert not missing, f"docs never mention CLI commands: {missing}"


class TestStoreSchema:
    def test_storage_page_lists_every_table_and_column_of_a_fresh_store(self, tmp_path):
        """``docs/storage.md``'s "Tables" section names every table of a new
        ``SqliteStore`` and each table's columns, in order, with their
        declared types: a column changed without the doc fails here."""
        from repro.storage import SqliteStore

        text = (DOCS_DIR / "storage.md").read_text(encoding="utf-8")
        documented, table = {}, None
        for line in text[text.index("\n## Tables\n"):].splitlines():
            heading = re.match(r"### `(\w+)`$", line)
            if heading:
                table = documented.setdefault(heading.group(1), [])
            cells = [cell.strip() for cell in line.strip("|").split("|")]
            if table is not None and line.startswith("| `"):
                table.append((cells[0].strip("`"), cells[1]))
        store = SqliteStore(tmp_path / "store.sqlite")
        try:
            actual = {
                name: [(column, kind) for _, column, kind, *_ in store.query(
                    f"PRAGMA table_info({name})"
                )]
                for name, in store.query(
                    "SELECT name FROM sqlite_master WHERE type = 'table' "
                    "AND name NOT LIKE 'sqlite_%'"
                )
            }
        finally:
            store.close()
        assert documented == actual
