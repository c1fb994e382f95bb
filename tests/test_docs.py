"""Documentation consistency tests.

``docs/cli.md`` is verified against the actual argparse configuration (every
sub-command's option table lists exactly that command's long options, and
no stale section remains), the ``docs/observability.md`` metric table
against the metric names registered under ``src/repro``, and the
repository-wide checks of ``tools/docs_check.py`` — module docstrings,
README/docs existence, Markdown link integrity — run as part of the suite.
"""

import argparse
import importlib.util
import re
from pathlib import Path

import pytest

from repro.system.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent


def _load_docs_check():
    spec = importlib.util.spec_from_file_location("docs_check", ROOT / "tools" / "docs_check.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _subcommands():
    parser = build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action


def _section(text: str, heading: str) -> str:
    """The body of one ``## heading`` section of a Markdown page."""
    return text.split(heading, 1)[1].split("\n## ", 1)[0]


def _table_options(section: str) -> set:
    """Long options named in the first cell of a section's table rows."""
    options = set()
    for line in section.splitlines():
        if line.startswith("| "):
            first_cell = line.split("|")[1]
            options.update(re.findall(r"`(--[a-z0-9-]+)`", first_cell))
    return options


@pytest.fixture(scope="module")
def cli_doc_text():
    path = ROOT / "docs" / "cli.md"
    assert path.exists(), "docs/cli.md is missing"
    return path.read_text()


class TestCliDocs:
    def test_every_command_has_a_section(self, cli_doc_text):
        for name in _subcommands().choices:
            assert f"## `{name}`" in cli_doc_text, f"docs/cli.md lacks a section for {name!r}"

    def test_every_long_option_is_documented(self, cli_doc_text):
        """Each command's option table lists exactly that command's long
        options (``--help`` aside): none missing, none stale — a flag still
        present on another command does not count."""
        out_of_sync = {}
        for name, sub in _subcommands().choices.items():
            real = {option for action in sub._actions for option in action.option_strings
                    if option.startswith("--") and option != "--help"}
            documented = _table_options(_section(cli_doc_text, f"## `{name}`"))
            if documented != real:
                out_of_sync[name] = {"stale": sorted(documented - real),
                                     "missing": sorted(real - documented)}
        assert not out_of_sync, f"docs/cli.md option tables out of sync: {out_of_sync}"

    def test_no_stale_command_sections(self, cli_doc_text):
        documented = set(re.findall(r"^## `([^`]+)`", cli_doc_text, flags=re.MULTILINE))
        real = set(_subcommands().choices)
        assert documented == real, (
            f"docs/cli.md out of sync: stale {sorted(documented - real)}, "
            f"missing {sorted(real - documented)}"
        )

    def test_command_help_strings_reflected(self):
        """Every sub-command registered with the parser carries a help line."""
        for pseudo in _subcommands()._choices_actions:
            assert pseudo.help, f"sub-command {pseudo.dest!r} has no --help summary"

    def test_every_command_has_an_example(self, cli_doc_text):
        for name in _subcommands().choices:
            section = cli_doc_text.split(f"## `{name}`", 1)[1].split("\n## ", 1)[0]
            assert "```bash" in section, f"docs/cli.md section for {name!r} has no example"


class TestObservabilityDocs:
    def test_metric_table_lists_every_registered_metric(self):
        table = set(re.findall(r"^\| `(repro_[a-z0-9_]+)`",
                               (ROOT / "docs" / "observability.md").read_text(),
                               flags=re.MULTILINE))
        registration = re.compile(
            r"(?:Counter|Gauge|Histogram|counter|gauge|histogram)\(\s*\"(repro_[a-z0-9_]+)\"")
        registered = {name for path in (ROOT / "src" / "repro").rglob("*.py")
                      for name in registration.findall(path.read_text())}
        assert table == registered, (
            f"docs/observability.md metric table: stale {sorted(table - registered)}, "
            f"missing {sorted(registered - table)}")


class TestRepositoryDocs:
    def test_docs_check_passes(self):
        problems = _load_docs_check().run_checks()
        assert problems == [], "docs-check failures:\n" + "\n".join(problems)

    def test_readme_names_the_tier1_command(self):
        readme = (ROOT / "README.md").read_text()
        assert "python -m pytest -x -q" in readme
        assert "PYTHONPATH=src" in readme

    def test_readme_documents_every_subpackage(self):
        readme = (ROOT / "README.md").read_text()
        for package in ("repro.nn", "repro.ml", "repro.detectors", "repro.data",
                        "repro.selectors", "repro.core", "repro.eval",
                        "repro.system", "repro.serving", "repro.streaming"):
            assert package in readme, f"README.md does not mention {package}"

    def test_makefile_targets_exist(self):
        makefile = (ROOT / "Makefile").read_text()
        for target in ("test:", "bench-smoke:", "docs-check:"):
            assert re.search(rf"^{re.escape(target)}", makefile, flags=re.MULTILINE), \
                f"Makefile lacks target {target[:-1]!r}"
