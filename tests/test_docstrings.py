"""Docstring-coverage gate on the public serving/index surface and the
scoring pipeline (core, inference, flow, consolidate).

CI's docs job runs ``tools/docstring_coverage.py --fail-under 95`` over
exactly :data:`GATED`, and the real ``interrogate --fail-under 80`` over
the serving/index surface that ``[tool.interrogate].paths`` in
``pyproject.toml`` lists; this in-tree twin (stdlib only) keeps the bar
enforced wherever the suite runs, and checks the three lists agree.
"""

import re
import shlex
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

from docstring_coverage import check, inspect_file  # noqa: E402

GATED = [
    str(REPO_ROOT / "src" / "repro" / "service"),
    str(REPO_ROOT / "src" / "repro" / "index"),
    str(REPO_ROOT / "src" / "repro" / "exec"),
    str(REPO_ROOT / "src" / "repro" / "serve"),
    str(REPO_ROOT / "src" / "repro" / "cli.py"),
    # The scoring pipeline: features, inference, flow, consolidation.
    str(REPO_ROOT / "src" / "repro" / "core"),
    str(REPO_ROOT / "src" / "repro" / "inference"),
    str(REPO_ROOT / "src" / "repro" / "flow"),
    str(REPO_ROOT / "src" / "repro" / "consolidate"),
]


class TestDocstringGate:
    def test_public_surface_is_documented(self):
        coverage, missing = check(GATED)
        assert coverage >= 95.0, (
            "public docstring coverage regressed below the gate; "
            f"missing: {missing}"
        )

    def test_path_lists_match_ci(self):
        """One path list per gate: ``GATED`` is CI's docstring_coverage.py
        step, ``[tool.interrogate].paths`` its interrogate step."""
        ci = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text()

        def ci_paths(tool):
            line = next(l for l in ci.splitlines() if tool in l)
            return [a for a in shlex.split(line) if a.startswith("src/")]

        gated = [str(REPO_ROOT / p) for p in ci_paths("docstring_coverage.py")]
        assert gated == GATED
        # tomllib is 3.11+; the suite also runs on 3.9.
        pyproject = (REPO_ROOT / "pyproject.toml").read_text()
        section = pyproject.split("[tool.interrogate]")[1].split("\n[")[0]
        listed = re.search(r"^paths = \[(.*?)\]", section, re.M | re.S)
        interrogate = re.findall(r'"([^"]+)"', listed.group(1))
        assert ci_paths("interrogate -vv") == interrogate

    def test_key_symbols_have_examples(self):
        """The headline APIs carry example-bearing docstrings (`::` blocks)."""
        import repro.cli
        import repro.exec
        import repro.serve
        from repro.exec import ExecutionContext, ExecutionPlan
        from repro.index import ShardedCorpus, load_corpus
        from repro.index.protocol import CorpusProtocol
        from repro.serve import ReproServer, ServeClient, ServeConfig
        from repro.service import EngineConfig, WWTService

        for obj in (WWTService, EngineConfig, ShardedCorpus,
                    CorpusProtocol, load_corpus, repro.cli,
                    repro.exec, ExecutionContext, ExecutionPlan,
                    repro.serve, ReproServer, ServeConfig, ServeClient):
            doc = obj.__doc__ or ""
            assert "::" in doc, f"{obj!r} docstring has no example block"

    def test_concordance_covers_every_package(self):
        """docs/concordance.md must name every package under src/repro/."""
        concordance = (REPO_ROOT / "docs" / "concordance.md").read_text(
            encoding="utf-8"
        )
        packages = sorted(
            child.name
            for child in (REPO_ROOT / "src" / "repro").iterdir()
            if child.is_dir() and (child / "__init__.py").is_file()
        )
        assert packages  # the repo layout moved? fix this test's path
        missing = [p for p in packages if f"repro.{p}" not in concordance]
        assert not missing, (
            f"docs/concordance.md does not mention packages: {missing}"
        )

    def test_checker_flags_missing_docstrings(self, tmp_path):
        source = tmp_path / "mod.py"
        source.write_text(
            '"""Module doc."""\n'
            "def documented():\n"
            '    """Doc."""\n'
            "def undocumented():\n"
            "    pass\n"
            "def _private():\n"
            "    pass\n"
        )
        documented, total, missing = inspect_file(source)
        assert (documented, total) == (2, 3)
        assert missing == ["undocumented"]
