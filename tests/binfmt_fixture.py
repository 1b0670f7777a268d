"""The canonical frozen-fixture corpus for on-disk format tests.

``tests/fixtures/binfmt_v3`` is this corpus persisted in the version-3
binary layout.  The committed bytes are golden: ``tests/test_binfmt.py``
rebuilds the corpus from :func:`fixture_tables` and byte-compares the
re-encoded snapshots against the committed files, so any accidental
drift in the layout (or in the encoder's determinism) fails the suite
rather than silently orphaning old corpora.

Regenerate the v3 fixture (ONLY after an intentional, documented format
change)::

    PYTHONPATH=src python -m tests.binfmt_fixture
"""

from pathlib import Path
from typing import List

from repro.index.builder import build_corpus_index
from repro.tables.table import ContextSnippet, WebTable

FIXTURES = Path(__file__).resolve().parent / "fixtures"
V3_DIR = FIXTURES / "binfmt_v3"

#: (table_id, page_title, context topic, header, rows) — ids chosen so the
#: two-shard CRC32 partition puts tables in both shards.
_SPECS = [
    (
        "fx_currency_0", "Currencies of the World", "world currencies",
        ["Country", "Currency"],
        [["France", "Euro"], ["Japan", "Yen"], ["India", "Rupee"]],
    ),
    (
        "fx_capital_1", "National Capitals", "capital cities by country",
        ["Country", "Capital"],
        [["France", "Paris"], ["Japan", "Tokyo"], ["Peru", "Lima"]],
    ),
    (
        "fx_dogs_2", "Dog Breeds", "popular dog breeds",
        ["Breed", "Origin"],
        [["Beagle", "England"], ["Akita", "Japan"]],
    ),
    (
        "fx_towers_3", "Tallest Buildings", "tallest buildings by height",
        ["Building", "Height", "City"],
        [["Burj Khalifa", "828", "Dubai"], ["Taipei 101", "508", "Taipei"]],
    ),
    (
        "fx_oscars_4", "Academy Awards", "academy award winners",
        ["Year", "Best Picture"],
        [["2010", "The King's Speech"], ["2011", "The Artist"]],
    ),
]


def fixture_tables() -> List[WebTable]:
    """The five deterministic tables behind the committed fixture."""
    return [
        WebTable.from_rows(
            rows,
            header=header,
            table_id=table_id,
            context=[ContextSnippet(topic)],
            page_title=title,
            url=f"http://fixture.example/{table_id}",
        )
        for table_id, title, topic, header, rows in _SPECS
    ]


def regenerate() -> None:
    """Rewrite the v3 fixture directory from :func:`fixture_tables`."""
    build_corpus_index(fixture_tables(), num_shards=2, save=V3_DIR)


if __name__ == "__main__":
    regenerate()
    print(f"v3 fixture rewritten under {V3_DIR}")
