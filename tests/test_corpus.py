"""Tests for the synthetic corpus generator and ground truth."""

import random


from repro.corpus.domains import REGISTRY, build_registry
from repro.corpus.generator import CorpusConfig, generate_corpus
from repro.corpus.groundtruth import GroundTruth, TableProvenance, label_table
from repro.corpus.pages import render_page
from repro.html.parser import parse_html
from repro.tables.extractor import extract_tables


class TestRegistry:
    def test_all_workload_domains_exist(self):
        from repro.query.workload import WORKLOAD

        for wq in WORKLOAD:
            if wq.domain_key is not None:
                assert wq.domain_key in REGISTRY, wq.query_id
                domain = REGISTRY[wq.domain_key]
                for attr in wq.attr_keys:
                    domain.attribute_index(attr)  # raises if missing

    def test_rows_match_attribute_width(self):
        for domain in REGISTRY.values():
            width = len(domain.attributes)
            for row in domain.rows:
                assert len(row) == width, domain.key

    def test_subject_is_first_attribute(self):
        from repro.query.workload import WORKLOAD

        for wq in WORKLOAD:
            if wq.domain_key is None:
                continue
            domain = REGISTRY[wq.domain_key]
            assert domain.attribute_index(wq.attr_keys[0]) == 0, wq.query_id

    def test_registry_deterministic(self):
        a = build_registry(seed=7)
        b = build_registry(seed=7)
        assert set(a) == set(b)
        assert a["explorers"].rows == b["explorers"].rows

    def test_distractors_flagged(self):
        assert REGISTRY["d_forest_reserves"].is_distractor
        assert not REGISTRY["explorers"].is_distractor


class TestRenderPage:
    def test_single_extractable_table(self):
        rng = random.Random(5)
        for _ in range(30):
            page = render_page(REGISTRY["explorers"], 0, rng)
            root = parse_html(page.html)
            tables = extract_tables(root)
            data = [t for t in tables if t.num_cols == len(page.column_attrs)]
            assert len(data) == 1

    def test_column_attrs_align_with_extraction(self):
        rng = random.Random(9)
        page = render_page(REGISTRY["countries"], 0, rng)
        root = parse_html(page.html)
        [table] = [
            t for t in extract_tables(root)
            if t.num_cols == len(page.column_attrs)
        ]
        domain = REGISTRY["countries"]
        # Spot-check: the subject column holds country names from the
        # relation rows.
        subject_pos = page.column_attrs.index("name")
        names = {r[0] for r in domain.rows}
        values = set(table.column_values(subject_pos))
        assert values and values <= names

    def test_headerless_pages_occur(self):
        rng = random.Random(1)
        outcomes = {
            render_page(REGISTRY["countries"], i, rng).num_header_rows_written
            for i in range(60)
        }
        assert 0 in outcomes and 1 in outcomes


class TestGenerateCorpus:
    def test_small_scale_generation(self):
        syn = generate_corpus(CorpusConfig(seed=3, scale=0.1))
        assert syn.num_tables == len(syn.provenance)
        assert syn.num_tables > 50
        # Index and store agree.
        assert len(syn.corpus.ids()) == syn.num_tables

    def test_header_histogram_roughly_matches_paper(self):
        syn = generate_corpus(CorpusConfig(seed=3, scale=0.5))
        hist = syn.census.header_row_histogram
        total = sum(hist.values())
        frac_none = hist.get(0, 0) / total
        frac_one = hist.get(1, 0) / total
        # Paper: 18% none, 60% one, 17% two, 5% more.
        assert 0.08 <= frac_none <= 0.30
        assert 0.45 <= frac_one <= 0.80

    def test_domain_restriction(self):
        syn = generate_corpus(
            CorpusConfig(seed=3, scale=1.0, domains=("explorers",))
        )
        assert all(
            p.domain_key == "explorers" for p in syn.provenance.values()
        )

    def test_deterministic(self):
        a = generate_corpus(CorpusConfig(seed=5, scale=0.1))
        b = generate_corpus(CorpusConfig(seed=5, scale=0.1))
        assert a.corpus.ids() == b.corpus.ids()
        ta = a.corpus.get_table(a.corpus.ids()[0])
        tb = b.corpus.get_table(b.corpus.ids()[0])
        assert ta.to_dict() == tb.to_dict()


class TestGroundTruthLabeling:
    def prov(self, attrs, domain="countries", distractor=False):
        return TableProvenance(
            table_id="t", domain_key=domain, column_attrs=tuple(attrs),
            is_distractor=distractor,
        )

    def test_full_match(self):
        label = label_table(self.prov(["name", "currency"]), "countries",
                            ["name", "currency"])
        assert label.relevant
        assert label.mapping == {0: 1, 1: 2}

    def test_permuted_columns(self):
        label = label_table(self.prov(["currency", "gdp", "name"]), "countries",
                            ["name", "currency"])
        assert label.relevant
        assert label.mapping == {2: 1, 0: 2}

    def test_missing_subject_irrelevant(self):
        label = label_table(self.prov(["currency", "gdp"]), "countries",
                            ["name", "currency"])
        assert not label.relevant

    def test_min_match_requires_two_columns(self):
        label = label_table(self.prov(["name", "gdp"]), "countries",
                            ["name", "currency"])
        assert not label.relevant  # only 1 of 2 query columns present

    def test_single_column_query_needs_subject_only(self):
        label = label_table(self.prov(["name", "gdp"]), "countries", ["name"])
        assert label.relevant
        assert label.mapping == {0: 1}

    def test_distractor_always_irrelevant(self):
        label = label_table(
            self.prov(["name", "currency"], distractor=True),
            "countries", ["name", "currency"],
        )
        assert not label.relevant

    def test_wrong_domain_irrelevant(self):
        label = label_table(self.prov(["name"]), "dogs", ["name"])
        assert not label.relevant

    def test_none_domain_all_irrelevant(self):
        label = label_table(self.prov(["name"]), None, [])
        assert not label.relevant

    def test_label_of_names(self):
        label = label_table(self.prov(["name", "currency"]), "countries",
                            ["name", "currency"])
        assert label.label_of(0, 2) == "1"
        assert label.label_of(1, 2) == "2"
        irrelevant = label_table(self.prov(["x"]), "countries", ["name"])
        assert irrelevant.label_of(0, 1) == "nr"

    def test_groundtruth_container(self):
        truth = GroundTruth()
        prov = {
            "t1": self.prov(["name", "currency"]),
            "t2": self.prov(["gdp"], domain="other"),
        }
        truth = GroundTruth.from_provenance(
            prov, {"q": ("countries", ("name", "currency"))}
        )
        assert truth.relevant_tables("q") == ("t1",)
        assert not truth.label("q", "t2").relevant
        assert not truth.label("q", "unknown").relevant
        assert not truth.label("zzz", "t1").relevant
