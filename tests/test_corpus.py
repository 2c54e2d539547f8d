import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixsent.cli import _distribution_report
from mixsent.corpus import (CANONICAL_LABEL_MAP, LABELS, Corpus, LabeledTweet,
                            SentimentLabel, SplitSpec, class_distribution,
                            load_corpus, load_label_map, merge, save_corpus,
                            split)
from mixsent.errors import InputError
from mixsent.preprocess import preprocess_corpus

from conftest import make_corpus, packaged_config

FULL_MAP = {"Negative": SentimentLabel.NEGATIVE, "Neutral": SentimentLabel.NEUTRAL,
            "Positive": SentimentLabel.POSITIVE}


def write_jsonl(path, rows):
    path.write_text("\n".join(json.dumps(r, ensure_ascii=False) for r in rows) + "\n",
                    encoding="utf-8")


class TestLoadCorpus:
    def test_raw_label_mapped_through_label_map(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"text": "theek hai", "label": "Neutral"}])
        c = load_corpus(path, FULL_MAP)
        assert c.records[0].label == SentimentLabel.NEUTRAL
        assert int(c.records[0].label) == 1

    def test_empty_file_gives_empty_corpus(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("", encoding="utf-8")
        assert len(load_corpus(path, FULL_MAP)) == 0

    def test_unmapped_label_is_fatal_and_listed(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"text": "a", "label": "pos"},
                           {"text": "b", "label": "Neutral"},
                           {"text": "c", "label": "neg"}])
        with pytest.raises(InputError) as err:
            load_corpus(path, FULL_MAP)
        assert "pos" in str(err.value) and "neg" in str(err.value)

    def test_malformed_row_reports_line_number(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"text": "ok", "label": "Neutral"}\n{broken\n', encoding="utf-8")
        with pytest.raises(InputError, match=":2"):
            load_corpus(path, FULL_MAP)

    def test_empty_text_rejected_with_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"text": "", "label": "Neutral"}])
        with pytest.raises(InputError, match=":1"):
            load_corpus(path, FULL_MAP)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="not found"):
            load_corpus(tmp_path / "nope.jsonl", FULL_MAP)

    def test_ids_assigned_sequentially_when_absent(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"text": "a", "label": "Neutral"},
                           {"text": "b", "label": "Positive"}])
        c = load_corpus(path, FULL_MAP)
        assert [r.id for r in c.records] == ["0", "1"]

    def test_duplicate_explicit_ids_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"id": "x", "text": "a", "label": "Neutral"},
                           {"id": "x", "text": "b", "label": "Neutral"}])
        with pytest.raises(InputError, match="duplicate"):
            load_corpus(path, FULL_MAP)

    def test_csv_roundtrip(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("text,label,source\nmast hai,Positive,unit\n", encoding="utf-8")
        c = load_corpus(path, FULL_MAP)  # format inferred from suffix
        assert c.records[0].text == "mast hai"
        assert c.records[0].label == SentimentLabel.POSITIVE
        assert c.records[0].source == "unit"

    def test_csv_quoted_crlf_kept(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_bytes(b'text,label\r\n"a\r\nb",Positive\r\n')
        assert load_corpus(path, FULL_MAP).texts() == ["a\r\nb"]

    def test_jsonl_line_separator_stays_in_its_record(self, tmp_path):
        """save_corpus writes U+2028 raw; it does not end a JSONL line."""
        path = tmp_path / "c.jsonl"
        save_corpus(Corpus([LabeledTweet("x", "a\u2028b", SentimentLabel.POSITIVE)]), path)
        assert "\u2028" in path.read_text(encoding="utf-8")
        assert load_corpus(path, CANONICAL_LABEL_MAP).records == [
            LabeledTweet("x", "a\u2028b", SentimentLabel.POSITIVE)]

    def test_jsonl_lines_end_at_lf_crlf_or_cr(self, tmp_path):
        path = tmp_path / "c.jsonl"
        rows = [json.dumps({"text": t, "label": "Neutral"}) for t in "abc"]
        path.write_bytes("\r\n".join(rows[:2]).encode() + b"\r" + rows[2].encode())
        c = load_corpus(path, FULL_MAP)
        assert c.texts() == ["a", "b", "c"] and [r.id for r in c] == ["0", "1", "2"]

    def test_csv_missing_header_columns(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("body,tag\nx,y\n", encoding="utf-8")
        with pytest.raises(InputError, match="header"):
            load_corpus(path, FULL_MAP)

    def test_csv_field_over_parser_limit_rejected(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text('text,label\n"' + "a " * 70000 + '",Positive\n',
                        encoding="utf-8")
        with pytest.raises(InputError, match="field larger"):
            load_corpus(path, FULL_MAP)

    def test_label_map_file(self, tmp_path):
        path = tmp_path / "map.json"
        path.write_text('{"0": "negative", "Neut": "neutral", "+": "positive"}',
                        encoding="utf-8")
        m = load_label_map(path)
        assert m["+"] == SentimentLabel.POSITIVE
        assert m["0"] == SentimentLabel.NEGATIVE


class TestMerge:
    def test_sizes_add_up(self):
        a = make_corpus([0] * 11)
        b = make_corpus([1] * 14)
        assert len(merge(a, b)) == 25

    def test_merge_with_empty_is_identity(self):
        a = make_corpus([0, 1, 2])
        merged = merge(a, Corpus([]))
        assert merged.records == a.records

    def test_overlapping_ids_made_unique(self):
        a = make_corpus([0, 1])
        b = make_corpus([2, 2])
        merged = merge(a, b)
        ids = [r.id for r in merged.records]
        assert len(set(ids)) == 4
        assert [r.text for r in merged.records] == [r.text for r in a.records] + \
            [r.text for r in b.records]

    def test_associative_up_to_ids(self):
        a, b, c = make_corpus([0]), make_corpus([1, 2]), make_corpus([2])
        left = merge(merge(a, b), c)
        right = merge(a, merge(b, c))
        assert [(r.text, r.label) for r in left.records] == \
            [(r.text, r.label) for r in right.records]


class TestDedup:
    """Loading keeps every record; preprocess_corpus drops repeated texts."""

    def test_exact_duplicates_removed_first_kept(self):
        c = make_corpus([0, 0, 1], text_fn=lambda i, l: ["good", "good", "bad"][i])
        out, drops = preprocess_corpus(c, packaged_config())
        assert [r.text for r in out.records] == ["good", "bad"]
        assert out.records[0].id == "0"
        assert drops["duplicate"] == 1

    def test_all_unique_unchanged(self):
        c = make_corpus([0, 1, 2], text_fn=lambda i, l: f"movie {i}")
        out, drops = preprocess_corpus(c, packaged_config())
        assert out.records == c.records
        assert drops["duplicate"] == 0

    @given(st.lists(st.sampled_from(["mast", "bekar", "Mast!", "bekar ",
                                     "khana khana"]), max_size=30))
    def test_idempotent(self, texts):
        c = Corpus([LabeledTweet(str(i), t, SentimentLabel.NEUTRAL)
                    for i, t in enumerate(texts)])
        cfg = packaged_config()
        once, _ = preprocess_corpus(c, cfg)
        twice, drops = preprocess_corpus(once, cfg)
        assert once.records == twice.records
        assert drops["duplicate"] == 0
        assert len({r.text for r in once.records}) == len(once)


def shown(counts) -> dict[str, str]:
    """Label name -> the Percentage cell of prepare's class table."""
    rows = _distribution_report(counts).splitlines()[1:-1]
    return {row.split()[0]: row.split()[-1] for row in rows}


class TestClassDistribution:
    def test_merged_corpus_percentages(self):
        c = make_corpus([1] * 8987 + [2] * 7940 + [0] * 7184)
        counts = class_distribution(c)
        assert list(counts) == list(LABELS)
        assert sum(counts.values()) == 24111
        assert counts == {SentimentLabel.NEGATIVE: 7184, SentimentLabel.NEUTRAL: 8987,
                          SentimentLabel.POSITIVE: 7940}
        assert shown(counts) == {"Neutral": "37.3%", "Positive": "32.9%",
                                 "Negative": "29.8%"}
        assert _distribution_report(counts).splitlines()[-1].split() == [
            "Total", "24,111", "100.0%"]

    def test_single_record(self):
        counts = class_distribution(make_corpus([2]))
        assert counts[SentimentLabel.POSITIVE] == 1
        assert counts[SentimentLabel.NEGATIVE] == 0
        assert shown(counts) == {"Positive": "100.0%", "Negative": "0.0%",
                                 "Neutral": "0.0%"}

    def test_symmetric_thirds(self):
        counts = class_distribution(make_corpus([0, 1, 2] * 3))
        assert set(shown(counts).values()) == {"33.3%"}

    def test_exact_half_rounds_up(self):
        """23 of 80 is exactly 28.75%; the float 23 / 80 * 100 is just
        under it, and rounding that float showed 28.7."""
        counts = class_distribution(make_corpus([0] * 23 + [1] * 30 + [2] * 27))
        assert shown(counts) == {"Neutral": "37.5%", "Positive": "33.8%",
                                 "Negative": "28.8%"}

    def test_every_row_is_exact_half_up(self):
        for total in range(1, 301):
            for count in range(total + 1):
                counts = {SentimentLabel.NEGATIVE: count,
                          SentimentLabel.NEUTRAL: total - count,
                          SentimentLabel.POSITIVE: 0}
                exact = Fraction(100 * count, total)
                tenths = math.floor(exact * 10 + Fraction(1, 2))
                assert shown(counts)["Negative"] == f"{tenths / 10:.1f}%", (count, total)

    def test_empty_corpus_rejected(self):
        with pytest.raises(InputError):
            class_distribution(Corpus([]))


class TestSplit:
    def test_full_scale_sizes(self):
        c = make_corpus([1] * 8987 + [2] * 7940 + [0] * 7184)
        tr, va, te = split(c, SplitSpec(), 13)
        assert (len(tr), len(va), len(te)) == (19288, 2411, 2412)

    def test_ten_records(self):
        c = make_corpus([0] * 10)
        tr, va, te = split(c, SplitSpec(), 0)
        assert (len(tr), len(va), len(te)) == (8, 1, 1)

    def test_deterministic_given_seed(self):
        c = make_corpus([0, 1, 2] * 20)
        first = split(c, SplitSpec(), 99)
        second = split(c, SplitSpec(), 99)
        for x, y in zip(first, second):
            assert x.records == y.records

    def test_seed_changes_assignment(self):
        c = make_corpus([0, 1, 2] * 40)
        a, _, _ = split(c, SplitSpec(), 1)
        b, _, _ = split(c, SplitSpec(), 2)
        assert [r.id for r in a.records] != [r.id for r in b.records]

    def test_small_class_goes_to_train_with_warning(self):
        c = make_corpus([0] * 10 + [1] * 2)
        with pytest.warns(UserWarning, match="Neutral"):
            tr, va, te = split(c, SplitSpec(), 0)
        neutral_ids = {r.id for r in c.records if r.label == SentimentLabel.NEUTRAL}
        assert neutral_ids <= {r.id for r in tr.records}

    @given(st.tuples(st.integers(3, 400), st.integers(3, 400), st.integers(3, 400)),
           st.integers(0, 2 ** 32))
    @settings(max_examples=40, deadline=None)
    def test_disjoint_union_and_floor_formula(self, counts, seed):
        labels = [0] * counts[0] + [1] * counts[1] + [2] * counts[2]
        c = make_corpus(labels)
        n = len(labels)
        tr, va, te = split(c, SplitSpec(), seed)
        assert len(tr) == int(0.8 * n + 1e-9)
        assert len(va) == int(0.1 * n + 1e-9)
        assert len(te) == n - len(tr) - len(va)
        ids = [r.id for part in (tr, va, te) for r in part.records]
        assert len(ids) == n
        assert set(ids) == {r.id for r in c.records}

    def test_floor_formula_at_hundred_thousand_records(self):
        c = make_corpus([0] * 40003 + [1] * 34999 + [2] * 24998)  # N = 100,000
        tr, va, te = split(c, SplitSpec(), 17)
        assert (len(tr), len(va), len(te)) == (80000, 10000, 10000)

    def test_stratified_per_class_within_one(self):
        c = make_corpus([0] * 100 + [1] * 50 + [2] * 25)
        tr, _, _ = split(c, SplitSpec(), 4)
        by = {label: 0 for label in (0, 1, 2)}
        for r in tr.records:
            by[int(r.label)] += 1
        assert by[0] in (80, 81)
        assert by[1] in (40, 41)
        assert by[2] in (20, 21)

    def test_bad_fractions_rejected(self):
        with pytest.raises(InputError):
            SplitSpec(train_frac=0.9, val_frac=0.2)
        with pytest.raises(InputError):
            SplitSpec(train_frac=0.0, val_frac=0.1)

    def test_empty_corpus_rejected(self):
        with pytest.raises(InputError):
            split(Corpus([]), SplitSpec(), 0)

    def test_seed_not_an_integer_rejected(self):
        with pytest.raises(InputError, match="seed must be an integer"):
            split(make_corpus([0] * 10), SplitSpec(), "3")


def test_canonical_label_map_covers_all_labels():
    assert set(CANONICAL_LABEL_MAP.values()) == set(SentimentLabel)
