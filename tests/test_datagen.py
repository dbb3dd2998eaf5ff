from __future__ import annotations

import json
import re

import pytest

from simulstream.core import SENTINEL, InvalidArgumentError, json_report
from simulstream.datagen import (
    Document,
    GenConfig,
    GenStats,
    draw_rng,
    gen_sample,
    generate_samples,
    load_corpus,
    write_corpus,
    write_samples,
)


class StubRng:
    """Plays back scripted randint/random draws for forced examples."""

    def __init__(self, ints: list[int], floats: list[float]) -> None:
        self.ints = list(ints)
        self.floats = list(floats)

    def randint(self, lo: int, hi: int) -> int:
        value = self.ints.pop(0)
        assert lo <= value <= hi, f"scripted value {value} outside [{lo}, {hi}]"
        return value

    def random(self) -> float:
        return self.floats.pop(0)


def _doc(*pair_sizes: tuple[int, int], doc_id: str = "d") -> Document:
    pairs = []
    for i, (src_len, tgt_len) in enumerate(pair_sizes):
        src = tuple(f"s{i}w{j}" for j in range(src_len))
        tgt = tuple(f"t{i}w{j}" for j in range(tgt_len))
        pairs.append((src, tgt))
    return Document(pairs=tuple(pairs), doc_id=doc_id)


def test_no_prefix_branch_is_pure_concatenation() -> None:
    doc = _doc((2, 2), (3, 3), (2, 2))
    rng = StubRng(ints=[2, 2], floats=[0.9])  # s=2, c=2, prefix roll fails
    source, target = gen_sample(doc, GenConfig(prefix_rate=0.5), rng)
    assert source == f"s0w0 s0w1 {SENTINEL} s1w0 s1w1 s1w2 {SENTINEL} s2w0 s2w1"
    assert target == f"t0w0 t0w1 {SENTINEL} t1w0 t1w1 t1w2 {SENTINEL} t2w0 t2w1"


def test_prefix_cut_follows_length_ratio() -> None:
    doc = _doc((2, 2), (10, 5))
    # s=1, c=1, prefix roll passes, target cut j=2 -> source cut round(2*10/5)=4
    rng = StubRng(ints=[1, 1, 2], floats=[0.0])
    source, target = gen_sample(doc, GenConfig(prefix_rate=1.0), rng)
    active_source = source.split(f" {SENTINEL} ")[-1].split()
    active_target = target.split(f" {SENTINEL} ")[-1].split()
    assert len(active_source) == 4
    assert len(active_target) == 2


def test_prefix_sides_are_true_prefixes() -> None:
    doc = _doc((4, 6), (5, 7), (6, 3))
    config = GenConfig(prefix_rate=1.0, seed=5)
    for i in range(200):
        source, target = gen_sample(doc, config, draw_rng(config.seed, i))
        active_source = source.split(f" {SENTINEL} ")[-1].split()
        active_target = target.split(f" {SENTINEL} ")[-1].split()
        matched = [
            (s, t)
            for s, t in doc.pairs
            if list(s[: len(active_source)]) == active_source
            and list(t[: len(active_target)]) == active_target
        ]
        assert matched, f"active pair is not a prefix of any document pair: {source}"


def test_separator_counts_match_on_both_sides() -> None:
    doc = _doc(*[(3, 4)] * 14)
    config = GenConfig(seed=9)
    for i in range(300):
        source, target = gen_sample(doc, config, draw_rng(config.seed, i))
        n_src = source.split().count(SENTINEL)
        n_tgt = target.split().count(SENTINEL)
        assert n_src == n_tgt
        assert 1 <= n_src <= 10


def test_prefix_fraction_tracks_rate() -> None:
    doc = _doc(*[(4, 5)] * 6)
    config = GenConfig(prefix_rate=0.5, seed=123)
    stats = GenStats()
    for i in range(10_000):
        gen_sample(doc, config, draw_rng(config.seed, i), stats)
    fraction = stats.prefixed / stats.samples
    assert 0.47 <= fraction <= 0.53


def test_single_pair_documents_fall_back_with_counter() -> None:
    doc = _doc((3, 3))
    stats = GenStats()
    source, target = gen_sample(doc, GenConfig(), StubRng([], [0.9]), stats)
    assert SENTINEL not in source
    assert stats.single_pair_docs == 1


def test_short_documents_clamp_context_and_count_it() -> None:
    doc = _doc((2, 2), (2, 2))  # only one predecessor available
    config = GenConfig(min_context=3, max_context=5)
    stats = GenStats()
    source, _ = gen_sample(doc, config, StubRng([1], [0.9]), stats)
    assert stats.context_clamped == 1
    assert source.split().count(SENTINEL) == 1


def test_same_seed_and_index_reproduce_samples() -> None:
    doc = _doc((4, 4), (5, 5), (3, 6))
    config = GenConfig(seed=77)
    for i in range(50):
        a = gen_sample(doc, config, draw_rng(config.seed, i))
        b = gen_sample(doc, config, draw_rng(config.seed, i))
        assert a == b


@pytest.mark.parametrize(
    "options, message",
    [
        ({"min_context": 0}, "need 1 <= min_context <= max_context, got 0 / 10"),
        ({"min_context": 4, "max_context": 3}, "need 1 <= min_context <= max_context, got 4 / 3"),
        ({"prefix_rate": -0.5}, "prefix_rate must be in [0, 1], got -0.5"),
        ({"prefix_rate": 1.5}, "prefix_rate must be in [0, 1], got 1.5"),
    ],
    ids=["min_context_0", "min_above_max", "prefix_rate_below_0", "prefix_rate_above_1"],
)
def test_gen_config_refuses_values_out_of_range(options, message) -> None:
    with pytest.raises(InvalidArgumentError, match=f"^{re.escape(message)}$"):
        GenConfig(**options)


def test_generate_samples_refuses_no_documents() -> None:
    with pytest.raises(InvalidArgumentError, match="^no documents to sample from$"):
        generate_samples([], GenConfig(), 1)


def test_generate_samples_cycles_documents() -> None:
    docs = [_doc((2, 2), (2, 2), doc_id="a"), _doc((3, 3), (3, 3), doc_id="b")]
    samples, stats = generate_samples(docs, GenConfig(seed=1), 10)
    assert len(samples) == 10
    assert stats.samples == 10


def test_document_validation() -> None:
    with pytest.raises(InvalidArgumentError):
        Document(pairs=(), doc_id="x")
    with pytest.raises(InvalidArgumentError):
        Document(pairs=((("ok",), ()),), doc_id="x")
    with pytest.raises(InvalidArgumentError):
        Document(pairs=(((SENTINEL,), ("t",)),), doc_id="x")


CORPUS = """\
hello there ||| hallo du
how are you ||| wie geht es

second doc line one ||| zwei eins
second doc line two ||| zwei zwei
second doc line three ||| zwei drei
"""


def test_load_corpus_fixture(tmp_path) -> None:
    path = tmp_path / "corpus.txt"
    path.write_text(CORPUS, encoding="utf-8")
    result = load_corpus(path)
    assert len(result.documents) == 2
    assert [len(d.pairs) for d in result.documents] == [2, 3]
    assert result.documents[0].pairs[0] == (("hello", "there"), ("hallo", "du"))
    assert result.malformed == []


def test_load_corpus_reports_malformed_lines(tmp_path) -> None:
    path = tmp_path / "corpus.txt"
    path.write_text(
        "good one ||| gut eins\nbroken line\n ||| empty side\nsay [SEP] ||| sag es\n",
        encoding="utf-8",
    )
    result = load_corpus(path)
    assert len(result.documents) == 1
    assert result.malformed == [
        (2, "missing ' ||| ' separator"),
        (3, "empty side"),
        (4, f"contains reserved sentinel {SENTINEL!r}"),
    ]


def test_load_corpus_cuts_lines_at_newlines_only(tmp_path) -> None:
    path = tmp_path / "corpus.txt"
    breaks = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
    text = "".join(f"a{c}b ||| x y{c}z\n" for c in breaks) + "broken\r\nc ||| d\r"
    path.write_text(text, encoding="utf-8", newline="")
    result = load_corpus(path)
    assert [d.pairs for d in result.documents] == [
        ((("a", "b"), ("x", "y", "z")),) * len(breaks) + ((("c",), ("d",)),)
    ]
    assert result.malformed == [(len(breaks) + 1, "missing ' ||| ' separator")]


def test_load_corpus_rejects_empty(tmp_path) -> None:
    path = tmp_path / "corpus.txt"
    path.write_text("only broken\n", encoding="utf-8")
    with pytest.raises(InvalidArgumentError):
        load_corpus(path)


def test_corpus_roundtrip_is_byte_identical(tmp_path) -> None:
    path = tmp_path / "corpus.txt"
    path.write_text(CORPUS, encoding="utf-8")
    out = tmp_path / "rewritten.txt"
    write_corpus(load_corpus(path).documents, out)
    assert out.read_bytes() == path.read_bytes()


def test_write_samples_outputs(tmp_path) -> None:
    docs = [_doc((3, 3), (4, 4), (2, 5))]
    samples, stats = generate_samples(docs, GenConfig(seed=3), 25)
    src, tgt, stats_path = write_samples(samples, stats, tmp_path / "out")
    assert src.read_text(encoding="utf-8").count("\n") == 25
    assert tgt.read_text(encoding="utf-8").count("\n") == 25
    assert stats_path.exists()


def test_stats_report_orders_the_context_histogram_by_number() -> None:
    stats = GenStats(context_histogram={10: 1, 2: 3, 1: 4})
    report = json.loads(json_report(stats.to_dict()))
    assert list(report["context_histogram"]) == ["1", "2", "10"]
