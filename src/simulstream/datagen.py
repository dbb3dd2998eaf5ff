"""Training sample construction from document-aligned bitext.

Each sample pairs a sentinel-joined context window (1 to 10 previous
sentence pairs) with the active sentence pair; half of the time the active
pair is cut to a prefix, with the source cut projected from the target cut
by the length ratio of the two sides. Generation is a pure function of
(document, config, seed, draw index), so corpora regenerate byte for byte.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

from .core import SENTINEL, InvalidArgumentError, check_word, json_report

PAIR_SEPARATOR = " ||| "


@dataclass(frozen=True)
class Document:
    pairs: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]
    doc_id: str

    def __post_init__(self) -> None:
        if not self.pairs:
            raise InvalidArgumentError(f"document {self.doc_id!r} has no pairs")
        for source, target in self.pairs:
            for sentence in (source, target):
                if not sentence:
                    raise InvalidArgumentError(
                        f"document {self.doc_id!r} has an empty sentence"
                    )
                for word in sentence:
                    check_word(word, f"document {self.doc_id!r}")


@dataclass(frozen=True)
class GenConfig:
    max_context: int = 10
    min_context: int = 1
    prefix_rate: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.min_context <= self.max_context:
            raise InvalidArgumentError(
                f"need 1 <= min_context <= max_context, got "
                f"{self.min_context} / {self.max_context}"
            )
        if not 0 <= self.prefix_rate <= 1:
            raise InvalidArgumentError(
                f"prefix_rate must be in [0, 1], got {self.prefix_rate}"
            )


@dataclass
class GenStats:
    samples: int = 0
    prefixed: int = 0
    context_clamped: int = 0
    single_pair_docs: int = 0
    context_histogram: dict[int, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "samples": self.samples,
            "prefixed": self.prefixed,
            "prefix_fraction": self.prefixed / self.samples if self.samples else 0.0,
            "context_clamped": self.context_clamped,
            "single_pair_docs": self.single_pair_docs,
            "context_histogram": dict(sorted(self.context_histogram.items())),
        }


def gen_sample(
    doc: Document,
    config: GenConfig,
    rng: random.Random,
    stats: GenStats | None = None,
) -> tuple[str, str]:
    """Draw one (source text, target text) sample from a document.

    Both sides carry the same number of sentinel separators; the active
    pair is a true prefix of the document's selected pair whenever the
    prefix branch triggers.
    """
    stats = stats if stats is not None else GenStats()
    stats.samples += 1
    n = len(doc.pairs)
    if n == 1:
        s = 0
        c = 0
        stats.single_pair_docs += 1
    else:
        if n - 1 >= config.min_context:
            s = rng.randint(config.min_context, n - 1)
        else:
            s = n - 1
        hi = min(config.max_context, s)
        if hi < config.min_context:
            stats.context_clamped += 1
        lo = min(config.min_context, hi)
        c = rng.randint(lo, hi)
    stats.context_histogram[c] = stats.context_histogram.get(c, 0) + 1

    source, target = doc.pairs[s]
    if rng.random() < config.prefix_rate:
        stats.prefixed += 1
        j = rng.randint(1, len(target))
        cut = min(len(source), max(1, round(j * len(source) / len(target))))
        source = source[:cut]
        target = target[:j]
    context = doc.pairs[s - c : s]
    source_text = f" {SENTINEL} ".join(
        " ".join(sentence) for sentence in [*(p[0] for p in context), source]
    )
    target_text = f" {SENTINEL} ".join(
        " ".join(sentence) for sentence in [*(p[1] for p in context), target]
    )
    return source_text, target_text


def draw_rng(seed: int, index: int) -> random.Random:
    """Independent deterministic stream for draw ``index``."""
    return random.Random(f"{seed}:{index}")


def generate_samples(
    documents: list[Document], config: GenConfig, count: int
) -> tuple[list[tuple[str, str]], GenStats]:
    """Generate ``count`` samples cycling through the documents in order."""
    if count < 0:
        raise InvalidArgumentError(f"sample count must be >= 0, got {count}")
    if not documents:
        raise InvalidArgumentError("no documents to sample from")
    stats = GenStats()
    samples = []
    for i in range(count):
        doc = documents[i % len(documents)]
        samples.append(gen_sample(doc, config, draw_rng(config.seed, i), stats))
    return samples, stats


@dataclass
class CorpusLoadResult:
    documents: list[Document]
    malformed: list[tuple[int, str]]  # (line number, reason)


def load_corpus(path: str | Path) -> CorpusLoadResult:
    """Parse a document-aligned bitext file.

    Format: one "source ||| target" sentence pair per line, documents
    separated by blank lines. Malformed lines are collected with their line
    numbers instead of being silently dropped; a file yielding zero valid
    documents is an error.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidArgumentError(f"{path}: {exc}") from exc
    documents: list[Document] = []
    malformed: list[tuple[int, str]] = []
    pending: list[tuple[tuple[str, ...], tuple[str, ...]]] = []

    def close_document() -> None:
        nonlocal pending
        if pending:
            documents.append(
                Document(pairs=tuple(pending), doc_id=f"doc{len(documents):04d}")
            )
            pending = []

    # Lines end at "\n" alone (read_text has turned "\r\n" and "\r" into it):
    # str.splitlines would also cut at \x0c, U+2028 and other breaks, which
    # str.split reads as spaces inside a sentence.
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            close_document()
            continue
        if PAIR_SEPARATOR not in line:
            malformed.append((lineno, "missing ' ||| ' separator"))
            continue
        source_text, _, target_text = line.partition(PAIR_SEPARATOR)
        source = tuple(source_text.split())
        target = tuple(target_text.split())
        if not source or not target:
            malformed.append((lineno, "empty side"))
            continue
        if SENTINEL in source or SENTINEL in target:
            malformed.append((lineno, f"contains reserved sentinel {SENTINEL!r}"))
            continue
        pending.append((source, target))
    close_document()

    if not documents:
        raise InvalidArgumentError(
            f"{path}: no valid documents "
            f"({len(malformed)} malformed lines, first: {malformed[:1]})"
        )
    return CorpusLoadResult(documents=documents, malformed=malformed)


def write_corpus(documents: list[Document], path: str | Path) -> None:
    """Write the canonical corpus form (what load_corpus round-trips)."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, doc in enumerate(documents):
            if i:
                fh.write("\n")
            for source, target in doc.pairs:
                fh.write(" ".join(source) + PAIR_SEPARATOR + " ".join(target) + "\n")


def write_samples(
    samples: list[tuple[str, str]],
    stats: GenStats,
    output_prefix: str | Path,
) -> tuple[Path, Path, Path]:
    """Write parallel sample files plus the stats summary JSON."""
    prefix = Path(output_prefix)
    source_path = prefix.with_name(prefix.name + ".src")
    target_path = prefix.with_name(prefix.name + ".tgt")
    stats_path = prefix.with_name(prefix.name + ".stats.json")
    with open(source_path, "w", encoding="utf-8") as fh:
        for source, _ in samples:
            fh.write(source + "\n")
    with open(target_path, "w", encoding="utf-8") as fh:
        for _, target in samples:
            fh.write(target + "\n")
    json_report(stats.to_dict(), stats_path)
    return source_path, target_path, stats_path
