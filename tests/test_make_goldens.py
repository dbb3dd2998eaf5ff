from __future__ import annotations

import make_goldens


def test_every_fixture_reproduces_byte_for_byte() -> None:
    assert make_goldens.main(["--check"]) == 0


def test_check_names_fixtures_that_differ(tmp_path) -> None:
    fixtures = make_goldens.build_fixtures()
    for name, text in fixtures.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    assert make_goldens.stale_fixtures(fixtures, tmp_path) == []
    (tmp_path / "golden_log_60s.jsonl").write_text("", encoding="utf-8")
    (tmp_path / "trace_60s.jsonl").unlink()
    (tmp_path / "orphan.json").write_text("{}\n", encoding="utf-8")
    assert make_goldens.stale_fixtures(fixtures, tmp_path) == [
        "golden_log_60s.jsonl",
        "orphan.json",
        "trace_60s.jsonl",
    ]
