"""Incremental re-linting: cache durability, dirtying, one-function edits."""

import json
import os

from repro.analysis.gadgets import find_gadgets
from repro.analysis.modular import (
    SUMMARY_SCHEMA,
    SummaryCache,
    build_callgraph,
    dirty_functions,
    function_digests,
    modular_analysis,
)
from repro.analysis.modular.fixtures import bench_program
from repro.analysis.options import AnalysisOptions
from repro.analysis.taint import analyze


def _lint(program, secret_ranges, cache):
    options = AnalysisOptions.summary_backed(cache=cache)
    run = modular_analysis(program, secret_ranges, options=options)
    gadgets = find_gadgets(program, secret_ranges, taint=run.result,
                           options=options)
    return run, [g.render() for g in gadgets]


# ----------------------------------------------------------------------
# SummaryCache durability
# ----------------------------------------------------------------------

def test_cache_round_trips_through_disk(tmp_path):
    path = os.path.join(tmp_path, "summaries.jsonl")
    cache = SummaryCache(path)
    cache.put("k1", {"payload": 1})
    cache.put("k2", {"payload": 2})
    cache.flush()
    reloaded = SummaryCache(path)
    assert len(reloaded) == 2
    assert reloaded.get("k1") == {"payload": 1}
    assert reloaded.hits == 1 and reloaded.misses == 0
    assert reloaded.get("nope") is None
    assert reloaded.misses == 1


def test_cache_skips_corrupt_lines_without_failing(tmp_path):
    path = os.path.join(tmp_path, "summaries.jsonl")
    cache = SummaryCache(path)
    cache.put("good", {"payload": "ok"})
    cache.flush()
    with open(path, encoding="utf-8") as handle:
        good_line = handle.read()
    tampered = json.loads(good_line)
    tampered["key"] = "evil"            # checksum no longer matches
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("this is not json\n")
        handle.write(json.dumps({"schema": "wrong/9", "key": "x",
                                 "payload": {}, "sha256": "0"}) + "\n")
        handle.write(json.dumps(tampered) + "\n")
        handle.write(good_line)
    survivor = SummaryCache(path)
    assert len(survivor) == 1
    assert survivor.get("good") == {"payload": "ok"}
    assert survivor.rejected == 3       # bad json + bad schema + checksum


def test_caches_sharing_a_file_keep_each_others_records(tmp_path):
    # Two service workers load one summaries.jsonl, each lints something
    # new and flushes: neither flush may drop the other's record.
    path = os.path.join(tmp_path, "summaries.jsonl")
    seed = SummaryCache(path)
    seed.put("k0", {"payload": 0})
    seed.flush()
    worker_a, worker_b = SummaryCache(path), SummaryCache(path)
    worker_a.put("ka", {"payload": "a"})
    worker_b.put("kb", {"payload": "b"})
    worker_a.flush()
    worker_b.flush()
    reloaded = SummaryCache(path)
    assert {key: reloaded.get(key) for key in ("k0", "ka", "kb")} == {
        "k0": {"payload": 0}, "ka": {"payload": "a"},
        "kb": {"payload": "b"}}
    assert reloaded.rejected == 0


def test_compacting_flush_keeps_only_this_sessions_records(tmp_path):
    path = os.path.join(tmp_path, "summaries.jsonl")
    old = SummaryCache(path)
    old.put("orphan", {"payload": 1})
    old.put("kept", {"payload": 2})
    old.flush()
    session = SummaryCache(path)
    session.get("kept")
    session.put("new", {"payload": 3})
    session.flush(compact=True)
    reloaded = SummaryCache(path)
    assert len(reloaded) == 2
    assert reloaded.get("orphan") is None
    assert reloaded.get("kept") == {"payload": 2}


def test_cache_missing_file_is_empty_not_an_error(tmp_path):
    cache = SummaryCache(os.path.join(tmp_path, "absent.jsonl"))
    assert len(cache) == 0


def test_schema_is_versioned():
    assert SUMMARY_SCHEMA == "repro-summary/1"


# ----------------------------------------------------------------------
# digests + reverse-call-graph dirtying
# ----------------------------------------------------------------------

def test_unchanged_program_has_no_dirty_functions():
    program, _ = bench_program()
    baseline = function_digests(build_callgraph(program))
    assert dirty_functions(build_callgraph(program), baseline) == frozenset()


def test_one_function_edit_dirties_it_and_its_callers():
    program, _ = bench_program()
    baseline = function_digests(build_callgraph(program))
    edited, _ = bench_program(edits={3: 7})
    dirty = dirty_functions(build_callgraph(edited), baseline)
    assert dirty == {"fn3", "main"}


def test_new_function_name_counts_as_dirty():
    program, _ = bench_program(functions=4)
    baseline = function_digests(build_callgraph(program))
    bigger, _ = bench_program(functions=5)
    dirty = dirty_functions(build_callgraph(bigger), baseline)
    assert "fn4" in dirty


# ----------------------------------------------------------------------
# warm incremental re-lint on the bench fixture
# ----------------------------------------------------------------------

def test_one_function_edit_reanalyzes_only_that_function(tmp_path):
    path = os.path.join(tmp_path, "summaries.jsonl")
    program, secret_ranges = bench_program()
    cold_cache = SummaryCache(path)
    _lint(program, secret_ranges, cold_cache)
    cold_cache.flush()

    edited, edited_ranges = bench_program(edits={3: 7})
    warm_cache = SummaryCache(path)
    run, warm_report = _lint(edited, edited_ranges, warm_cache)
    assert sorted(run.reanalyzed) == ["fn3"]
    assert warm_cache.misses == 1
    assert warm_cache.hits > 0

    # The warm verdicts are byte-identical to linting the edit cold.
    whole = [g.render() for g in
             find_gadgets(edited, edited_ranges,
                          taint=analyze(edited, edited_ranges))]
    assert warm_report == whole


def test_edit_is_address_stable():
    program, _ = bench_program()
    edited, _ = bench_program(edits={3: 7})
    assert len(program.instructions) == len(edited.instructions)
    assert [i.address for i in program.instructions] == \
        [i.address for i in edited.instructions]
    differing = [a.address for a, b in zip(program.instructions,
                                           edited.instructions) if a != b]
    assert len(differing) == 1
