"""Batch engine tests: equivalence, caching, isolation, CLI wiring."""

from __future__ import annotations

import json
import os

import pytest

from repro.cli import main
from repro.core.persist import summary_to_dict
from repro.core.pipeline import analyze_side_effects
from repro.service.batch import discover_files, run_batch
from repro.service.stats import STATS_SCHEMA_VERSION, aggregate_stats
from repro.workloads.files import write_generated_corpus, write_handwritten_corpus
from repro.workloads.generator import GeneratorConfig

N_FILES = 8


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    write_generated_corpus(
        str(root), N_FILES, base_seed=300,
        config=GeneratorConfig(num_procs=10, num_globals=5),
    )
    return str(root)


def _summaries(report):
    return {
        os.path.basename(r.path): json.dumps(r.result["summary"], sort_keys=True)
        for r in report.results
        if r.ok
    }


class TestEquivalence:
    def test_batch_equals_per_file_analysis(self, corpus_dir):
        report = run_batch(corpus_dir, jobs=1, cache_dir=None)
        assert report.ok_count == N_FILES
        for record in report.results:
            with open(record.path) as handle:
                source = handle.read()
            direct = summary_to_dict(analyze_side_effects(source))
            assert record.result["summary"] == direct

    def test_parallel_equals_sequential(self, corpus_dir):
        sequential = run_batch(corpus_dir, jobs=1, cache_dir=None)
        parallel = run_batch(corpus_dir, jobs=4, cache_dir=None)
        assert parallel.jobs > 1
        assert _summaries(sequential) == _summaries(parallel)

    def test_results_in_sorted_path_order(self, corpus_dir):
        report = run_batch(corpus_dir, jobs=2, cache_dir=None)
        paths = [r.path for r in report.results]
        assert paths == sorted(paths)

    def test_gmod_method_flows_through(self, corpus_dir):
        reference = run_batch(corpus_dir, jobs=1, gmod_method="reference")
        auto = run_batch(corpus_dir, jobs=1, gmod_method="auto")
        assert _summaries(reference) == _summaries(auto)

    def test_sharded_batch_is_bit_identical(self, corpus_dir):
        mono = run_batch(corpus_dir, jobs=1, cache_dir=None)
        sharded = run_batch(corpus_dir, jobs=1, cache_dir=None, shards=4)
        assert sharded.ok_count == N_FILES
        assert sharded.shards == 4
        assert sharded.to_dict()["shards"] == 4
        assert _summaries(mono) == _summaries(sharded)
        for record in sharded.results:
            assert record.result["shard_info"]["requested_shards"] == 4
        for record in mono.results:
            assert "shard_info" not in record.result


class TestCache:
    def test_warm_run_is_all_hits_and_byte_identical(self, corpus_dir, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = run_batch(corpus_dir, jobs=1, cache_dir=cache_dir)
        assert cold.cache_stats.hits == 0
        assert cold.cache_stats.misses == N_FILES
        assert cold.cache_stats.stores == N_FILES

        warm = run_batch(corpus_dir, jobs=1, cache_dir=cache_dir)
        assert warm.cache_stats.hits == N_FILES
        assert warm.cache_stats.misses == 0
        assert warm.cache_stats.hit_rate() == 1.0
        assert warm.analyzed_count == 0
        assert all(r.cached for r in warm.results)
        assert _summaries(cold) == _summaries(warm)

    def test_warm_run_does_zero_solver_work(self, corpus_dir, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run_batch(corpus_dir, jobs=1, cache_dir=cache_dir)
        warm_stats = aggregate_stats(run_batch(corpus_dir, jobs=1, cache_dir=cache_dir))
        assert warm_stats["ops"]["bit_vector_steps"] == 0
        assert warm_stats["corpus"]["analyzed"] == 0

    def test_edited_file_misses_only_itself(self, tmp_path):
        root = tmp_path / "corpus"
        paths = write_generated_corpus(
            str(root), 4, base_seed=40,
            config=GeneratorConfig(num_procs=8, num_globals=4),
        )
        cache_dir = str(tmp_path / "cache")
        run_batch(str(root), jobs=1, cache_dir=cache_dir)
        with open(paths[0], "a") as handle:
            handle.write("\n")
        rerun = run_batch(str(root), jobs=1, cache_dir=cache_dir)
        assert rerun.cache_stats.hits == 3
        assert rerun.cache_stats.misses == 1
        assert rerun.analyzed_count == 1

    def test_no_cache_dir_means_no_cache(self, corpus_dir):
        report = run_batch(corpus_dir, jobs=1, cache_dir=None)
        assert report.cache_stats is None
        assert report.cached_count == 0


class TestCorruptRecords:
    """Every decode failure of a cache record is an invalid entry (a
    miss), never an exception — truncations and byte flips alike."""

    def test_mutants_are_misses_or_payloads(self, tmp_path):
        import random

        from repro.core.pipeline import analyze_source_payload
        from repro.lang.pretty import pretty
        from repro.service.cache import (
            SummaryCache,
            encode_record,
            validate_record_blob,
        )
        from repro.workloads.generator import generate_program

        source = pretty(generate_program(GeneratorConfig(seed=5, num_procs=40)))
        key = "k" * 64
        blob = encode_record(key, analyze_source_payload(source))
        cache = SummaryCache(str(tmp_path))
        rng = random.Random(7)
        misses = 0
        for index in range(150):
            data = bytearray(blob)
            if index % 3 == 0:
                del data[rng.randrange(len(data)):]
            else:
                for _ in range(rng.randint(1, 4)):
                    data[rng.randrange(len(data))] = rng.randrange(256)
            result = validate_record_blob(key, bytes(data))
            assert result is None or isinstance(result, dict)
            with open(cache.path_for(key), "wb") as handle:
                handle.write(data)
            invalid = cache.stats.invalid
            cached = cache.get(key)
            if cached is None:
                misses += 1
                assert cache.stats.invalid > invalid
        # The mutants do reach the decoder's failure paths.
        assert misses > 0


class TestCacheBound:
    """The ``max_entries`` LRU bound on the disk summary cache."""

    def _payload(self, tag):
        return {"summary": {"tag": tag}, "timings": {}, "ops": {},
                "num_procs": 1, "num_call_sites": 0}

    def test_eviction_caps_entry_count(self, tmp_path):
        from repro.service.cache import SummaryCache

        cache = SummaryCache(str(tmp_path), max_entries=2)
        for index in range(5):
            cache.put("k%d" % index, self._payload(index))
        entries = [n for n in os.listdir(str(tmp_path)) if n.endswith(".ckb")]
        assert len(entries) == 2
        assert cache.stats.evictions == 3
        assert cache.stats.to_dict()["evictions"] == 3

    def test_eviction_is_mtime_lru_and_get_refreshes(self, tmp_path):
        from repro.service.cache import SummaryCache

        cache = SummaryCache(str(tmp_path), max_entries=2)
        cache.put("old", self._payload("old"))
        cache.put("hot", self._payload("hot"))
        # Make recency unambiguous regardless of filesystem timestamp
        # granularity, then touch "old" through a hit.
        os.utime(cache.path_for("old"), (1000, 1000))
        os.utime(cache.path_for("hot"), (2000, 2000))
        assert cache.get("old") is not None  # Refreshes "old" to now.
        cache.put("new", self._payload("new"))  # Evicts "hot".
        assert cache.get("hot") is None
        assert cache.get("old") is not None
        assert cache.get("new") is not None
        assert cache.stats.evictions == 1

    def test_unbounded_by_default(self, tmp_path):
        from repro.service.cache import SummaryCache

        cache = SummaryCache(str(tmp_path))
        for index in range(5):
            cache.put("k%d" % index, self._payload(index))
        entries = [n for n in os.listdir(str(tmp_path)) if n.endswith(".ckb")]
        assert len(entries) == 5
        assert cache.stats.evictions == 0

    def test_bound_flows_through_run_batch(self, corpus_dir, tmp_path):
        cache_dir = str(tmp_path / "bounded")
        report = run_batch(
            corpus_dir, jobs=1, cache_dir=cache_dir, cache_max_entries=3
        )
        assert report.ok_count == N_FILES
        entries = [n for n in os.listdir(cache_dir) if n.endswith(".ckb")]
        assert len(entries) == 3
        assert report.cache_stats.evictions == N_FILES - 3


class TestIsolation:
    @pytest.fixture()
    def mixed_dir(self, tmp_path):
        root = tmp_path / "mixed"
        write_generated_corpus(
            str(root), 3, base_seed=77,
            config=GeneratorConfig(num_procs=8, num_globals=4),
        )
        (root / "broken.ck").write_text("program broken\nbegin call nosuch( end\n")
        return str(root)

    def test_bad_file_yields_error_record_not_crash(self, mixed_dir):
        report = run_batch(mixed_dir, jobs=1)
        assert report.ok_count == 3
        assert report.error_count == 1
        (failure,) = report.errors()
        assert failure.path.endswith("broken.ck")
        assert "ParseError" in failure.error or "SemanticError" in failure.error
        assert report.exit_code == 1

    def test_bad_file_isolated_under_pool(self, mixed_dir):
        report = run_batch(mixed_dir, jobs=3)
        assert report.ok_count == 3
        assert report.error_count == 1

    def test_unreadable_file_is_isolated(self, tmp_path):
        root = tmp_path / "corpus"
        write_generated_corpus(
            str(root), 2, base_seed=55,
            config=GeneratorConfig(num_procs=8, num_globals=4),
        )
        missing = str(root / "gone.ck")
        report = run_batch([str(p) for p in sorted(root.iterdir())] + [missing])
        assert report.ok_count == 2
        assert report.error_count == 1


class TestDiscovery:
    def test_skips_dot_directories(self, tmp_path):
        root = tmp_path / "corpus"
        write_generated_corpus(
            str(root), 2, base_seed=11,
            config=GeneratorConfig(num_procs=6, num_globals=4),
        )
        hidden = root / ".ck-cache"
        hidden.mkdir()
        (hidden / "sneaky.ck").write_text("program x begin end\n")
        assert len(discover_files(str(root))) == 2

    def test_single_file_root(self, tmp_path):
        path = tmp_path / "one.ck"
        write_handwritten_corpus(str(tmp_path))
        found = discover_files(str(tmp_path / "stats.ck"))
        assert found == [str(tmp_path / "stats.ck")]

    def test_handwritten_corpus_analyzes_clean(self, tmp_path):
        write_handwritten_corpus(str(tmp_path))
        report = run_batch(str(tmp_path), jobs=1)
        assert report.exit_code == 0
        assert report.ok_count == 8


class TestAcceptanceCorpus:
    """The PR's acceptance scenario: a 50-program generated corpus."""

    @pytest.fixture(scope="class")
    def big_corpus(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("corpus50")
        write_generated_corpus(
            str(root), 50, base_seed=700,
            config=GeneratorConfig(num_procs=10, num_globals=5),
        )
        return str(root)

    def test_cold_jobs4_matches_single_file_analysis(self, big_corpus, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = run_batch(big_corpus, jobs=4, cache_dir=cache_dir)
        assert cold.ok_count == 50
        assert cold.exit_code == 0
        for record in cold.results:
            with open(record.path) as handle:
                source = handle.read()
            direct = summary_to_dict(analyze_side_effects(source))
            assert record.result["summary"] == direct

        warm = run_batch(big_corpus, jobs=4, cache_dir=cache_dir)
        assert warm.analyzed_count == 0
        assert warm.cache_stats.hits == 50
        assert warm.cache_stats.hit_rate() == 1.0
        assert _summaries(warm) == _summaries(cold)


class TestCli:
    def test_batch_command_end_to_end(self, tmp_path, capsys):
        root = tmp_path / "corpus"
        write_generated_corpus(
            str(root), 3, base_seed=66,
            config=GeneratorConfig(num_procs=8, num_globals=4),
        )
        stats_path = str(tmp_path / "stats.json")
        assert main(["batch", str(root), "--jobs", "1",
                     "--stats-json", stats_path]) == 0
        out = capsys.readouterr().out
        assert out.count("ok    ") == 3
        assert "cache:" in out
        with open(stats_path) as handle:
            stats = json.load(handle)
        assert stats["schema"] == STATS_SCHEMA_VERSION
        assert stats["corpus"]["files"] == 3
        assert set(stats["ops"]) == {
            "bit_vector_steps", "single_bit_steps", "meet_operations"
        }

        # Default cache dir sits inside the corpus; a second run is warm.
        assert main(["batch", str(root), "--jobs", "1"]) == 0
        assert "3 ok (3 cached, 0 analyzed)" in capsys.readouterr().out

    def test_batch_partial_failure_exit_code(self, tmp_path, capsys):
        root = tmp_path / "corpus"
        write_generated_corpus(
            str(root), 2, base_seed=88,
            config=GeneratorConfig(num_procs=8, num_globals=4),
        )
        (root / "broken.ck").write_text("program broken\nbegin call nosuch( end\n")
        assert main(["batch", str(root), "--jobs", "1", "--no-cache"]) == 1
        captured = capsys.readouterr()
        assert captured.out.count("ok    ") == 2
        assert "broken.ck" in captured.err

    def test_batch_process_exit_code_nonzero_on_failure(self, tmp_path):
        """The real process (not just main()) must report failure —
        build systems branch on the exit status, not on stderr."""
        import subprocess
        import sys

        root = tmp_path / "corpus"
        write_generated_corpus(
            str(root), 1, base_seed=101,
            config=GeneratorConfig(num_procs=6, num_globals=4),
        )
        (root / "broken.ck").write_text("program broken\nbegin call nosuch( end\n")
        repo_src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(repo_src))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "batch", str(root), "--no-cache"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 1
        assert "broken.ck" in proc.stderr

    def test_batch_empty_corpus_is_an_error(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["batch", str(empty), "--no-cache"]) == 1
        assert "no files matching" in capsys.readouterr().err

    def test_batch_cache_max_entries_flag(self, tmp_path, capsys):
        root = tmp_path / "corpus"
        write_generated_corpus(
            str(root), 4, base_seed=111,
            config=GeneratorConfig(num_procs=6, num_globals=4),
        )
        assert main(["batch", str(root), "--jobs", "1",
                     "--cache-max-entries", "2"]) == 0
        capsys.readouterr()
        cache_dir = root / ".ck-cache"
        entries = [n for n in os.listdir(str(cache_dir)) if n.endswith(".ckb")]
        assert len(entries) == 2

    def test_batch_no_cache_flag(self, tmp_path, capsys):
        root = tmp_path / "corpus"
        write_generated_corpus(
            str(root), 2, base_seed=99,
            config=GeneratorConfig(num_procs=8, num_globals=4),
        )
        assert main(["batch", str(root), "--jobs", "1", "--no-cache"]) == 0
        assert main(["batch", str(root), "--jobs", "1", "--no-cache"]) == 0
        assert "0 cached" in capsys.readouterr().out
        assert not (root / ".ck-cache").exists()

    def test_batch_rejects_bad_method(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["batch", str(tmp_path), "--gmod-method", "nope"])

    def test_batch_missing_dir_fails_without_side_effects(self, tmp_path, capsys):
        missing = str(tmp_path / "no-such-corpus")
        assert main(["batch", missing]) == 1
        assert "no such file or directory" in capsys.readouterr().err
        # In particular the default cache dir must not be created there.
        assert not os.path.exists(missing)
