"""Tests for the pattern-matching app, analysis utilities, area model,
pipeline spec parsing and the CLI driver."""

from dataclasses import replace

import numpy as np
import pytest

from repro.apps.matching import PatternMatcher
from repro.arch import FEFET_45NM, dse_spec, iso_capacity_spec, paper_spec
from repro.simulator import CamMachine
from repro.simulator.analysis import (
    busy_histogram,
    energy_shares,
    format_report,
    ops_by_target,
    utilization,
)
from repro.simulator.cells import DONT_CARE


class TestPatternMatcher:
    def make(self, patterns, **spec_kw):
        spec = paper_spec(**{"rows": 32, "cols": 32, **spec_kw})
        return PatternMatcher(np.asarray(patterns, dtype=float), spec)

    def test_exact_match_hit(self):
        rng = np.random.default_rng(0)
        patterns = rng.choice([0.0, 1.0], (12, 64))
        matcher = self.make(patterns)
        result = matcher.lookup(patterns[5])
        assert result.matched
        assert 5 in result.indices
        assert (result.distances == 0).all()

    def test_exact_match_miss(self):
        rng = np.random.default_rng(1)
        patterns = rng.choice([0.0, 1.0], (12, 64))
        query = 1.0 - patterns[0]  # far from everything with high prob.
        matcher = self.make(patterns)
        result = matcher.lookup(query)
        assert not result.matched
        assert result.first == -1

    def test_threshold_match(self):
        patterns = np.zeros((4, 32))
        patterns[1, :3] = 1.0   # distance 3 from the zero query
        patterns[2, :10] = 1.0  # distance 10
        matcher = self.make(patterns)
        result = matcher.lookup(np.zeros(32), threshold=5.0)
        assert set(result.indices.tolist()) == {0, 1, 3}

    def test_dont_care_wildcards(self):
        patterns = np.zeros((2, 32))
        patterns[0, :8] = DONT_CARE  # wildcard prefix
        patterns[1, :8] = 1.0
        matcher = self.make(patterns)
        query = np.zeros(32)
        query[:8] = 1.0
        result = matcher.lookup(query)
        assert set(result.indices.tolist()) == {0, 1}

    def test_multi_tile_patterns(self):
        """Patterns wider and more numerous than one subarray."""
        rng = np.random.default_rng(2)
        patterns = rng.choice([0.0, 1.0], (80, 128))
        matcher = self.make(patterns, rows=32, cols=32)
        for pid in (0, 41, 79):
            result = matcher.lookup(patterns[pid])
            assert pid in result.indices

    def test_query_width_validated(self):
        matcher = self.make(np.zeros((4, 64)))
        with pytest.raises(ValueError):
            matcher.lookup(np.zeros(32))

    def test_report_accumulates(self):
        matcher = self.make(np.zeros((4, 32)))
        matcher.lookup(np.zeros(32))
        matcher.lookup(np.ones(32))
        rep = matcher.report()
        assert rep.queries == 2
        assert rep.query_latency_ns > 0
        assert rep.energy.query_total > 0


def _hamming_reference(rules, queries, threshold):
    """Per query, the ids (ascending) and distances of the live rules
    within ``threshold``; a don't-care cell never mismatches."""
    ids = np.array(sorted(rules), dtype=np.int64)
    stored = np.array([rules[i] for i in ids])
    out = []
    for query in queries:
        dist = ((stored != query) & ~np.isnan(stored)).sum(axis=1)
        hit = dist <= threshold
        out.append((ids[hit], dist[hit].astype(np.float64)))
    return out


class TestMatcherMutation:
    """Rules inserted, deleted and updated through ``matcher.store``:
    every lookup equals a NumPy Hamming scan of the surviving rules."""

    WIDTH = 32

    def _rules(self, rng, count):
        rules = rng.choice([0.0, 1.0], (count, self.WIDTH))
        rules[rng.random(rules.shape) < 0.15] = DONT_CARE
        return rules

    def _mutate(self, rng, store, rules):
        """One random insert (twice as likely, so the store grows),
        delete or update, mirrored into ``rules``."""
        op = int(rng.integers(0, 4))
        ids = sorted(rules)
        if op <= 1 or len(ids) < 3:
            new = self._rules(rng, int(rng.integers(1, 4)))
            rules.update(zip(store.insert(new), new))
        elif op == 2:
            doomed = rng.choice(ids, size=2, replace=False).tolist()
            store.delete(doomed)
            for pid in doomed:
                del rules[pid]
        else:
            pid, row = int(rng.choice(ids)), self._rules(rng, 1)[0]
            store.update(pid, row)
            rules[pid] = row

    def _check(self, rng, matcher, rules):
        live = np.array([rules[i] for i in sorted(rules)])
        # Near-copies of live rules (don't-cares set, one column
        # cleared) plus one random query.
        queries = live[rng.integers(0, len(live), 3)]
        queries = np.where(np.isnan(queries), 1.0, queries)
        queries[:, int(rng.integers(0, self.WIDTH))] = 0.0
        queries = np.vstack([queries, rng.choice([0.0, 1.0], self.WIDTH)])
        threshold = float(rng.choice([0.0, 1.0, 4.0, 12.0]))
        got = matcher.lookup_batch(queries, threshold)
        want = _hamming_reference(rules, queries, threshold)
        for result, (ids, dist) in zip(got, want):
            np.testing.assert_array_equal(result.indices, ids)
            np.testing.assert_array_equal(result.distances, dist)
        assert matcher.store.pattern_count == len(rules)

    def test_one_machine_grows(self):
        rng = np.random.default_rng(4100)
        patterns = self._rules(rng, 10)
        matcher = PatternMatcher(patterns, paper_spec(rows=8, cols=16))
        rules = dict(enumerate(patterns))
        for _ in range(30):
            self._mutate(rng, matcher.store, rules)
            self._check(rng, matcher, rules)
        assert matcher.store.growth_groups > 0
        assert matcher.report().queries == 30 * 4

    def test_capped_shards_split(self):
        rng = np.random.default_rng(4200)
        # One 32-wide row group of 8 rules per bank and two banks per
        # machine: a shard grows one bank past its compiled rows, which
        # only the group's serve_k lets it rank, then the next insert
        # splits a new shard off.
        spec = replace(
            paper_spec(rows=8, cols=16), banks=2, mats_per_bank=1,
            arrays_per_mat=1, subarrays_per_array=2,
        )
        patterns = self._rules(rng, 12)
        matcher = PatternMatcher(patterns, spec, num_shards=2)
        rules = dict(enumerate(patterns))
        for _ in range(30):
            self._mutate(rng, matcher.store, rules)
            self._check(rng, matcher, rules)
        assert matcher.num_shards > 2

    def test_non_hamming_cam_refused(self):
        for cam_type, bits in (("mcam", 2), ("acam", 3)):
            spec = paper_spec(cam_type=cam_type, bits_per_cell=bits)
            with pytest.raises(ValueError, match="tcam"):
                PatternMatcher(np.zeros((2, 32)), spec)


class TestAnalysis:
    def loaded_machine(self):
        m = CamMachine(paper_spec(), trace=True)
        arr = m.alloc_array(m.alloc_mat(m.alloc_bank()))
        for i in range(2):
            s = m.alloc_subarray(arr)
            m.write_value(s, np.ones((10, 32)))
            m.search(s, np.ones(32), at=float(i))
        return m

    def test_utilization(self):
        m = self.loaded_machine()
        u = utilization(m)
        assert u.subarrays_allocated == 2
        assert u.subarrays_written == 2
        assert u.rows_occupied == 20
        assert u.row_utilization == pytest.approx(20 / 64)
        assert 0 < u.cell_utilization <= 1

    def test_density_improves_utilization(self, rng):
        """cam-density exists to raise array utilization (paper §III-D2)."""
        import repro.frontend.torch_api as torch
        from repro.compiler import C4CAMCompiler
        from repro.frontend import placeholder

        stored = rng.choice([-1.0, 1.0], (10, 2048)).astype(np.float32)

        class M(torch.Module):
            def __init__(self):
                self.weight = torch.tensor(stored)

            def forward(self, x):
                o = self.weight.transpose(-2, -1)
                return torch.ops.aten.topk(torch.matmul(x, o), 1, largest=True)

        utils = {}
        for target in ("latency", "density"):
            k = C4CAMCompiler(dse_spec(64, target)).compile(
                M(), [placeholder((1, 2048))]
            )
            k(stored[:1, :2048])
            utils[target] = utilization(k.last_machine).row_utilization
        assert utils["density"] > 2 * utils["latency"]

    def test_energy_shares_sum_to_one(self):
        m = self.loaded_machine()
        rep = m.finish(10.0)
        shares = energy_shares(rep)
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_busy_histogram(self):
        m = self.loaded_machine()
        hist = busy_histogram(m.trace, bucket_ns=1.0)
        assert len(hist) >= 1
        assert max(hist) >= 1

    def test_ops_by_target(self):
        m = self.loaded_machine()
        counts = ops_by_target(m.trace)
        assert counts.get("subarray:0", 0) == 2  # write + search

    def test_format_report(self):
        m = self.loaded_machine()
        rep = m.finish(10.0, 2.0)
        text = format_report(rep, m)
        assert "query latency" in text
        assert "utilization" in text
        assert "mm^2" in text


class TestAreaModel:
    def test_subarray_area_grows_with_geometry(self):
        assert FEFET_45NM.subarray_area_um2(dse_spec(64)) > \
            FEFET_45NM.subarray_area_um2(dse_spec(16))

    def test_iso_capacity_not_iso_area(self):
        """Paper §IV-C2: smaller subarrays need more peripheral sets, so
        iso-capacity systems grow in area as the subarray shrinks."""
        areas = []
        for n in (256, 64, 16):
            spec = iso_capacity_spec(n)
            m = CamMachine(spec)
            bank = m.alloc_bank()
            mat = m.alloc_mat(bank)
            arr = m.alloc_array(mat)
            for _ in range(spec.subarrays_per_array):
                m.alloc_subarray(arr)
            areas.append(m.chip_area_mm2())
        assert areas == sorted(areas)  # 256 smallest, 16 largest

    def test_machine_area_positive(self):
        m = CamMachine(paper_spec())
        m.alloc_subarray(m.alloc_array(m.alloc_mat(m.alloc_bank())))
        assert m.chip_area_mm2() > 0


class TestPipelineSpec:
    def test_standard_pipeline_parses(self):
        from repro.passes.pipeline import build_pipeline_from_spec

        pm = build_pipeline_from_spec(
            "torch-to-cim,cim-fuse-ops,cim-similarity-match,"
            "cim-partition,cim-to-cam",
            paper_spec(),
        )
        assert len(pm.passes) == 5

    def test_unknown_pass_rejected(self):
        from repro.passes.pipeline import PipelineError, build_pipeline_from_spec

        with pytest.raises(PipelineError, match="unknown pass"):
            build_pipeline_from_spec("torch-to-cim,frobnicate")

    def test_arch_required(self):
        from repro.passes.pipeline import PipelineError, build_pipeline_from_spec

        with pytest.raises(PipelineError, match="ArchSpec"):
            build_pipeline_from_spec("cim-to-cam")

    def test_pipeline_runs_end_to_end(self, dot_kernel, rng):
        from repro.compiler import C4CAMCompiler
        from repro.frontend import placeholder
        from repro.ir import count
        from repro.passes.pipeline import build_pipeline_from_spec

        stored = rng.choice([-1.0, 1.0], (4, 64)).astype(np.float32)
        compiler = C4CAMCompiler(paper_spec())
        module, _params = compiler.import_torchscript(
            dot_kernel(stored), [placeholder((1, 64))]
        )
        pm = build_pipeline_from_spec(
            "torch-to-cim,cim-fuse-ops,cim-similarity-match,"
            "cim-partition,cim-to-cam",
            paper_spec(),
        )
        pm.run(module)
        assert count(module, name="cam.search") >= 1

    def test_available_passes_listed(self):
        from repro.passes.pipeline import available_passes

        assert available_passes() == [
            "cim-fuse-ops", "cim-partition", "cim-similarity-match",
            "cim-to-cam", "torch-to-cim",
        ]


class TestCli:
    def test_default_run(self, capsys):
        from repro.cli import main

        assert main(["--dims", "128", "--queries", "2"]) == 0
        out = capsys.readouterr().out
        assert "predicted indices" in out

    def test_stats_flag(self, capsys):
        from repro.cli import main

        assert main(["--dims", "128", "--stats"]) == 0
        assert "utilization" in capsys.readouterr().out

    def test_dump_ir_stages(self, capsys):
        from repro.cli import main

        assert main(["--dims", "128", "--dump-ir", "torch"]) == 0
        assert "torch.aten" in capsys.readouterr().out
        assert main(["--dims", "128", "--dump-ir", "cam"]) == 0
        assert "cam.search" in capsys.readouterr().out

    def test_custom_pipeline(self, capsys):
        from repro.cli import main

        code = main(
            ["--dims", "128", "--pipeline", "torch-to-cim,cim-fuse-ops"]
        )
        assert code == 0
        assert "cim.execute" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "name", ["frobnicate", "cse", "canonicalize", "cim-to-loops"]
    )
    def test_unknown_pass_is_a_usage_error(self, capsys, name):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["--dims", "128", "--pipeline", f"torch-to-cim,{name}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"unknown pass {name!r}" in err
        assert "torch-to-cim" in err.split("available:")[1]

    def test_arch_json(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "arch.json"
        paper_spec(rows=16, cols=16).to_json(path)
        assert main(["--arch", str(path), "--dims", "64"]) == 0

    @pytest.mark.parametrize(
        "flags, expected",
        [
            (["--cluster", "2"], "after defragmentation: bitwise identical"),
            (["--mutate"], "compaction reclaimed"),
            (["--serve", "--replicas", "2"], "replica(s)"),
            (["--batch", "8"], "batch of 8 queries"),
        ],
        ids=["cluster", "mutate", "serve", "batch"],
    )
    def test_demo_flags(self, flags, expected, capsys):
        from repro.cli import main

        assert main(["--dims", "64", "--patterns", "8", *flags]) == 0
        assert expected in capsys.readouterr().out


class TestRecSys:
    def test_pipeline_end_to_end(self, rng):
        from repro.apps.recsys import RecSysPipeline

        n_items, tags, dims = 12, 32, 128
        filters = rng.choice([0.0, 1.0], (n_items, tags))
        embeds = rng.standard_normal((n_items, dims)).astype(np.float32)
        pipe = RecSysPipeline(filters, embeds, paper_spec(), top_k=4)
        rec = pipe.recommend(filters[2], embeds[2], filter_threshold=0.0)
        assert rec.candidates >= 1
        assert 2 in rec.item_ids
        assert rec.latency_ns > rec.throughput_interval_ns

    def test_filter_excludes(self, rng):
        from repro.apps.recsys import RecSysPipeline

        filters = np.zeros((4, 32))
        filters[3, :16] = 1.0  # item 3's tags differ from the query context
        embeds = rng.standard_normal((4, 64)).astype(np.float32)
        pipe = RecSysPipeline(filters, embeds, paper_spec(), top_k=4)
        rec = pipe.recommend(np.zeros(32), embeds[3], filter_threshold=4.0)
        assert 3 not in rec.item_ids

    def test_misaligned_inputs_rejected(self, rng):
        from repro.apps.recsys import RecSysPipeline

        with pytest.raises(ValueError):
            RecSysPipeline(
                np.zeros((3, 16)),
                np.zeros((4, 32), dtype=np.float32),
                paper_spec(),
            )
