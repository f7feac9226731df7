"""Tests for the design-space exploration module."""

from __future__ import annotations

import pytest

from repro.accel.config import AcceleratorConfig, MPEConfig
from repro.accel.dse import (
    CandidateResult,
    DesignSpace,
    DesignSpaceExplorer,
    pareto_front,
)


@pytest.fixture(scope="module")
def explorer(small_checkpoint):
    return DesignSpaceExplorer(small_checkpoint, n_prompt=4, n_generated=8,
                               position_stride=4)


SMALL_SPACE = DesignSpace(
    mpe_shapes=((32, 16), (64, 32)),
    buffer_segments=(4,),
    hbm_stripes=(8, 16),
    weight_bits=(8,),
)


class TestDesignSpace:
    def test_candidate_count(self):
        assert len(SMALL_SPACE) == 4
        assert len(list(SMALL_SPACE.candidates())) == 4

    def test_candidate_names_unique(self):
        names = [c.name for c in SMALL_SPACE.candidates()]
        assert len(names) == len(set(names))

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            DesignSpace(mpe_shapes=())


class TestExplorer:
    def test_evaluate_single_candidate(self, explorer):
        config = AcceleratorConfig(mpe=MPEConfig(rows=64, cols=32))
        result = explorer.evaluate(config)
        assert result.fits and result.simulated
        assert result.latency_seconds > 0
        assert result.tokens_per_second > 0
        assert result.analytical_lower_cycles > 0
        assert result.as_row()["design"] == config.name

    def test_oversized_design_reported_unfit(self, explorer):
        config = AcceleratorConfig(mpe=MPEConfig(rows=512, cols=64))
        result = explorer.evaluate(config)
        assert not result.fits
        assert not result.simulated

    def test_explore_covers_space(self, explorer):
        results = explorer.explore(SMALL_SPACE)
        assert len(results) == len(SMALL_SPACE)
        assert all(r.simulated for r in results if r.fits)

    def test_best_by_objective(self, explorer):
        results = explorer.explore(SMALL_SPACE)
        fastest = explorer.best(results, "latency")
        efficient = explorer.best(results, "efficiency")
        assert fastest.latency_seconds == min(
            r.latency_seconds for r in results if r.simulated)
        assert efficient.tokens_per_joule == max(
            r.tokens_per_joule for r in results if r.simulated)
        with pytest.raises(ValueError):
            explorer.best(results, "style")

    def test_pruning_skips_slow_candidates(self, small_checkpoint):
        explorer = DesignSpaceExplorer(small_checkpoint, n_prompt=4,
                                       n_generated=8, position_stride=4)
        space = DesignSpace(mpe_shapes=((64, 32),), buffer_segments=(8,),
                            hbm_stripes=(16, 1), weight_bits=(8,))
        results = explorer.explore(space, prune_factor=1.5)
        assert len(results) == 2
        # the 1-channel stripe design is analytically much slower than the
        # 16-channel one evaluated first, so it gets pruned
        assert results[0].simulated
        assert not results[1].simulated

    def test_each_accelerator_is_built_once(self, small_checkpoint,
                                            monkeypatch):
        """The bound needs a lowered program, not an accelerator: only
        simulated candidates construct one (quantising every weight), and
        a row reads the same whichever way it was reached."""
        from repro.accel import dse

        built = []

        class Counted(dse.SpeedLLMAccelerator):
            def __init__(self, checkpoint, config, **kwargs):
                built.append(config.name)
                super().__init__(checkpoint, config, **kwargs)

        monkeypatch.setattr(dse, "SpeedLLMAccelerator", Counted)
        explorer = DesignSpaceExplorer(small_checkpoint, n_prompt=4,
                                       n_generated=8, position_stride=4)
        space = DesignSpace(mpe_shapes=((64, 32),), buffer_segments=(8,),
                            hbm_stripes=(16, 32, 1), weight_bits=(8,))
        results = explorer.explore(space, prune_factor=1.5)
        assert [r.simulated for r in results] == [True, True, False]
        assert built == [r.config.name for r in results if r.simulated]
        for result in results:
            alone = explorer.evaluate(result.config)
            assert (alone.analytical_lower_cycles
                    == result.analytical_lower_cycles > 0)
            if result.simulated:
                assert alone == result

    def test_invalid_workload(self, small_checkpoint):
        with pytest.raises(ValueError):
            DesignSpaceExplorer(small_checkpoint, n_prompt=0)


class TestParetoFront:
    def _candidate(self, name, latency, efficiency):
        return CandidateResult(
            config=AcceleratorConfig(name=name), fits=True, simulated=True,
            latency_seconds=latency, tokens_per_joule=efficiency,
        )

    def test_front_excludes_dominated_points(self):
        a = self._candidate("fast-efficient", 1.0, 100.0)
        b = self._candidate("slow-inefficient", 2.0, 50.0)    # dominated by a
        c = self._candidate("slow-very-efficient", 3.0, 200.0)
        front = pareto_front([a, b, c])
        assert [r.config.name for r in front] == ["fast-efficient",
                                                  "slow-very-efficient"]

    def test_front_ignores_unsimulated(self):
        a = self._candidate("only", 1.0, 1.0)
        unsim = CandidateResult(config=AcceleratorConfig(name="x"), fits=True)
        assert pareto_front([a, unsim]) == [a]

    def test_real_exploration_has_nonempty_front(self, explorer):
        results = explorer.explore(SMALL_SPACE)
        front = pareto_front(results)
        assert front
        assert all(r.simulated for r in front)
