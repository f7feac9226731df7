"""Tests for the design-space exploration module."""

from __future__ import annotations

import pytest

from repro.accel.config import AcceleratorConfig, MPEConfig
from repro.accel.dse import DesignSpace, DesignSpaceExplorer
from repro.core import runner as runner_module
from repro.core.runner import ExperimentConfig, ExperimentRunner
from repro.quant import QuantConfig


def _explorer(n_prompt=4):
    """An explorer over the tests' workload; the pinned rows below are
    priced with board energy accounting on the default platform."""
    config = ExperimentConfig(
        model="test-small", n_prompt=n_prompt, n_generated=8,
        position_stride=4, energy_accounting="board")
    return DesignSpaceExplorer(ExperimentRunner(config))


@pytest.fixture(scope="module")
def explorer():
    return _explorer()


SMALL_SPACE = DesignSpace(
    mpe_shapes=((32, 16), (64, 32)),
    buffer_segments=(4,),
    hbm_stripes=(8, 16),
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

    def test_each_accelerator_is_built_once(self, monkeypatch):
        """Every candidate that fits is simulated, building one
        accelerator (a step compiler each), and a row reads the same
        whichever way it was reached."""
        built = []

        class Counted(runner_module.SpeedLLMAccelerator):
            def __init__(self, model, config, **kwargs):
                built.append(config.name)
                super().__init__(model, config, **kwargs)

        monkeypatch.setattr(runner_module, "SpeedLLMAccelerator", Counted)
        explorer = _explorer()
        space = DesignSpace(mpe_shapes=((64, 32), (512, 64)), buffer_segments=(8,),
                            hbm_stripes=(16, 1))
        results = explorer.explore(space)
        assert [(r.fits, r.simulated) for r in results] == [
            (True, True), (True, True), (False, False), (False, False)]
        assert built == [r.config.name for r in results if r.fits]
        for result in results:
            assert explorer.evaluate(result.config) == result

    def test_invalid_workload(self):
        with pytest.raises(ValueError):
            _explorer(n_prompt=0)

    @pytest.mark.parametrize("axis, values", [
        pytest.param("mpe_shapes", ((32, 16), (64, 32), (128, 32), (128, 64)),
                     id="mpe"),
        pytest.param("buffer_segments", (2, 4, 8, 16), id="segments"),
        pytest.param("hbm_stripes", (1, 4, 16, 32), id="stripe"),
        pytest.param("quants", tuple(QuantConfig.datapath(bits)
                                     for bits in (4, 8, 16)), id="bits"),
    ])
    def test_single_axis_sweep(self, explorer, axis, values):
        """The four ablation sweeps (MPE geometry, buffer pool, HBM stripe,
        weight precision) are one-axis design spaces around the default
        design: every point fits the U280 and decodes."""
        default = dict(mpe_shapes=((64, 32),), buffer_segments=(8,),
                       hbm_stripes=(16,))
        results = explorer.explore(DesignSpace(**{**default, axis: values}))
        assert len(results) == len(values)
        for result in results:
            assert result.fits and result.dsp_fraction < 1.0
            assert result.simulated
            assert result.tokens_per_second > 0


#: ``explore`` of a 2x2x2 space on test-small (4 prompt + 8 generated
#: positions, stride 4) as commit 60c96f5's explorer — which built and
#: simulated its own accelerators — reported it: (design,
#: latency_seconds.hex(), tokens_per_joule.hex()).  Every design fits and
#: is simulated.
PINNED_SPACE = DesignSpace(mpe_shapes=((32, 16), (64, 32)),
                           buffer_segments=(4, 8), hbm_stripes=(16, 1))
PINNED_ROWS = [
    ("mpe32x16-seg4-st16-w8", "0x1.abe986e7fe0a2p-13", "0x1.ecb18c4898991p+9"),
    ("mpe32x16-seg4-st1-w8", "0x1.0b6dc758c4924p-12", "0x1.a4afc50722bf7p+9"),
    ("mpe32x16-seg8-st16-w8", "0x1.3b301e72788a2p-13", "0x1.2c93221e2af41p+10"),
    ("mpe32x16-seg8-st1-w8", "0x1.995d33b7bd710p-13", "0x1.fbc4676365770p+9"),
    ("mpe64x32-seg4-st16-w8", "0x1.27725fc3dfe93p-13", "0x1.68e4a88aee470p+10"),
    ("mpe64x32-seg4-st1-w8", "0x1.b0bfe8c246f9cp-13", "0x1.110115dee2baap+10"),
    ("mpe64x32-seg8-st16-w8", "0x1.cd72b07b70852p-14", "0x1.a97564f63f181p+10"),
    ("mpe64x32-seg8-st1-w8", "0x1.5d4ad54020f8cp-13", "0x1.40700704eecefp+10"),
]


def test_rows_are_pinned(explorer):
    assert [(r.config.name, r.fits, r.simulated, r.latency_seconds.hex(),
             r.tokens_per_joule.hex()) for r in explorer.explore(PINNED_SPACE)] == [
        (name, True, True, latency, efficiency) for name, latency, efficiency in PINNED_ROWS]
