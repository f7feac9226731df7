"""HBM traffic is counted once: bytes from the packets, DMA transfers from
the model.

``PipelineExecutor.run`` sets ``hbm_read_bytes``/``hbm_write_bytes`` to
the sums of its packets' ``load_bytes``/``store_bytes`` and, after the
walk, ``dma_transfers`` to the HBM model's ``total_transactions`` — a
periodic fast-forward advances that total with the rest.  Both must be
what counting every transfer as it is issued gives: ``n`` bytes over
``stripe`` channels (the configured stripe, clamped to the channel
count) are ``stripe`` DMA transfers if ``n >= stripe``, one if ``n`` is
positive but smaller, none if it is zero.  Checked on generated and on
periodic programs, both disciplines, reuse on and off, traced and
untraced, 1/2/4/32 channels × stripe 1/2/16, each program ending on
transfers one byte short of, at and one byte over the stripe count.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel.config import AcceleratorConfig
from repro.accel.instructions import OpProgram, Program, TilePacket
from repro.accel.pipeline import PipelineExecutor
from repro.fpga.u280 import u280
from repro.graph.ops import ComputeUnit

from .kernel_oracle import trace_events
from .strategies import accelerator_configs, named, periodic_cases, programs


def _transfers(n_bytes: int, stripe: int) -> int:
    return stripe if n_bytes >= stripe else 1 if n_bytes > 0 else 0


@st.composite
def _cases(draw, pipeline: bool, reuse: bool):
    if draw(st.booleans()):
        config, program = draw(accelerator_configs()), draw(programs())
    else:
        config, _, program = draw(periodic_cases(pipeline, reuse))
    config = config.replace(pipeline=pipeline, memory_reuse=reuse,
                            hbm_stripe=draw(st.sampled_from([1, 2, 16])),
                            trace_enabled=draw(st.booleans()))
    platform = u280(n_hbm_channels=draw(st.sampled_from([1, 2, 4, 32])))
    stripe = min(config.hbm_stripe, platform.hbm.n_channels)
    sizes = st.sampled_from([stripe - 1, stripe, stripe + 1])
    edge = named("edge", [
        TilePacket(ComputeUnit.MPE, load, 1, store) for load, store in draw(
            st.lists(st.tuples(sizes, sizes), min_size=1, max_size=4))])
    return config, platform, Program(program.ops + [edge])


@pytest.mark.parametrize("reuse", [True, False], ids=["reuse", "no-reuse"])
@pytest.mark.parametrize("pipeline", [True, False], ids=["pipelined", "sequential"])
def test_traffic_counters_are_the_packets_and_the_model(pipeline, reuse):
    jumped = 0

    # max_examples comes from the hypothesis profile: 100 by default,
    # 400 under --hypothesis-profile=thorough (tests/conftest.py).
    @settings(derandomize=True, deadline=None, database=None)
    @given(_cases(pipeline, reuse))
    def check(case):
        nonlocal jumped
        config, platform, program = case
        result = PipelineExecutor(config, platform).run(program)
        packets = list(program.packets())
        counters = result.counters
        assert counters.hbm_read_bytes == sum(p.load_bytes for p in packets)
        assert counters.hbm_write_bytes == sum(p.store_bytes for p in packets)
        stripe = min(config.hbm_stripe, platform.hbm.n_channels)
        assert counters.dma_transfers == sum(
            _transfers(p.load_bytes, stripe) + _transfers(p.store_bytes, stripe)
            for p in packets)
        if result.spans is not None:
            assert counters.dma_transfers == sum(
                event.engine.startswith("hbm:") for event in trace_events(result.spans))
        jumped += result.packets_replayed > 0

    check()
    assert jumped > 0


@pytest.mark.parametrize("stripe, load, labels", [
    (1, 4096, ["x"]),
    (16, 5, ["x[15]"]),
    (4, 4096, ["x[0]", "x[1]", "x[2]", "x[3]"]),
    (64, 4096, [f"x[{i}]" for i in range(32)]),
], ids=["one-channel", "short", "striped", "clamped"])
def test_traced_stripes_are_labelled_by_their_index(stripe, load, labels):
    """One ``hbm:<channel>`` event per stripe: the bare label at stripe 1,
    the last stripe's index alone for fewer bytes than stripes (every
    other stripe would be empty), every index otherwise — the stripe
    clamped to the 32 channels."""
    program = Program([OpProgram("x", ComputeUnit.MPE, [
        TilePacket(ComputeUnit.MPE, load, 1, 0)])])
    config = AcceleratorConfig(hbm_stripe=stripe, trace_enabled=True)
    result = PipelineExecutor(config, u280()).run(program)
    events = [event for event in trace_events(result.spans)
              if event.engine.startswith("hbm:")]
    assert [event.label for event in events] == labels
    assert len({event.engine for event in events}) == len(labels)
    assert result.counters.dma_transfers == len(labels)
