"""``hypothesis`` strategies for valid accelerator design points and
synthetic programs — the generator shared by the executor's differential
test and (ROADMAP item 3) the cross-layer invariant oracle.

The ranges are chosen to provoke *same-cycle ties*, where the order of a
read and a posted write on the HBM channel heap is decided by the order
of events inside one cycle: few channels, stripes wider and narrower
than the channel count, pools of one segment, flushes of zero cycles,
computes of zero and one cycle, and loads and stores that are often
empty.
"""

from __future__ import annotations

from typing import Tuple

from hypothesis import strategies as st

from repro.accel.config import AcceleratorConfig, BufferConfig
from repro.accel.instructions import OpProgram, Program, TilePacket
from repro.fpga.u280 import FpgaPlatform, u280
from repro.graph.ops import ComputeUnit

__all__ = ["platforms", "accelerator_configs", "programs", "executor_cases"]


def platforms() -> st.SearchStrategy[FpgaPlatform]:
    """The U280 with 1, 2, 5 or all 32 HBM pseudo-channels."""
    return st.sampled_from([1, 2, 5, 32]).map(
        lambda n_channels: u280(n_hbm_channels=n_channels))


def accelerator_configs(trace_enabled: bool = True) -> st.SearchStrategy[AcceleratorConfig]:
    """Both executor disciplines × both pool policies × pool and stripe sizes."""
    return st.builds(
        AcceleratorConfig,
        pipeline=st.booleans(),
        memory_reuse=st.booleans(),
        hbm_stripe=st.one_of(st.sampled_from([1, 2, 16]), st.integers(1, 64)),
        buffers=st.builds(
            BufferConfig,
            n_segments=st.integers(1, 8),
            reuse_flush_cycles=st.sampled_from([0, 1, 24, 160]),
        ),
        trace_enabled=st.just(trace_enabled),
    )


_BYTES = st.one_of(st.just(0), st.sampled_from([1, 5, 64, 4096]),
                   st.integers(1, 1 << 16))
_CYCLES = st.one_of(st.sampled_from([0, 1]), st.integers(2, 40),
                    st.integers(41, 3000))
_TILES = st.tuples(_BYTES, _CYCLES, st.one_of(st.just(0), _BYTES),
                   st.sampled_from([ComputeUnit.MPE, ComputeUnit.SFU]))


@st.composite
def programs(draw, max_ops: int = 8, max_packets: int = 12) -> Program:
    """1–``max_ops`` operators of 1–``max_packets`` packets each.

    No operator is empty: the kernel-based executor charged an empty
    operator's dispatch in one discipline and not in the other (see
    :mod:`repro.accel.pipeline`), so it is no oracle for them.
    """
    ops = []
    for o, tiles in enumerate(draw(st.lists(
            st.lists(_TILES, min_size=1, max_size=max_packets),
            min_size=1, max_size=max_ops))):
        ops.append(OpProgram(f"op{o}", ComputeUnit.MPE, [
            TilePacket(f"op{o}", unit, load, cycles, store,
                       macs=cycles, sfu_flops=load % 7, onchip_bytes=store % 5,
                       label=f"op{o}.{j}")
            for j, (load, cycles, store, unit) in enumerate(tiles)
        ]))
    return Program("generated", ops)


def executor_cases() -> st.SearchStrategy[Tuple[AcceleratorConfig, FpgaPlatform, Program]]:
    """One ``PipelineExecutor(config, platform).run(program)`` call."""
    return st.tuples(accelerator_configs(), platforms(), programs())
