"""Matrix Processing Engine timing model.

The MPE is a ``rows x cols`` int8 MAC array (one output row per array
row).  For the matrix–vector products that dominate single-token decode,
the array processes ``cols`` input elements per cycle for ``rows`` output
elements simultaneously, so a weight tile of ``rows x in_features``
finishes in ``ceil(in_features / cols)`` cycles plus the systolic
fill/drain latency.

Attention score / context products are matrix–vector products too (per KV
head over the cached positions) and reuse the same array; the compiler
maps them here with the appropriate dimensions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

from .config import MPEConfig

__all__ = ["MPETimingModel", "TileShape"]


@dataclass(frozen=True)
class TileShape:
    """One weight tile processed by the array."""

    out_rows: int      # number of output elements produced by the tile
    in_features: int   # reduction length

    def __post_init__(self) -> None:
        if self.out_rows <= 0 or self.in_features <= 0:
            raise ValueError("tile dimensions must be positive")

    @property
    def macs(self) -> int:
        return self.out_rows * self.in_features


class MPETimingModel:
    """Analytic cycle counts for the MAC array."""

    def __init__(self, config: MPEConfig) -> None:
        self.config = config

    # ------------------------------------------------------------------
    def split_matvec(
        self,
        out_features: int,
        in_features: int,
        tile_rows: int | None = None,
    ) -> List[Tuple[TileShape, int]]:
        """Tile a (out x in) mat-vec into row blocks of ``tile_rows``,
        as ``(tile, count)`` runs in row order: the whole blocks, then
        the remainder, if any.

        ``tile_rows`` defaults to the array height (the fixed tiling);
        larger values — multiples of ``rows`` chosen by a tiling plan —
        fold several row blocks into one tile, amortizing the systolic
        fill/drain latency at the cost of a bigger on-chip weight slice.
        """
        if out_features <= 0 or in_features <= 0:
            raise ValueError("matrix dimensions must be positive")
        rows = tile_rows if tile_rows is not None else self.config.rows
        if rows <= 0:
            raise ValueError("tile_rows must be positive")
        whole, rest = divmod(out_features, rows)
        runs: List[Tuple[TileShape, int]] = []
        if whole:
            runs.append((TileShape(out_rows=rows, in_features=in_features), whole))
        if rest:
            runs.append((TileShape(out_rows=rest, in_features=in_features), 1))
        return runs

    def tile_cycles(self, tile: TileShape) -> int:
        """Cycles for one tile: reduction passes plus fill latency.

        A tile taller than the array is processed as ``ceil(out_rows /
        rows)`` folds of reduction passes back to back without draining
        the systolic pipeline between folds, so the fill/drain latency is
        paid once per tile.  For ``out_rows <= rows`` (the fixed tiling)
        this reduces to the historical ``passes + depth``.
        """
        passes = math.ceil(tile.in_features / self.config.cols)
        folds = math.ceil(tile.out_rows / self.config.rows)
        return folds * passes + self.config.pipeline_depth
